package order

import (
	"math/rand/v2"
	"testing"

	"repro/internal/lane"
	"repro/internal/types"
)

// buildLanes creates a store with `perLane` chained proposals for each of
// n lanes and returns it with the per-lane tips.
func buildLanes(n, perLane int) (*lane.Store, []types.TipRef) {
	store := lane.NewStore()
	tips := make([]types.TipRef, n)
	for l := 0; l < n; l++ {
		var parent types.Digest
		for pos := 1; pos <= perLane; pos++ {
			p := &types.Proposal{
				Lane:     types.NodeID(l),
				Position: types.Pos(pos),
				Parent:   parent,
				Batch:    types.NewSyntheticBatch(types.NodeID(l), uint64(pos), 10, 5120, 0, 0),
			}
			store.Put(p)
			parent = p.Digest()
			tips[l] = types.TipRef{Lane: types.NodeID(l), Position: types.Pos(pos), Digest: parent}
		}
	}
	return store, tips
}

func cutAt(tips []types.TipRef, positions []types.Pos, store *lane.Store) types.Cut {
	cut := types.NewEmptyCut(len(tips))
	for i, pos := range positions {
		if pos == 0 {
			continue
		}
		// Walk back from the tip to the requested position.
		props, _ := store.ChainSuffix(types.NodeID(i), 1, tips[i].Position, tips[i].Digest)
		p := props[pos-1]
		cut.Tips[i] = types.TipRef{Lane: types.NodeID(i), Position: pos, Digest: p.Digest()}
	}
	return cut
}

func TestExecuteInSlotOrder(t *testing.T) {
	store, tips := buildLanes(4, 3)
	o := NewOrderer(types.NewCommittee(4), store)

	// Decision for slot 2 arrives first: nothing executes.
	cut2 := cutAt(tips, []types.Pos{2, 2, 2, 2}, store)
	if err := o.AddDecision(2, &types.ConsensusProposal{Slot: 2, Cut: cut2}); err != nil {
		t.Fatal(err)
	}
	entries, missing, executed := o.TryExecute()
	if len(entries) != 0 || len(missing) != 0 || len(executed) != 0 {
		t.Fatalf("slot 2 executed before slot 1: %v %v %v", entries, missing, executed)
	}

	// Slot 1 arrives: both execute in order.
	cut1 := cutAt(tips, []types.Pos{1, 1, 1, 1}, store)
	if err := o.AddDecision(1, &types.ConsensusProposal{Slot: 1, Cut: cut1}); err != nil {
		t.Fatal(err)
	}
	entries, missing, executed = o.TryExecute()
	if len(missing) != 0 || len(executed) != 2 {
		t.Fatalf("missing=%v executed=%v", missing, executed)
	}
	// Slot 1 contributes 4 entries (pos 1 per lane), slot 2 another 4.
	if len(entries) != 8 {
		t.Fatalf("entries = %d", len(entries))
	}
	for i, e := range entries {
		if i < 4 && (e.Slot != 1 || e.Position != 1) {
			t.Fatalf("entry %d = %+v", i, e)
		}
		if i >= 4 && (e.Slot != 2 || e.Position != 2) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

// TestZipOrder: within a slot, entries are ordered by (position, lane).
func TestZipOrder(t *testing.T) {
	store, tips := buildLanes(3, 4) // n=3 is not 3f+1 but the orderer is agnostic
	o := NewOrderer(types.NewCommittee(4), store)
	cut := types.NewEmptyCut(3)
	// Lane 0 advances to 3, lane 1 to 1, lane 2 to 2.
	for i, pos := range []types.Pos{3, 1, 2} {
		props, _ := store.ChainSuffix(types.NodeID(i), 1, tips[i].Position, tips[i].Digest)
		cut.Tips[i] = types.TipRef{Lane: types.NodeID(i), Position: pos, Digest: props[pos-1].Digest()}
	}
	o.AddDecision(1, &types.ConsensusProposal{Slot: 1, Cut: cut})
	entries, _, _ := o.TryExecute()
	var got [][2]int
	for _, e := range entries {
		got = append(got, [2]int{int(e.Position), int(e.Lane)})
	}
	want := [][2]int{{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 2}, {3, 0}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zip order: got %v, want %v", got, want)
		}
	}
}

// TestNonMonotonicCutsIgnored (§5.4): a later slot whose tip is at or
// below the committed frontier contributes nothing from that lane.
func TestNonMonotonicCutsIgnored(t *testing.T) {
	store, tips := buildLanes(4, 3)
	o := NewOrderer(types.NewCommittee(4), store)
	o.AddDecision(1, &types.ConsensusProposal{Slot: 1, Cut: cutAt(tips, []types.Pos{3, 3, 3, 3}, store)})
	if _, _, executed := o.TryExecute(); len(executed) != 1 {
		t.Fatal("slot 1 must execute")
	}
	// Slot 2 proposes older tips (2 < 3 committed): all ignored.
	o.AddDecision(2, &types.ConsensusProposal{Slot: 2, Cut: cutAt(tips, []types.Pos{2, 2, 2, 2}, store)})
	entries, missing, executed := o.TryExecute()
	if len(executed) != 1 || len(entries) != 0 || len(missing) != 0 {
		t.Fatalf("non-monotonic cut mishandled: %v %v %v", entries, missing, executed)
	}
	if o.LastCommit(0) != 3 {
		t.Fatalf("frontier regressed to %d", o.LastCommit(0))
	}
}

func TestMissingDataReported(t *testing.T) {
	store, tips := buildLanes(4, 5)
	// A fresh store missing lane 2 entirely.
	gap := lane.NewStore()
	for l := 0; l < 4; l++ {
		if l == 2 {
			continue
		}
		props, _ := store.ChainSuffix(types.NodeID(l), 1, 5, tips[l].Digest)
		for _, p := range props {
			gap.Put(p)
		}
	}
	o := NewOrderer(types.NewCommittee(4), gap)
	o.AddDecision(1, &types.ConsensusProposal{Slot: 1, Cut: cutAt(tips, []types.Pos{5, 5, 5, 5}, store)})
	entries, missing, executed := o.TryExecute()
	if len(entries) != 0 || len(executed) != 0 {
		t.Fatal("must not execute with missing data")
	}
	if len(missing) != 1 || missing[0].Lane != 2 || missing[0].From != 1 || missing[0].To != 5 {
		t.Fatalf("missing = %+v", missing)
	}
	// Catch-up ranges coalesce across pending slots.
	o.AddDecision(2, &types.ConsensusProposal{Slot: 2, Cut: cutAt(tips, []types.Pos{5, 5, 5, 5}, store)})
	ranges := o.CatchupRanges()
	if len(ranges) != 1 || ranges[0].Lane != 2 || ranges[0].To != 5 {
		t.Fatalf("catchup = %+v", ranges)
	}
	// Supplying the data unblocks both slots.
	props, _ := store.ChainSuffix(2, 1, 5, tips[2].Digest)
	for _, p := range props {
		gap.Put(p)
	}
	_, missing, executed = o.TryExecute()
	if len(missing) != 0 || len(executed) != 2 {
		t.Fatalf("after fill: missing=%v executed=%v", missing, executed)
	}
}

func TestConflictingDecisionRejected(t *testing.T) {
	store, tips := buildLanes(4, 2)
	o := NewOrderer(types.NewCommittee(4), store)
	o.AddDecision(3, &types.ConsensusProposal{Slot: 3, Cut: cutAt(tips, []types.Pos{1, 1, 1, 1}, store)})
	err := o.AddDecision(3, &types.ConsensusProposal{Slot: 3, Cut: cutAt(tips, []types.Pos{2, 2, 2, 2}, store)})
	if err == nil {
		t.Fatal("conflicting decision for one slot accepted")
	}
	// An identical duplicate is fine.
	if err := o.AddDecision(3, &types.ConsensusProposal{Slot: 3, Cut: cutAt(tips, []types.Pos{1, 1, 1, 1}, store)}); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionOrderIndependence: the total order is a deterministic
// function of the decided cuts, regardless of decision arrival order.
func TestDecisionOrderIndependence(t *testing.T) {
	store, tips := buildLanes(4, 8)
	slots := make([]*types.ConsensusProposal, 8)
	for s := 1; s <= 8; s++ {
		pos := types.Pos(s)
		slots[s-1] = &types.ConsensusProposal{
			Slot: types.Slot(s),
			Cut:  cutAt(tips, []types.Pos{pos, pos, pos, pos}, store),
		}
	}
	run := func(perm []int) []Entry {
		o := NewOrderer(types.NewCommittee(4), store)
		var all []Entry
		for _, idx := range perm {
			o.AddDecision(slots[idx].Slot, slots[idx])
			entries, _, _ := o.TryExecute()
			all = append(all, entries...)
		}
		return all
	}
	base := run([]int{0, 1, 2, 3, 4, 5, 6, 7})
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(8)
		got := run(perm)
		if len(got) != len(base) {
			t.Fatalf("perm %v: %d entries vs %d", perm, len(got), len(base))
		}
		for i := range base {
			if got[i].Digest != base[i].Digest || got[i].Slot != base[i].Slot {
				t.Fatalf("perm %v: order diverged at %d", perm, i)
			}
		}
	}
}

// TestMissingStartsAtLowestAbsent: the range a blocked slot (and the
// coalesced catch-up) reports starts at the lowest position the store
// does not hold above the committed frontier — read by walking parent
// links up from the frontier digest, never from positions alone — and
// ends beneath whatever of the tip's chain is held from the top.
func TestMissingStartsAtLowestAbsent(t *testing.T) {
	const lane1, frontier, tipPos = types.NodeID(1), 2, 10
	full, tips := buildLanes(2, tipPos)
	chain, _ := full.ChainSuffix(lane1, 1, tipPos, tips[lane1].Digest)
	at := func(pos int) *types.Proposal { return chain[pos-1] }
	// sibling forks the lane at pos: same parent, different batch.
	sibling := func(pos int) *types.Proposal {
		return &types.Proposal{
			Lane: lane1, Position: types.Pos(pos), Parent: at(pos).Parent,
			Batch: types.NewSyntheticBatch(lane1, uint64(1000+pos), 10, 5120, 0, 0),
		}
	}
	cases := []struct {
		name     string
		held     []*types.Proposal
		from, to types.Pos
	}{
		{"nothing held", nil, 3, 10},
		{"bottom held", []*types.Proposal{at(3), at(4), at(5)}, 6, 10},
		{"bottom and top held", []*types.Proposal{at(3), at(4), at(9), at(10)}, 5, 8},
		{"held above a hole only", []*types.Proposal{at(5), at(6)}, 3, 10},
		// A car exists at position 6, but it is not the chain's: counting
		// positions would start the range at 7 and never fetch the real 6.
		{"fork visible at the boundary", []*types.Proposal{at(3), at(4), at(5), at(6), sibling(6)}, 6, 10},
		// Only the sibling is held: the walk cannot tell it from its twin
		// and runs past the hole. Once the top has arrived the range ends
		// beneath the walk's start, which only a fork explains: the whole
		// range from the frontier is reported.
		{"lone sibling, top arrived", []*types.Proposal{at(3), at(4), sibling(5), at(6), at(7), at(8), at(9), at(10)}, 3, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := lane.NewStore()
			for l0, _ := full.ChainSuffix(0, 1, tipPos, tips[0].Digest); len(l0) > 0; l0 = l0[1:] {
				store.Put(l0[0])
			}
			for _, p := range tc.held {
				store.Put(p)
			}
			o := NewOrderer(types.NewCommittee(2), store)
			o.Restore(5, []types.Pos{frontier, frontier}, []types.Digest{
				cutAt(tips, []types.Pos{frontier, frontier}, full).Tips[0].Digest, at(frontier).Digest(),
			})
			o.AddDecision(5, &types.ConsensusProposal{Slot: 5, Cut: cutAt(tips, []types.Pos{tipPos, tipPos}, full)})
			_, missing, executed := o.TryExecute()
			if len(executed) != 0 || len(missing) != 1 {
				t.Fatalf("missing=%+v executed=%v, want one missing range", missing, executed)
			}
			for _, got := range [][]Missing{missing, o.CatchupRanges()} {
				m := got[0]
				if len(got) != 1 || m.Lane != lane1 || m.From != tc.from || m.To != tc.to {
					t.Fatalf("range = %+v, want lane 1 [%d,%d]", got, tc.from, tc.to)
				}
				if want := at(int(tc.to)).Digest(); m.TipDigest != want {
					t.Fatalf("range anchored at %s, want the chain's digest at %d", m.TipDigest, tc.to)
				}
			}
		})
	}
}
