package consensus

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/types"
)

// coverageEngine builds one unsigned engine of an n-replica committee
// whose provider reports a settable number of new tips.
func coverageEngine(n int, self types.NodeID) (*Engine, *mockEnv, *mockProvider) {
	env := &mockEnv{self: self}
	prov := &mockProvider{cut: types.NewEmptyCut(n), hasData: true}
	e := NewEngine(Config{
		Committee: types.NewCommittee(n),
		Self:      self,
		Signer:    crypto.NewNopSuite(n).Signer(self),
	}, env, prov)
	return e, env, prov
}

// cutAt is a cut whose lane i tip sits at pos[i].
func cutAt(pos []types.Pos) types.Cut {
	cut := types.NewEmptyCut(len(pos))
	for i, p := range pos {
		if p > 0 {
			cut.Tips[i].Position = p
			cut.Tips[i].Digest = types.Digest{byte(i + 1), byte(p)}
		}
	}
	return cut
}

// commitCut decides slot s with the given cut through the engine's own
// input path: the commit both records the slot's committed cut (the
// ticket of s+k) and hands its positions to s+1 as the parent cut.
func commitCut(e *Engine, s types.Slot, pos []types.Pos) {
	prop := types.ConsensusProposal{Slot: s, Cut: cutAt(pos)}
	e.OnCommitNotice(1, &types.CommitNotice{
		QC:       types.CommitQC{Slot: s, Digest: prop.Digest()},
		Proposal: prop,
	})
}

// TestCoverageNeed is the threshold table: min(Coverage, lanes that
// advanced between the ticket's cut and the parent's), floor 1, and the
// configured threshold wherever that window does not exist.
func TestCoverageNeed(t *testing.T) {
	const k = 4 // default MaxParallel; Coverage defaults to n-f = 3
	cases := []struct {
		name string
		// step is what each lane gains per committed cut; the cuts of slots
		// 1..8 are committed and slot 9 (ticket 5, parent 8) is asked.
		step []types.Pos
		// parent, when set, replaces the last cut (slot 8).
		parent []types.Pos
		slot   types.Slot
		want   int
	}{
		{name: "all lanes active", step: []types.Pos{1, 1, 1, 1}, slot: 9, want: 3},
		{name: "two of four active", step: []types.Pos{1, 1, 0, 0}, slot: 9, want: 2},
		{name: "one active", step: []types.Pos{0, 2, 0, 0}, slot: 9, want: 1},
		{name: "all idle", step: []types.Pos{0, 0, 0, 0}, slot: 9, want: 1},
		{name: "genesis window keeps Coverage", step: []types.Pos{0, 0, 0, 0}, slot: k, want: 3},
		// Lane 2's tip in the parent cut (3) lies below the ticket's (5): a
		// stale tip is not an advance, lanes 0 and 1 are.
		{name: "stale tip is not an advance", step: []types.Pos{1, 1, 1, 0}, parent: []types.Pos{8, 8, 3, 0}, slot: 9, want: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _, _ := coverageEngine(4, 0)
			pos := make([]types.Pos, 4)
			for s := types.Slot(1); s < tc.slot; s++ {
				for i := range pos {
					pos[i] += tc.step[i]
				}
				if s == tc.slot-1 && tc.parent != nil {
					copy(pos, tc.parent)
				}
				commitCut(e, s, pos)
			}
			if got := e.coverageNeed(e.slot(tc.slot)); got != tc.want {
				t.Fatalf("coverageNeed(slot %d) = %d, want %d", tc.slot, got, tc.want)
			}
		})
	}

	t.Run("no parent cut keeps Coverage", func(t *testing.T) {
		e, _, _ := coverageEngine(4, 0)
		for s := types.Slot(1); s <= 8; s++ {
			commitCut(e, s, make([]types.Pos, 4)) // idle history
		}
		st := e.slot(9)
		st.parentCutPos = nil
		if got := e.coverageNeed(st); got != 3 {
			t.Fatalf("coverageNeed without a parent cut = %d, want Coverage 3", got)
		}
	})

	t.Run("window shorter than two cuts keeps Coverage", func(t *testing.T) {
		env := &mockEnv{}
		e := NewEngine(Config{
			Committee: types.NewCommittee(4), MaxParallel: 2,
			Signer: crypto.NewNopSuite(4).Signer(0),
		}, env, &mockProvider{cut: types.NewEmptyCut(4)})
		for s := types.Slot(1); s <= 8; s++ {
			commitCut(e, s, make([]types.Pos, 4))
		}
		if got := e.coverageNeed(e.slot(9)); got != 3 {
			t.Fatalf("coverageNeed with k=2 = %d, want Coverage 3", got)
		}
	})
}

const skewedSlot = types.Slot(9)

// skewedLeader is the engine of the view-0 leader of slot 9 after eight
// committed cuts in which only lanes 0 and 1 advanced: the slot's window
// shows two active lanes of four, so its threshold is 2.
func skewedLeader() (*Engine, *mockEnv, *mockProvider) {
	e, env, prov := coverageEngine(4, types.NewCommittee(4).Leader(skewedSlot, 0))
	pos := make([]types.Pos, 4)
	for s := types.Slot(1); s < skewedSlot; s++ {
		pos[0]++
		pos[1]++
		commitCut(e, s, pos)
	}
	env.now += minProposalGap // clear the pacing of earlier slots' proposals
	return e, env, prov
}

// TestCoverageStartCauses drives evalStart at the leader of a slot whose
// window shows two active lanes: one new tip does not start it, two do
// (a lowered start), and after the coverageDelay backstop one is enough —
// relaxed still means at least one new tip, never zero.
func TestCoverageStartCauses(t *testing.T) {
	const slot = skewedSlot
	proposed := func(env *mockEnv) bool {
		for _, m := range env.bcast {
			if p, ok := m.(*types.Prepare); ok && p.Proposal.Slot == slot {
				return true
			}
		}
		return false
	}

	e, env, prov := skewedLeader()
	prov.newTips = 1
	e.OnTipsAdvanced()
	if proposed(env) {
		t.Fatal("one new tip started a slot that needs two")
	}
	prov.newTips = 2
	e.OnTipsAdvanced()
	if !proposed(env) {
		t.Fatal("two new tips on the two active lanes did not start the slot")
	}
	if got := e.StartCounts(); got.Lowered == 0 || got.Backstop != 0 {
		t.Fatalf("start counts after a lowered start: %+v", got)
	}

	e, env, prov = skewedLeader()
	prov.newTips = 0
	e.OnTipsAdvanced()
	e.OnTimer(Timer{Kind: TimerCoverage, Slot: slot})
	if proposed(env) {
		t.Fatal("the backstop started a slot with no new tip at all")
	}
	prov.newTips = 1
	e.OnTipsAdvanced()
	if !proposed(env) {
		t.Fatal("relaxed coverage with one new tip did not start the slot")
	}
	if got := e.StartCounts(); got.Backstop != 1 {
		t.Fatalf("start counts after a backstop start: %+v", got)
	}
}

// TestCoverageNoRatchet: ten lanes that each advance once per three
// slots show up, all of them, across the k-1 cuts of every window, so the
// threshold is Coverage = 7. One backstop-released slot whose cut carried
// a single new tip must not talk the following slots into starting on a
// single tip too. A one-cut memory would — the window of the next slot
// would be that cut alone, threshold 1, and every slot after it would
// inherit a one-tip parent; across k-1 cuts the threshold never leaves 7.
func TestCoverageNoRatchet(t *testing.T) {
	const (
		n       = 10
		relaxed = types.Slot(20) // the single-tip slot
		last    = types.Slot(40)
	)
	e, _, _ := coverageEngine(n, 0)
	pos := make([]types.Pos, n)
	held := make([]bool, n) // cars the relaxed slot's cut left behind
	for s := types.Slot(1); s <= last; s++ {
		first := true
		for i := range pos {
			due := types.Slot(i)%3 == s%3
			switch {
			case s == relaxed && due && !first:
				held[i] = true // sealed, but this cut took one tip only
			case due || held[i]:
				pos[i]++
				held[i] = false
				first = false
			}
		}
		commitCut(e, s, pos)
		if need := e.coverageNeed(e.slot(s + 1)); need != 7 {
			t.Fatalf("slot %d: threshold %d, want Coverage 7 (single-tip slot was %d)", s+1, need, relaxed)
		}
	}
}

// TestEvalStartAllocs: a start evaluation that ends in "not covered yet"
// runs several times per car on every replica; it must not allocate.
func TestEvalStartAllocs(t *testing.T) {
	e, _, prov := skewedLeader()
	prov.newTips = 1
	e.evalStart(skewedSlot) // arms the backstop timer once
	if allocs := testing.AllocsPerRun(100, func() { e.evalStart(skewedSlot) }); allocs != 0 {
		t.Fatalf("evalStart allocates %.0f objects per uncovered evaluation", allocs)
	}
}

func BenchmarkEvalStart(b *testing.B) {
	e, _, prov := skewedLeader()
	prov.newTips = 1
	e.evalStart(skewedSlot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.evalStart(skewedSlot)
	}
}
