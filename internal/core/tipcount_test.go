package core

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/types"
)

// TestNewTipCountMatchesCutWithoutAllocating: the coverage count must
// agree with counting over an assembled cut — §B.1 standing included,
// whatever the shard count — and build nothing.
func TestNewTipCountMatchesCutWithoutAllocating(t *testing.T) {
	const n = 4
	base := []types.Pos{0, 2, 5, 0}
	for _, shards := range []int{0, 1, 2} {
		nd := NewNode(Config{
			Committee:      types.NewCommittee(n),
			Self:           0,
			Suite:          crypto.NewNopSuite(n),
			OptimisticTips: true,
			Reputation:     true,
			Shards:         shards,
		})
		// Lane 1 certified beyond base, lane 2 certified below it, lane 3
		// known by an uncertified tip only.
		for l, pos := range map[types.NodeID]types.Pos{1: 3, 2: 4} {
			poa := &types.PoA{Lane: l, Position: pos, Digest: types.Digest{byte(l)}}
			if err := nd.lanes.OnPoA(poa); err != nil {
				t.Fatal(err)
			}
			tip := nd.lanes.CertifiedTip(l)
			nd.tips.updateLane(l, tip, tip)
		}
		nd.tips.updateLane(3, types.TipRef{Lane: 3}, types.TipRef{Lane: 3, Position: 9, Digest: types.Digest{9}})
		cp := (*cutProvider)(nd)
		check := func(want int) {
			t.Helper()
			cut := cp.AssembleCut(true).NewTipsVersus(base)
			if got := cp.NewTipCount(base); got != want || got != cut {
				t.Fatalf("shards=%d: NewTipCount = %d, want %d (assembled cut counts %d)", shards, got, want, cut)
			}
		}
		check(2)
		// Lane 3 loses its optimistic standing (§B.1): neither the cut nor
		// the count may carry its tip any more.
		nd.reputation[3] = repOptimisticMin
		check(1)
		if allocs := testing.AllocsPerRun(100, func() { cp.NewTipCount(base) }); allocs != 0 {
			t.Fatalf("shards=%d: NewTipCount allocates %.0f objects per call", shards, allocs)
		}
	}
}
