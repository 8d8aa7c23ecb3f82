package core

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/types"
)

// TestNewTipCountMatchesCutWithoutAllocating: the coverage count must
// agree with counting over an assembled cut — on the classic lane state
// and on the sharded control plane's tip table — and build nothing.
func TestNewTipCountMatchesCutWithoutAllocating(t *testing.T) {
	const n = 4
	base := []types.Pos{0, 2, 5, 0}
	for _, shards := range []int{1, 2} {
		nd := NewNode(Config{
			Committee:      types.NewCommittee(n),
			Self:           0,
			Suite:          crypto.NewNopSuite(n),
			OptimisticTips: true,
			Reputation:     true,
			Shards:         shards,
		})
		// Lane 1 certified beyond base, lane 2 certified below it, lane 3
		// known by an uncertified tip only; on the sharded path lane 3 has
		// lost its optimistic standing (§B.1), so its tip must not count.
		for l, pos := range map[types.NodeID]types.Pos{1: 3, 2: 4} {
			poa := &types.PoA{Lane: l, Position: pos, Digest: types.Digest{byte(l)}}
			if err := nd.lanes.OnPoA(poa); err != nil {
				t.Fatal(err)
			}
			if nd.sharded {
				tip := nd.lanes.CertifiedTip(l)
				nd.tips.updateLane(l, tip, tip)
			}
		}
		want := 1
		if nd.sharded {
			nd.tips.updateLane(3, types.TipRef{Lane: 3}, types.TipRef{Lane: 3, Position: 9, Digest: types.Digest{9}})
			if got := (*cutProvider)(nd).NewTipCount(base); got != 2 {
				t.Fatalf("shards=%d: optimistic tip of lane 3 not counted: %d", shards, got)
			}
			nd.reputation[3] = repOptimisticMin
		}
		cp := (*cutProvider)(nd)
		if got := cp.NewTipCount(base); got != want || got != cp.AssembleCut(true).NewTipsVersus(base) {
			t.Fatalf("shards=%d: NewTipCount = %d, want %d (assembled cut counts %d)",
				shards, got, want, cp.AssembleCut(true).NewTipsVersus(base))
		}
		if allocs := testing.AllocsPerRun(100, func() { cp.NewTipCount(base) }); allocs != 0 {
			t.Fatalf("shards=%d: NewTipCount allocates %.0f objects per call", shards, allocs)
		}
	}
}
