package core

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/crypto"
	"repro/internal/types"
)

// TestTrimHistoryFollowsRetainedCut pins the execution-off truncation
// line: once execution reaches slot RetainSlots + s, each lane keeps the
// positions from its tip in slot s's retained cut upward — the tip itself
// included — and nothing is dropped while that cut is unknown. With
// execution on the line is the snapshot's, so nothing moves here.
func TestTrimHistoryFollowsRetainedCut(t *testing.T) {
	for _, execution := range []bool{false, true} {
		nd := NewNode(Config{
			Committee: types.NewCommittee(4),
			Self:      0,
			Suite:     crypto.NewNopSuite(4),
			Execution: execution,
		})
		store := nd.lanes.Store()
		for pos := types.Pos(1); pos <= 10; pos++ {
			for _, l := range []types.NodeID{1, 2} {
				store.Put(&types.Proposal{Lane: l, Position: pos, Batch: types.NewBatch(l, uint64(pos), nil, 0)})
			}
		}
		const s = 5
		nd.orderer.Restore(consensus.RetainSlots+s, nil, nil)
		nd.trimHistory()
		if got := store.Len(); got != 20 {
			t.Fatalf("execution=%v: %d cars left with slot %d's cut unknown, want all 20", execution, got, s)
		}
		nd.recentNotices[s] = &types.CommitNotice{Proposal: types.ConsensusProposal{Slot: s, Cut: types.Cut{Tips: []types.TipRef{
			{Lane: 0}, {Lane: 1, Position: 7}, {Lane: 2, Position: 1}, {Lane: 3},
		}}}}
		nd.trimHistory()
		want := map[types.NodeID]types.Pos{1: 7, 2: 1} // lowest position kept
		if execution {
			want[1] = 1
		}
		for l, low := range want {
			for pos := types.Pos(1); pos <= 10; pos++ {
				if kept := store.ForksAt(l, pos) == 1; kept != (pos >= low) {
					t.Errorf("execution=%v: lane %d position %d kept=%v, want positions from %d up", execution, l, pos, kept, low)
				}
			}
		}
	}
}
