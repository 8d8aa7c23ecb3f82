package consensus

import (
	"testing"

	"repro/internal/types"
)

// TestFarFutureSlotFloodBounded: a Byzantine peer floods votes, acks,
// timeouts and stale coverage timers carrying far-future slot numbers.
// None of them may allocate slot state, corrupt the frontier (which
// would make gcSlots delete live slots), or grow memory.
func TestFarFutureSlotFloodBounded(t *testing.T) {
	n := newNet(t, nil)
	e := n.engines[0]
	slotsBefore := len(e.slots)
	frontierBefore := e.Frontier()

	for i := 0; i < 10_000; i++ {
		s := types.Slot(1e15) + types.Slot(i)
		e.OnPrepVote(1, &types.PrepVote{Slot: s, View: 0, Digest: types.Digest{1}, Voter: 1})
		e.OnConfirmAck(2, &types.ConfirmAck{Slot: s, View: 0, Digest: types.Digest{1}, Voter: 2})
		e.OnTimeoutMsg(3, &types.Timeout{Slot: s, View: 0, Voter: 3})
		e.OnTimer(Timer{Kind: TimerCoverage, Slot: s})
	}

	if got := len(e.slots); got != slotsBefore {
		t.Fatalf("flood allocated slot state: %d -> %d", slotsBefore, got)
	}
	if got := e.Frontier(); got != frontierBefore {
		t.Fatalf("flood moved frontier: %d -> %d", frontierBefore, got)
	}
}

// TestWindowAdmitsNearbySlots: slots within [nextExec, maxStarted+k] are
// still tracked — a timeout complaint for a legitimately running slot
// must allocate state so the replica can join the mutiny.
func TestWindowAdmitsNearbySlots(t *testing.T) {
	n := newNet(t, nil)
	e := n.engines[0]

	// Slot 3 is within MaxParallel (default 4) of the started frontier.
	e.OnTimeoutMsg(1, &types.Timeout{Slot: 3, View: 0, Voter: 1})
	_, timeouts, _, _, _ := e.DebugSlot(3)
	if timeouts[0] != 1 {
		t.Fatalf("in-window timeout not collected: %v", timeouts)
	}
	// Just beyond the window: rejected.
	e.OnTimeoutMsg(1, &types.Timeout{Slot: types.Slot(2 + e.cfg.MaxParallel*10), View: 0, Voter: 1})
	if _, ok := e.slots[types.Slot(2+e.cfg.MaxParallel*10)]; ok {
		t.Fatal("out-of-window timeout allocated state")
	}
}

// TestWindowFollowsProgress: as slots decide, the window's lower bound
// follows the execution frontier reported by the provider and old-slot
// messages stop allocating state after GC.
func TestWindowFollowsProgress(t *testing.T) {
	n := newNet(t, nil)
	e := n.engines[0]
	if !e.inWindow(1) || !e.inWindow(types.Slot(e.cfg.MaxParallel)) {
		t.Fatal("genesis window must admit the first k slots")
	}
	if e.inWindow(types.Slot(e.cfg.MaxParallel) + 1) {
		t.Fatal("genesis window must end at k")
	}
	if e.inWindow(0) {
		t.Fatal("slot 0 is never valid")
	}
}
