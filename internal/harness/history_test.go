package harness

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/types"
)

// historyViewTimeout is the view timeout ceiling of the history-window
// runs. Each slot a down replica leads waits out a view timeout. Under
// the default 1 s ceiling the adaptive timer settles on this WAN at
// about 0.47 s (4 x a p99 decide latency of ~117 ms), so an n = 4
// cluster decides about 5 slots/s while one replica is down, and an
// outage would have to last some 50 s to span RetainSlots. A 150 ms
// ceiling holds the timer at 150 ms: about 7.5 slots/s.
const historyViewTimeout = 150 * time.Millisecond

// historyRun is one n = 4 simulated run for the history-window tests,
// with the safety oracle on every commit stream.
type historyRun struct {
	c  *Cluster
	ci *CommitInterceptor
}

func newHistoryRun(execution bool, faults *sim.FaultSchedule) historyRun {
	ci := NewCommitInterceptor()
	c := Build(ClusterConfig{
		System:      Autobahn,
		N:           4,
		Execution:   execution,
		Faults:      faults,
		WrapSink:    ci.Wrap,
		ViewTimeout: historyViewTimeout,
	})
	return historyRun{c: c, ci: ci}
}

func (r historyRun) node(id types.NodeID) *core.Node { return r.c.Nodes[id].(*core.Node) }

func (r historyRun) next(id types.NodeID) types.Slot { return r.node(id).Orderer().NextExec() }

// storeLen sums every replica's lane-store size.
func (r historyRun) storeLen() int {
	total := 0
	for _, id := range r.c.IDs {
		total += r.node(id).Lanes().Store().Len()
	}
	return total
}

// TestHistoryWindowFlat: with execution off, a replica's lane stores
// hold the last consensus.RetainSlots slots of cars, not the run — the
// store is the same size at twice the run length — and genesis is gone.
func TestHistoryWindowFlat(t *testing.T) {
	const half = 20 * time.Second
	r := newHistoryRun(false, nil)
	var atHalf int
	var slotsAtHalf types.Slot
	r.c.Engine.At(half, func() { atHalf, slotsAtHalf = r.storeLen(), r.next(0) })
	r.c.RunLoad(10e3, 0, 2*half, 2*half)
	atEnd := r.storeLen()
	t.Logf("stores: %d cars at %v (slot %d), %d at %v (slot %d)", atHalf, half, slotsAtHalf, atEnd, 2*half, r.next(0))
	if slotsAtHalf <= consensus.RetainSlots {
		t.Fatalf("only %d slots by %v: the window never filled", slotsAtHalf, half)
	}
	if d := atEnd - atHalf; d*10 > atHalf || -d*10 > atHalf {
		t.Errorf("lane stores hold %d cars at %v and %d at %v, want within 10%%", atHalf, half, atEnd, 2*half)
	}
	for _, id := range r.c.IDs {
		for _, l := range r.c.IDs {
			if r.node(id).Lanes().Store().ForksAt(l, 1) != 0 {
				t.Fatalf("replica %s still holds lane %s position 1", id, l)
			}
		}
	}
	if v := r.ci.Violation(); v != "" {
		t.Fatal(v)
	}
}

// TestHistoryKeptWithExecution: execution on without snapshots keeps
// everything, so a replica can still replay from genesis.
func TestHistoryKeptWithExecution(t *testing.T) {
	r := newHistoryRun(true, nil)
	r.c.RunLoad(10e3, 0, 20*time.Second, 20*time.Second)
	if got := r.next(0); got <= consensus.RetainSlots {
		t.Fatalf("only %d slots: the window never filled", got)
	}
	for _, id := range r.c.IDs {
		for _, l := range r.c.IDs {
			if r.node(id).Lanes().Store().ForksAt(l, 1) != 1 {
				t.Fatalf("replica %s dropped lane %s position 1 with execution on and no snapshots", id, l)
			}
		}
	}
}

// historyOutage takes replica 1 down at 15 s for the given time, runs to
// 80 s, and returns how far behind replica 0 it was on its return.
func historyOutage(t *testing.T, down time.Duration) (historyRun, types.Slot) {
	const (
		victim  = types.NodeID(1)
		crashAt = 15 * time.Second
		until   = 80 * time.Second
	)
	r := newHistoryRun(false, (&sim.FaultSchedule{}).AddDown(victim, crashAt, crashAt+down))
	var behind types.Slot
	r.c.Engine.At(crashAt+down, func() { behind = r.next(0) - r.next(victim) })
	r.c.RunLoad(10e3, 0, until, until)
	st := r.node(victim).Stats()
	t.Logf("down %v: %d slots behind on return; at the end replica 0 at slot %d, victim at %d; %d sync requests, %d unservable",
		down, behind, r.next(0), r.next(victim), st.SyncRequestsSent, st.HistoryUnservable)
	if v := r.ci.Violation(); v != "" {
		t.Fatal(v)
	}
	return r, behind
}

// TestHistoryWindowCatchUp: a replica fewer than RetainSlots slots
// behind — here close to the edge — is still served everything it
// missed.
func TestHistoryWindowCatchUp(t *testing.T) {
	r, behind := historyOutage(t, 30*time.Second)
	if behind < consensus.RetainSlots/2 || behind >= consensus.RetainSlots {
		t.Fatalf("victim %d slots behind on return, want within [%d, %d)", behind, consensus.RetainSlots/2, consensus.RetainSlots)
	}
	if r.next(1)+2 < r.next(0) {
		t.Errorf("victim still at slot %d with replica 0 at %d at the end", r.next(1), r.next(0))
	}
	if n := r.node(1).Stats().HistoryUnservable; n != 0 {
		t.Errorf("HistoryUnservable = %d within reach", n)
	}
}

// TestHistoryWindowBeyondReach: a replica more than RetainSlots slots
// behind finds the history it needs gone everywhere. It stays behind —
// safely — and says so in Stats.HistoryUnservable.
func TestHistoryWindowBeyondReach(t *testing.T) {
	r, behind := historyOutage(t, 40*time.Second)
	if behind <= consensus.RetainSlots {
		t.Fatalf("victim only %d slots behind on return, want more than %d", behind, consensus.RetainSlots)
	}
	if lag := r.next(0) - r.next(1); lag <= consensus.RetainSlots {
		t.Errorf("victim caught up to %d slots behind from beyond the window", lag)
	}
	if r.node(1).Stats().HistoryUnservable == 0 {
		t.Error("HistoryUnservable = 0 for a replica stuck beneath its peers' history")
	}
}
