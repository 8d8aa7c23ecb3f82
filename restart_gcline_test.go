package autobahn_test

import (
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	autobahn "repro"
	"repro/internal/harness"
	"repro/internal/types"
)

// TestRestartBeneathGCLine: history sync and state sync must tile. A
// replica stops far enough before its peers' snapshot boundary that more
// than twice the snapshot GC margin (128 positions) of cars per loaded
// lane commit between its stop and the boundary, so when the peers
// checkpoint, their truncation line passes the victim's committed
// frontier. Restarted from its WAL fewer than 2 x SnapshotEvery slots
// behind, the victim is too close for the distance rule to start a state
// sync and too far beneath the line for anyone to serve it history: it
// used to re-ask for an unservable range forever and never vote again.
// The exhausted fetch is now itself the state-sync trigger.
func TestRestartBeneathGCLine(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP e2e")
	}
	const (
		n        = 4
		victim   = types.NodeID(3)
		gcMargin = types.Pos(128) // core.snapGCMargin
		// Two snapshot intervals less the victim's lag (~110 slots) must
		// take the peers longer than the 5 s the victim gets, or the
		// distance rule fires and hides the hole: at the ~100 slots/s of
		// two lanes sealing every 10 ms, ~490 slots.
		snapEvery = types.Slot(300)
		// Positions per slot and per second are measured once the victim
		// has committed this many slots.
		warmUp = 50
	)
	loaded := []types.NodeID{0, 1}
	addrs := autobahn.FreeAddrs(t, n)
	dir := t.TempDir()
	oracle := harness.NewCommitInterceptor()

	// frontier[r][l] is the last position of lane l replica r committed and
	// slot[r] its last committed slot; boundary[l] is replica 0's frontier
	// when it last crossed a snapshot boundary (what its snapshot covers).
	var frontier [n][n]atomic.Uint64
	var slot [n]atomic.Uint64
	var boundary [n]atomic.Uint64
	start := func(id types.NodeID) *autobahn.Replica {
		t.Helper()
		r, err := autobahn.NewReplica(id, addrs, autobahn.Options{
			N:             n,
			MaxBatchDelay: 10 * time.Millisecond,
			ViewTimeout:   2 * time.Second,
			Execution:     true,
			SnapshotEvery: snapEvery,
			WALPath:       filepath.Join(dir, fmt.Sprintf("r%d.wal", id)),
		}, log.New(os.Stderr, fmt.Sprintf("r%d ", id), 0))
		if err != nil {
			t.Fatal(err)
		}
		r.SetCommitObserver(func(c autobahn.Committed) {
			oracle.Record(id, c.Lane, c.Position, c.Batch.Digest(), c.AppHash)
			if id == 0 && uint64(c.Slot)/uint64(snapEvery) > slot[0].Load()/uint64(snapEvery) {
				for l := range boundary {
					boundary[l].Store(frontier[0][l].Load())
				}
			}
			frontier[id][c.Lane].Store(uint64(c.Position))
			slot[id].Store(uint64(c.Slot))
		})
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	replicas := make([]*autobahn.Replica, n)
	for i := range replicas {
		replicas[i] = start(types.NodeID(i))
	}
	stop := func() { // Replica.Stop is idempotent
		for _, r := range replicas {
			r.Stop()
		}
	}
	defer stop()

	// Open-loop load on the loaded lanes until told to stop.
	loadStart := time.Now()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for k := uint64(0); ; k++ {
			select {
			case <-quit:
				return
			case <-tick.C:
				for _, l := range loaded {
					tx := make([]byte, 64)
					binary.LittleEndian.PutUint64(tx, k)
					tx[8] = byte(l)
					replicas[l].Submit(tx)
				}
			}
		}
	}()
	stopLoad := func() { close(quit); <-done }
	waitFor := func(what string, limit time.Duration, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(limit); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				stopLoad()
				t.Fatalf("timed out waiting for %s (slots %d %d %d %d)", what,
					slot[0].Load(), slot[1].Load(), slot[2].Load(), slot[3].Load())
			}
		}
	}

	// Stop the victim as late as it can stop and still miss more than
	// 2 x gcMargin positions per loaded lane before the first snapshot
	// boundary. While it is down, every n-th slot waits out a peer's view
	// timeout T, so a slot carries the positions per slot seen so far
	// plus T/n seconds' worth of the lane's positions per second. The
	// estimate aims at 3 x gcMargin, half again over what the check below
	// needs, for its own error; a fixed 2 s timer with the victim stopped
	// 10 slots short opened about 300.
	waitFor("the run-up to the first snapshot boundary", 60*time.Second, func() bool {
		s := slot[victim].Load()
		if s < warmUp {
			return false
		}
		if s+1 >= uint64(snapEvery) {
			return true
		}
		timeout := replicas[0].Node().Engine().BaseViewTimeout().Seconds()
		for _, l := range loaded {
			pos := float64(frontier[victim][l].Load())
			perSlot := pos/float64(s) + pos/time.Since(loadStart).Seconds()*timeout/n
			if float64(uint64(snapEvery)-s-1)*perSlot >= 3*float64(gcMargin) {
				return false
			}
		}
		return true
	})
	replicas[victim].Stop()
	stopped := slot[victim].Load()
	if stopped >= uint64(snapEvery) {
		stopLoad()
		t.Skipf("victim stopped at slot %d, past the boundary at %d: machine too slow to place the crash", stopped, snapEvery)
	}

	// Hold it down until the peers have checkpointed: their truncation
	// line (frontier at the boundary minus the margin) must then lie above
	// the victim's frontier on every loaded lane.
	waitFor("the peers to cross the snapshot boundary", 60*time.Second, func() bool {
		return slot[0].Load() >= uint64(snapEvery)+2
	})
	depth := uint64(1) << 63
	for _, l := range loaded {
		line, at := boundary[l].Load(), frontier[victim][l].Load()
		depth = min(depth, line-min(line, at))
		if line <= at+uint64(gcMargin) {
			stopLoad()
			t.Skipf("lane %d: peers checkpointed at position %d, victim stopped at %d: machine too slow to open a hole of %d",
				l, line, at, gcMargin)
		}
	}
	behind := slot[0].Load() - stopped
	oracle.NoteRecovery(victim)
	replicas[victim] = start(victim)
	restarted := time.Now()

	// It must be level with the others inside 5 s, and stay level. (Under
	// the race detector verifying the cars it missed takes that long by
	// itself; the stuck replica this guards against never arrived at all.)
	limit := 5 * time.Second
	if autobahn.RaceDetector {
		limit = 15 * time.Second
	}
	waitFor("the restarted replica to catch up", limit, func() bool {
		return slot[victim].Load()+2 >= slot[0].Load()
	})
	t.Logf("stopped at slot %d, %d positions per loaded lane beneath the boundary, restarted %d slots behind (< %d), level after %v; %d snapshot install(s)",
		stopped, depth, behind, 2*snapEvery, time.Since(restarted).Round(time.Millisecond),
		replicas[victim].Node().Stats().SnapshotsInstalled)
	time.Sleep(500 * time.Millisecond)
	stopLoad()
	waitFor("the replicas to settle on one frontier", 10*time.Second, func() bool {
		time.Sleep(200 * time.Millisecond)
		s := slot[0].Load()
		return slot[1].Load() == s && slot[2].Load() == s && slot[victim].Load() == s
	})
	stop()

	// Stopped replicas are quiescent: lane state can be read directly. The
	// victim must have voted its way up every loaded lane again.
	for _, l := range loaded {
		tip := replicas[l].Node().Lanes().VotedPos(l)
		if voted := replicas[victim].Node().Lanes().VotedPos(l); voted+2 < tip {
			t.Errorf("lane %d: restarted replica voted up to position %d, lane tip is %d", l, voted, tip)
		}
	}
	if v := oracle.Violation(); v != "" {
		t.Fatalf("safety oracle: %s", v)
	}
}
