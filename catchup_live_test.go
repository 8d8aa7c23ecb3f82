package autobahn

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestLivePartitionCatchUp holds the data plane under shard workers to
// the same single-copy bound the simulator test
// (harness.TestBlipCatchUpSingleCopy) holds it to delivered inline: the
// handlers are the same, what differs is that here a reply's syncDone and
// the burst's lane notice cross goroutines, and this test is what notices
// if that reorders them. A replica of an in-process cluster is cut off from
// everything sent to it for 1.5 s under load; once the link is back it
// must catch up with what it missed crossing its ingest path once.
//
// Wall-clock caveat: a request that goes unanswered for RetryAfter
// (300 ms) is re-issued, and both answers then arrive. In-process
// replies take milliseconds, but on a machine starved hard enough (the
// whole suite under -race on two cores) they can take longer; such a run
// says nothing about the scheduling rule, is recognizable by its
// SyncRetries, and is repeated.
func TestLivePartitionCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster e2e")
	}
	for attempt := 1; attempt <= 3; attempt++ {
		st := livePartitionCatchUp(t)
		t.Logf("attempt %d: victim sent %d sync requests (%d retries), synced %d B, %d B redundant",
			attempt, st.SyncRequestsSent, st.SyncRetries, st.SyncBytesReceived, st.DataBytesRedundant)
		if st.SyncRetries > 0 {
			continue
		}
		if st.SyncBytesReceived < 1<<20 {
			t.Fatalf("the victim synced only %d B: the cut did not open a gap", st.SyncBytesReceived)
		}
		if st.DataBytesRedundant*10 > st.SyncBytesReceived {
			t.Fatalf("redundant %d B > 10%% of the %d B synced with no request timed out: some car crossed the ingest path twice",
				st.DataBytesRedundant, st.SyncBytesReceived)
		}
		return
	}
	t.Skip("every attempt had sync requests time out: this machine is too slow to tell a second copy from a retry")
}

// livePartitionCatchUp runs the scenario once and returns the victim's
// counters after it has caught up.
func livePartitionCatchUp(t *testing.T) core.Stats {
	const (
		n      = 4
		victim = types.NodeID(3)
		txSize = 2048
		every  = 500 * time.Microsecond // 2k tx/s: a few MB missed in 1.5 s
	)
	faults := transport.NewLinkFaults(13)
	lc, err := NewLiveCluster(Options{
		N: n, Seed: 13, DataShards: 2, MaxBatchDelay: 25 * time.Millisecond, LinkFaults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	var slots [n]atomic.Uint64
	lc.SetCommitObserver(func(c Committed) { slots[c.Replica].Store(uint64(c.Slot)) })
	lc.Start()
	defer lc.Stop()

	// Open-loop load over every replica's lane until told to stop.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for k := uint64(0); ; k++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				tx := make([]byte, txSize)
				binary.LittleEndian.PutUint64(tx, k)
				if err := lc.Submit(types.NodeID(k%n), tx); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}
	}()
	cut := func(r transport.LinkRule) {
		faults.SetRule(victim, transport.PlaneControl, r)
		faults.SetRule(victim, transport.PlaneData, r)
	}
	time.Sleep(time.Second)
	cut(transport.LinkRule{DropP: 1})
	time.Sleep(1500 * time.Millisecond)
	cut(transport.LinkRule{})
	time.Sleep(2 * time.Second)
	close(stop)
	<-done

	// The victim must reach the others' frontier once the load has drained.
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, lead := slots[victim].Load(), slots[0].Load()
		if lead > 0 && v == lead {
			time.Sleep(300 * time.Millisecond)
			if slots[0].Load() == lead {
				return lc.Node(victim).Stats()
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim stuck at slot %d, replica 0 at %d", v, lead)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
