package autobahn

import (
	"encoding/binary"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// TestSkewedLoadSlotCadence is the live counterpart of
// harness.TestSimSkewedLoadCadence, on the sharded data plane: clients
// submit to replicas 0 and 1 only, so two of four lanes carry cars. Slots
// must follow those two lanes' car cadence — started by coverage, not
// released by the 50 ms coverageDelay backstop — which shows as a
// seal-to-commit median well under the backstop.
func TestSkewedLoadSlotCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster e2e")
	}
	const (
		n             = 4
		coverageDelay = 50 * time.Millisecond // consensus.Config default
		// One car per loaded lane every 40 ms: light enough that the race
		// detector's ~10x ed25519 does not saturate two cores and turn the
		// latency bound into a measurement of the detector.
		every  = 40 * time.Millisecond
		warmup = 500 * time.Millisecond
		run    = 4 * time.Second
	)
	lc, err := NewLiveCluster(Options{N: n, Seed: 19, DataShards: 2, MaxBatchDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Seal-to-commit at the origin replica: both stamps are on the
	// cluster's one clock.
	var mu sync.Mutex
	var sealToCommit []time.Duration
	lc.SetCommitObserver(func(c Committed) {
		if c.Replica == c.Lane && c.Batch.CreatedAt > warmup {
			mu.Lock()
			sealToCommit = append(sealToCommit, c.At-c.Batch.CreatedAt)
			mu.Unlock()
		}
	})
	lc.Start()
	defer lc.Stop()

	tick := time.NewTicker(every)
	defer tick.Stop()
	deadline := time.After(warmup + run)
load:
	for k := uint64(0); ; k++ {
		select {
		case <-deadline:
			break load
		case <-tick.C:
		}
		for to := types.NodeID(0); to < 2; to++ {
			tx := make([]byte, 64)
			binary.LittleEndian.PutUint64(tx, 2*k+uint64(to))
			if err := lc.Submit(to, tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(200 * time.Millisecond) // let the tail commit

	var covered, backstop uint64
	for i := 0; i < n; i++ {
		s := lc.Node(types.NodeID(i)).Engine().StartCounts()
		covered += s.Covered + s.Lowered
		backstop += s.Backstop
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sealToCommit) < 100 {
		t.Fatalf("only %d batches committed at their origin", len(sealToCommit))
	}
	sort.Slice(sealToCommit, func(i, j int) bool { return sealToCommit[i] < sealToCommit[j] })
	median := sealToCommit[len(sealToCommit)/2]
	t.Logf("%d slot starts covered, %d by backstop; seal-to-commit median %v over %d batches",
		covered, backstop, median, len(sealToCommit))
	if backstop*10 >= covered+backstop {
		t.Fatalf("backstop released %d of %d slot starts, want < 10%%", backstop, covered+backstop)
	}
	// Under the race detector the signature checks on one commit's critical
	// path take ~20 ms by themselves; the bound widens to the backstop
	// itself, which a slot that waited it out still cannot meet.
	bound := coverageDelay / 2
	if RaceDetector {
		bound = coverageDelay
	}
	if median >= bound {
		t.Fatalf("seal-to-commit median %v, want < %v (coverageDelay %v)", median, bound, coverageDelay)
	}
}
