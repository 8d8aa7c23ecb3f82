package autobahn

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// TestLiveClusterThroughputPoint measures the in-process cluster's
// committed throughput under an unpaced single-goroutine submitter (the
// EXPERIMENTS.md "real-runtime throughput" point). It is a measurement,
// not a regression gate — run it explicitly:
//
//	AUTOBAHN_LIVE_TPUT=1 go test -run TestLiveClusterThroughputPoint -v .
//
// The loose assertion only catches collapse (commits falling far behind
// the submitter), so CI noise cannot flake it.
func TestLiveClusterThroughputPoint(t *testing.T) {
	if os.Getenv("AUTOBAHN_LIVE_TPUT") == "" {
		t.Skip("measurement run; set AUTOBAHN_LIVE_TPUT=1 to enable")
	}
	lc, err := NewLiveCluster(Options{N: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var counter atomic.Uint64
	lc.SetCommitObserver(func(c Committed) {
		if c.Replica == 0 {
			counter.Add(uint64(c.Batch.Count))
		}
	})
	lc.Start()
	const dur = 8 * time.Second
	start := time.Now()
	var sent uint64
	if os.Getenv("AUTOBAHN_LIVE_TPUT_BULK") != "" {
		// Bulk path: 64-tx bursts through SubmitMany.
		burst := make([][]byte, 64)
		for time.Since(start) < dur {
			for i := range burst {
				tx := make([]byte, 128)
				binary.LittleEndian.PutUint64(tx, sent+uint64(i))
				burst[i] = tx
			}
			if err := lc.SubmitMany(types.NodeID(sent%4), burst); err != nil {
				t.Fatal(err)
			}
			sent += uint64(len(burst))
		}
	} else {
		for time.Since(start) < dur {
			tx := make([]byte, 128)
			binary.LittleEndian.PutUint64(tx, sent)
			if err := lc.Submit(types.NodeID(sent%4), tx); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	// Count until replica 0 has committed nothing for 3 s: the backlog
	// the submitter left has drained.
	committed := counter.Load()
	for {
		time.Sleep(3 * time.Second)
		now := counter.Load()
		if now == committed {
			break
		}
		committed = now
	}
	lc.Stop()
	rate := float64(committed) / dur.Seconds()
	fmt.Printf("LiveCluster: %d submitted, %d committed in %v window (%.0f tx/s committed)\n",
		sent, committed, dur, rate)
	if committed < sent/2 {
		t.Fatalf("committed %d of %d submitted: cluster fell behind the submitter", committed, sent)
	}
}
