package autobahn

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

func TestLiveClusterCommitsTransactions(t *testing.T) {
	lc, err := NewLiveCluster(Options{N: 4, MaxBatchDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	feed := replicaFeed(lc, 0)
	lc.Start()
	defer lc.Stop()

	const txs = 400
	want := make(map[string]bool, txs)
	for i := 0; i < txs; i++ {
		tx := []byte(fmt.Sprintf("tx-%04d-payload", i))
		want[string(tx)] = true
		if err := lc.Submit(types.NodeID(i%4), tx); err != nil {
			t.Fatal(err)
		}
	}

	got := 0
	if !feed.await(15*time.Second, func(c Committed) bool {
		for _, tx := range c.Batch.Txs {
			if want[string(tx)] {
				delete(want, string(tx))
				got++
			}
		}
		return got == txs
	}) {
		t.Fatalf("timed out: committed %d of %d txs", got, txs)
	}
}

// TestLivePipelinePreVerifies asserts the staged ingress pipeline is
// actually in the live path: after committing traffic, the transport's
// pre-verification workers must have populated each replica's
// verified-signature memo, and the state machines' inline re-checks must
// have hit it (i.e. curve arithmetic came off the event loop).
// TestLiveClusterShardedCommits pins the parallel data plane end to
// end: 4 replicas, 4 data shards each (forced, regardless of host core
// count), real signatures, commits flowing. Under -race this covers the
// full shard↔control handoff: sharded lane ingestion, tip notices into
// the consensus engine, frontier messages back to the shards.
func TestLiveClusterShardedCommits(t *testing.T) {
	lc, err := NewLiveCluster(Options{N: 4, Seed: 3, DataShards: 4, MaxBatchDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	feed := replicaFeed(lc, 0)
	lc.Start()
	defer lc.Stop()

	const txs = 400
	for i := 0; i < txs; i++ {
		if err := lc.Submit(types.NodeID(i%4), []byte(fmt.Sprintf("sharded-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	if !feed.await(30*time.Second, func(c Committed) bool {
		got += int(c.Batch.Count)
		return got >= txs
	}) {
		t.Fatalf("committed only %d/%d transactions on the sharded cluster", got, txs)
	}
	// All four lanes must have progressed (submission was round-robin).
	for i := 0; i < 4; i++ {
		if pos := lc.Node(0).Orderer().LastCommit(types.NodeID(i)); pos == 0 {
			t.Fatalf("lane %d never committed", i)
		}
	}
}

func TestLivePipelinePreVerifies(t *testing.T) {
	lc, err := NewLiveCluster(Options{N: 4, MaxBatchDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	feed := replicaFeed(lc, 0)
	lc.Start()
	defer lc.Stop()

	for i := 0; i < 100; i++ {
		if err := lc.Submit(types.NodeID(i%4), []byte(fmt.Sprintf("pv-tx-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	if !feed.await(15*time.Second, func(c Committed) bool {
		got += len(c.Batch.Txs)
		return got >= 100
	}) {
		t.Fatalf("timed out: committed %d of 100 txs", got)
	}
	for i := 0; i < 4; i++ {
		hits, misses := lc.Node(types.NodeID(i)).PreVerifyStats()
		if misses == 0 {
			t.Fatalf("replica %d: memo never populated (pipeline not running)", i)
		}
		if hits == 0 {
			t.Fatalf("replica %d: inline checks never hit the memo (no trust hand-off)", i)
		}
		t.Logf("replica %d: memo hits=%d misses=%d", i, hits, misses)
	}
}

// TestLiveClusterRejectsBadCommittee: a committee that tolerates no
// fault, and options whose documented preconditions do not hold, fail
// at construction instead of being silently ignored — in every
// deployment style.
func TestLiveClusterRejectsBadCommittee(t *testing.T) {
	for name, o := range map[string]Options{
		"n=3 (tolerates no faults)":        {N: 3},
		"n=0":                              {N: 0},
		"snapshots without execution":      {N: 4, SnapshotEvery: 10},
		"WAL in an in-process cluster":     {N: 4, WALPath: "x.wal"},
		"gateway in an in-process cluster": {N: 4, GatewayAddr: "127.0.0.1:0"},
	} {
		if _, err := NewLiveCluster(o); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	addrs := map[types.NodeID]string{0: "a", 1: "b", 2: "c", 3: "d"}
	if _, err := NewReplica(0, addrs, Options{N: 4, WALFaults: &storage.FaultPlan{}}, nil); err == nil {
		t.Error("Replica: WALFaults without WALPath accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SimCluster: LinkFaults accepted (simulations schedule faults through SimOptions.Faults)")
			}
		}()
		NewSimCluster(SimOptions{Options: Options{N: 4, LinkFaults: transport.NewLinkFaults(1)}})
	}()
}

func TestSimClusterQuickstart(t *testing.T) {
	sc := NewSimCluster(SimOptions{Options: Options{N: 4}})
	sc.SubmitLoad(10_000, 512, 0, 5*time.Second)
	sc.Run(8 * time.Second)
	if total := sc.Recorder.Total(); total < 48_000 {
		t.Fatalf("committed %d of ~50000", total)
	}
	lat := sc.Recorder.MeanLatency(1*time.Second, 4*time.Second)
	if lat <= 0 || lat > time.Second {
		t.Fatalf("implausible latency %v", lat)
	}
	t.Logf("sim quickstart: total=%d lat=%v", sc.Recorder.Total(), lat)
}
