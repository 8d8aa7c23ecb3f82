package autobahn

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/types"
)

// waitGoroutines polls until the process goroutine count drops to max,
// dumping stacks on timeout. Regression check for the flush-loop leak:
// Stop used to leave the ticker loop running forever, submitting batches
// to a stopped mesh.
func waitGoroutines(t *testing.T, max int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= max {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", goruntime.NumGoroutine(), max, buf[:n])
}

func TestLiveClusterStopTerminatesFlushLoop(t *testing.T) {
	base := goruntime.NumGoroutine()
	lc, err := NewLiveCluster(Options{N: 4, MaxBatchDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	feed := replicaFeed(lc, 0)
	lc.Start()
	if err := lc.Submit(0, []byte("leak-probe")); err != nil {
		t.Fatal(err)
	}
	if !feed.await(10*time.Second, func(Committed) bool { return true }) {
		t.Fatal("no commit before stop")
	}
	lc.Stop()
	lc.Stop() // idempotent
	waitGoroutines(t, base+2)
}

func TestReplicaStopTerminatesFlushLoop(t *testing.T) {
	base := goruntime.NumGoroutine()
	addrs := freeAddrs(t, 4)
	// Start only replica 0: the leak is in its own flush loop, no quorum
	// needed.
	r, err := NewReplica(0, addrs, Options{N: 4, MaxBatchDelay: 10 * time.Millisecond},
		log.New(os.Stderr, "r0 ", 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Submit([]byte("leak-probe"))
	time.Sleep(50 * time.Millisecond) // let the flush ticker run
	r.Stop()
	r.Stop() // idempotent
	waitGoroutines(t, base+2)
}

// freeAddrs reserves n distinct localhost ports.
func freeAddrs(t *testing.T, n int) map[types.NodeID]string {
	t.Helper()
	addrs := make(map[types.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[types.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestReplicaRestartRecoversFromWAL is the real-runtime recovery path:
// a 4-replica TCP deployment commits traffic, one replica's process
// stops and is rebuilt from its -wal journal, and it rejoins — resuming
// from its committed frontier and committing new slots with its peers.
func TestReplicaRestartRecoversFromWAL(t *testing.T) {
	// Single-threaded data plane and the sharded one (4 workers per
	// replica): crash-restart recovery must hold in both, and the sharded
	// run additionally exercises per-shard group commit + concurrent
	// journal appends under -race.
	t.Run("shards=1", func(t *testing.T) { testReplicaRestartRecoversFromWAL(t, 1) })
	t.Run("shards=4", func(t *testing.T) { testReplicaRestartRecoversFromWAL(t, 4) })
}

func testReplicaRestartRecoversFromWAL(t *testing.T, shards int) {
	if testing.Short() {
		t.Skip("TCP e2e")
	}
	addrs := freeAddrs(t, 4)
	dir := t.TempDir()
	opts := func(id int) Options {
		return Options{
			N:             4,
			MaxBatchDelay: 20 * time.Millisecond,
			WALPath:       filepath.Join(dir, fmt.Sprintf("r%d.wal", id)),
			DataShards:    shards,
		}
	}
	replicas := make([]*Replica, 4)
	feeds := make([]*commitFeed, 4)
	for i := range replicas {
		r, err := NewReplica(types.NodeID(i), addrs, opts(i), log.New(os.Stderr, fmt.Sprintf("r%d ", i), 0))
		if err != nil {
			t.Fatal(err)
		}
		feeds[i] = newCommitFeed()
		r.SetCommitObserver(feeds[i].observe)
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		replicas[i] = r
	}
	defer func() {
		for _, r := range replicas {
			r.Stop()
		}
	}()

	submit := func(tag string, n int) {
		for i := 0; i < n; i++ {
			replicas[0].Submit([]byte(fmt.Sprintf("%s-%04d", tag, i)))
		}
	}
	// awaitCommits drains replica `id`'s commit stream until it has seen
	// `want` transactions with the given tag, returning the highest slot.
	awaitCommits := func(id int, tag string, want int) types.Slot {
		t.Helper()
		var maxSlot types.Slot
		got := 0
		if !feeds[id].await(30*time.Second, func(c Committed) bool {
			if c.Slot > maxSlot {
				maxSlot = c.Slot
			}
			for _, tx := range c.Batch.Txs {
				if len(tx) > len(tag) && string(tx[:len(tag)]) == tag {
					got++
				}
			}
			return got >= want
		}) {
			t.Fatalf("replica %d committed only %d/%d %q txs", id, got, want, tag)
		}
		return maxSlot
	}

	submit("pre", 100)
	preSlot := awaitCommits(3, "pre", 100)

	// Crash replica 3 and rebuild its process from the same WAL.
	replicas[3].Stop()
	r3, err := NewReplica(3, addrs, opts(3), log.New(os.Stderr, "r3' ", 0))
	if err != nil {
		t.Fatal(err)
	}
	feeds[3] = newCommitFeed()
	r3.SetCommitObserver(feeds[3].observe)
	if err := r3.Start(); err != nil {
		t.Fatal(err)
	}
	replicas[3] = r3

	submit("post", 100)
	postSlot := awaitCommits(3, "post", 100)
	if postSlot <= preSlot {
		t.Fatalf("restarted replica did not advance: pre-crash slot %d, post-restart slot %d", preSlot, postSlot)
	}
	t.Logf("replica 3 resumed: pre-crash slot %d, post-restart slot %d", preSlot, postSlot)
}
