// Command autobahn-node runs one Autobahn replica over TCP. Peers are
// configured with a comma-separated address list ordered by replica ID;
// clients reach the replica through its gateway (-gateway, the framed
// client protocol of internal/gateway: submission windows, dedup,
// admission control, commit acks — autobahn-client speaks it).
//
// With -wal, the replica journals its safety-critical protocol state to
// a write-ahead log (the RocksDB substitute) before externalizing it: a
// killed process restarted with the same -wal path recovers its voting
// state and committed frontier, so it never contradicts a pre-crash vote
// and rejoins the cluster seamlessly. Every committed batch payload is
// additionally appended to <wal>.commits, and a stats line summarizes the
// replica once a second.
//
// Example 4-replica deployment on one machine:
//
//	for i in 0 1 2 3; do
//	  autobahn-node -id $i \
//	    -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 \
//	    -gateway 127.0.0.1:800$i -wal /tmp/autobahn-$i.wal &
//	done
//	autobahn-client -to 127.0.0.1:8000 -rate 1000 -duration 10s
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof exposes the default mux's profiles
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
)

func main() {
	id := flag.Int("id", 0, "this replica's ID (0-based, ordered as in -peers)")
	peers := flag.String("peers", "", "comma-separated replica addresses ordered by ID")
	walPath := flag.String("wal", "", "write-ahead log path for crash-restart recovery; committed batches go to <path>.commits (optional)")
	timeout := flag.Duration("view-timeout", time.Second, "ceiling of the adaptive view timer: the base view timeout follows this replica's decide latency (4 x p99, at least 140ms) and never exceeds this")
	quiet := flag.Bool("quiet", false, "suppress the once-a-second stats line")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof live profiling, e.g. 127.0.0.1:6060 (optional)")
	shards := flag.Int("shards", 0, "data-plane worker shards: lane traffic parallelism (0 = auto: one per core up to committee size, 1 = single-threaded)")
	stallTimeout := flag.Duration("stall-timeout", 10*time.Second, "tear down and redial peer connections that accept but make no progress for this long (0 disables the stall detector)")
	gatewayAddr := flag.String("gateway", "", "client gateway listen address: per-client windows, dedup, admission control, commit acks (optional; autobahn-client connects here)")
	execOn := flag.Bool("exec", false, "run the deterministic execution layer over the committed stream (commits carry a cross-checkable AppHash)")
	snapEvery := flag.Uint64("snapshot-every", 0, "checkpoint execution state every N slots, truncate the WAL and batch log beneath it, and serve snapshot-based state sync to amnesiac peers (implies -exec; snapshot persists at <wal>.snap)")
	flag.Parse()
	if *snapEvery > 0 {
		*execOn = true
	}

	addrList := strings.Split(*peers, ",")
	if len(addrList) < 4 || (len(addrList)-1)%3 != 0 {
		log.Fatalf("need 3f+1 peer addresses, got %d", len(addrList))
	}
	if *id < 0 || *id >= len(addrList) {
		log.Fatalf("id %d out of range for %d peers", *id, len(addrList))
	}
	addrs := make(map[types.NodeID]string, len(addrList))
	for i, a := range addrList {
		addrs[types.NodeID(i)] = strings.TrimSpace(a)
	}

	logger := log.New(os.Stderr, fmt.Sprintf("r%d ", *id), log.Ltime|log.Lmicroseconds)
	replica, err := autobahn.NewReplica(types.NodeID(*id), addrs, autobahn.Options{
		N:             len(addrList),
		ViewTimeout:   *timeout,
		WALPath:       *walPath,
		DataShards:    *shards,
		StallTimeout:  *stallTimeout,
		GatewayAddr:   *gatewayAddr,
		Execution:     *execOn,
		SnapshotEvery: types.Slot(*snapEvery),
	}, logger)
	if err != nil {
		log.Fatal(err)
	}

	var wal *storage.Store
	if *walPath != "" {
		// The protocol journal lives at -wal (opened by the replica);
		// committed batch payloads are logged separately alongside it.
		wal, err = storage.Open(*walPath + ".commits")
		if err != nil {
			log.Fatal(err)
		}
		defer wal.Close()
	}

	// The observer is the replica's one commit stream and never drops, so
	// the batch log records every commit. It runs on the replica's event
	// loop: it only counts and appends (a buffered write); pruning and the
	// stats line run on the ticker below.
	var committedTx, committedBatches, lastSlot atomic.Uint64
	replica.SetCommitObserver(func(c autobahn.Committed) {
		committedBatches.Add(1)
		committedTx.Add(uint64(c.Batch.Count))
		lastSlot.Store(uint64(c.Slot))
		if wal == nil {
			return
		}
		key := make([]byte, 18)
		binary.LittleEndian.PutUint64(key, uint64(c.Slot))
		binary.LittleEndian.PutUint16(key[8:], uint16(c.Lane))
		binary.LittleEndian.PutUint64(key[10:], uint64(c.Position))
		var val []byte
		for _, tx := range c.Batch.Txs {
			val = binary.LittleEndian.AppendUint32(val, uint32(len(tx)))
			val = append(val, tx...)
		}
		if err := wal.Put(key, val); err != nil {
			logger.Printf("wal: %v", err)
		}
	})

	if err := replica.Start(); err != nil {
		log.Fatal(err)
	}
	// A journal barrier failure is unrecoverable: the replica has already
	// halted itself (un-journaled state must never externalize) — exit
	// loudly so the operator restarts the process against the durable WAL.
	go func() {
		err := <-replica.Fatal()
		logger.Fatalf("replica halted: journal failure: %v (restart with the same -wal to recover)", err)
	}()
	logger.Printf("replica %d listening on %s (committee of %d)", *id, addrs[types.NodeID(*id)], len(addrList))

	if *pprofAddr != "" {
		go func() {
			logger.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
	}

	// Once a second, whether or not anything committed: a wedged replica
	// keeps reporting exactly while it is stuck.
	var prunedBelow types.Slot
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for range tick.C {
		// The snapshot subsumes batches beneath its frontier: prune the
		// batch log in step with the replica's own truncation so the whole
		// on-disk footprint — not just the protocol WAL — stays bounded.
		// Every commit beneath the frontier was logged before the snapshot
		// was taken. The frontier gauge is atomic, safe to poll here.
		if wal != nil {
			if frontier := types.Slot(replica.Node().Stats().SnapshotFrontier); frontier > prunedBelow {
				pruneCommits(wal, frontier, logger)
				prunedBelow = frontier
			}
			// The process ends by signal, never through the deferred
			// Close: flush so the log on disk trails by at most a second.
			if err := wal.Flush(); err != nil {
				logger.Printf("wal: %v", err)
			}
		}
		if *quiet {
			continue
		}
		var egress metrics.TransportSnapshot
		for _, s := range replica.TransportStats() {
			egress.Add(s)
		}
		loop := replica.LoopStats()
		node := replica.Node().Stats()
		var gw string
		if g := replica.Gateway(); g != nil {
			s := g.Stats()
			gw = fmt.Sprintf("; gateway %d admitted/%d rejected/%d deduped, %d acked (mean %s), %d ack-drops",
				s.Admitted, s.Rejected(), s.Deduped, s.Acked, s.AckLatencyMean.Round(time.Microsecond), s.AckDrops)
		}
		eng := replica.Node().Engine()
		starts := eng.StartCounts()
		logger.Printf("committed %d txs in %d batches (slot %d); starts %d covered/%d lowered/%d backstop; view timeout %s; egress ctl %d frames/%d flushes, data %d frames/%d flushes, %d drops; ingress %d ctl/%d shard events, %d drops; links %d dials/%d redials/%d stalls; sync %d requests (%d retries), %d B received, %d B redundant, %d unservable%s",
			committedTx.Load(), committedBatches.Load(), lastSlot.Load(),
			starts.Covered, starts.Lowered, starts.Backstop, eng.BaseViewTimeout().Round(time.Millisecond),
			egress.Control.Frames, egress.Control.Flushes,
			egress.Data.Frames, egress.Data.Flushes,
			egress.Control.Drops+egress.Data.Drops,
			loop.ControlEvents, loop.ShardEvents,
			loop.InboxDrops+loop.ShardDrops,
			loop.PeerDials, loop.PeerRedials, loop.PeerStalls,
			node.SyncRequestsSent, node.SyncRetries, node.SyncBytesReceived, node.DataBytesRedundant, node.HistoryUnservable, gw)
	}
}

// pruneCommits deletes batch-log records for slots beneath the snapshot
// frontier and compacts the store so the file actually shrinks. Keys are
// collected under Range and sorted before deletion: deterministic delete
// order, and no mutation while iterating.
func pruneCommits(wal *storage.Store, below types.Slot, logger *log.Logger) {
	var doomed [][]byte
	wal.Range(func(key, _ []byte) bool {
		if len(key) == 18 && types.Slot(binary.LittleEndian.Uint64(key)) < below {
			doomed = append(doomed, append([]byte(nil), key...))
		}
		return true
	})
	if len(doomed) == 0 {
		return
	}
	sort.Slice(doomed, func(i, j int) bool { return bytes.Compare(doomed[i], doomed[j]) < 0 })
	for _, key := range doomed {
		if err := wal.Delete(key); err != nil {
			logger.Printf("batch-log prune: %v", err)
			return
		}
	}
	if err := wal.Compact(); err != nil {
		logger.Printf("batch-log compact: %v", err)
		return
	}
	logger.Printf("batch log pruned below slot %d (%d records)", below, len(doomed))
}
