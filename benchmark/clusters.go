package main

import (
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

const txBytes = 512

var liveSpecs = map[string]liveSpec{
	"tcp_bulk":       {name: "tcp_bulk", rate: 50000, txSize: txBytes, n: 4, victim: 3, build: buildBulk},
	"tcp_gateway":    {name: "tcp_gateway", rate: 20000, txSize: txBytes, n: 4, victim: 3, ackBased: true, build: buildGateway},
	"live_committee": {name: "live_committee", rate: 4000, txSize: txBytes, n: 10, victim: 9, build: buildCommittee},
}

var quiet = log.New(io.Discard, "", 0)

// destinations picks the replica each transaction goes to. Independent
// users do not take turns: with round-robin every replica reaches its batch
// cap within microseconds of the others, the lanes run in lockstep, and
// which of two lockstep patterns a run falls into moved commit_p50_ms by
// 2 ms. A seeded choice lets the lanes drift against each other.
func destinations(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x64657374)) }

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) (map[types.NodeID]string, error) {
	addrs := make(map[types.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[types.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// nodeCounters adds one replica's protocol counters. Replica 0's ordered
// transactions and decided slots are kept apart: they count the one
// commit stream the workload measures.
func nodeCounters(c counters, id types.NodeID, nd *core.Node) {
	s := nd.Stats()
	c["core.cars"] += float64(s.BatchesProposed)
	c["core.votes"] += float64(s.VotesSent)
	c["core.timeouts"] += float64(s.TimeoutsSent)
	c["fetch.sync_requests"] += float64(s.SyncRequestsSent)
	c["fetch.sync_replies_served"] += float64(s.SyncRepliesServed)
	c["fetch.snapshots_installed"] += float64(s.SnapshotsInstalled)
	if id == 0 {
		c["core.slots0"] += float64(s.SlotsDecided)
		c["core.tx_ordered0"] += float64(s.TxOrdered)
	}
	h, m := nd.CertCacheStats()
	c["crypto.cert_hits"] += float64(h)
	c["crypto.cert_misses"] += float64(m)
	h, m = nd.PreVerifyStats()
	c["crypto.pre_hits"] += float64(h)
	c["crypto.pre_misses"] += float64(m)
}

func loopCounters(c counters, s metrics.LoopSnapshot) {
	c["transport.control_events"] += float64(s.ControlEvents)
	c["transport.shard_events"] += float64(s.ShardEvents)
	c["transport.inbox_drops"] += float64(s.InboxDrops + s.ShardDrops)
	c["transport.redials"] += float64(s.PeerRedials)
	c["transport.stalls"] += float64(s.PeerStalls)
}

// fastCommitRatio reads, from a stopped node, the share of its retained
// decided slots (the engine keeps the last 256) that took the fast path.
func fastCommitRatio(nd *core.Node) float64 {
	eng := nd.Engine()
	var fast, all float64
	for s := eng.MaxDecided(); s > 0; s-- {
		qc := eng.CommitQCFor(s)
		if qc == nil {
			break
		}
		all++
		if qc.Fast {
			fast++
		}
	}
	return ratio(fast, all)
}

// tcpCluster is n replicas on loopback TCP. Replicas that were stopped
// and replaced stay in retired so their counters still add up.
type tcpCluster struct {
	addrs    map[types.NodeID]string
	opts     func(id types.NodeID) autobahn.Options
	run      *liveRun
	replicas []*autobahn.Replica
	retired  []*autobahn.Replica
	// lastOpen is how long the latest NewReplica took (WAL replay).
	lastOpen time.Duration
}

func startTCP(n int, run *liveRun, opts func(id types.NodeID) autobahn.Options) (*tcpCluster, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	t := &tcpCluster{addrs: addrs, opts: opts, run: run}
	for i := 0; i < n; i++ {
		if err := t.start(types.NodeID(i)); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

func (t *tcpCluster) start(id types.NodeID) error {
	t0 := time.Now()
	r, err := autobahn.NewReplica(id, t.addrs, t.opts(id), quiet)
	if err != nil {
		return err
	}
	t.lastOpen = time.Since(t0)
	r.SetCommitObserver(t.run.observe(id))
	if err := r.Start(); err != nil {
		r.Stop()
		return err
	}
	if int(id) < len(t.replicas) {
		t.replicas[id] = r
	} else {
		t.replicas = append(t.replicas, r)
	}
	return nil
}

func (t *tcpCluster) stop() {
	for _, r := range t.replicas {
		r.Stop()
	}
}

func (t *tcpCluster) counters() counters {
	c := make(counters)
	each := func(r *autobahn.Replica, id types.NodeID) {
		nodeCounters(c, id, r.Node())
		loopCounters(c, r.LoopStats())
		for _, p := range r.TransportStats() {
			c["transport.control_frames"] += float64(p.Control.Frames)
			c["transport.data_frames"] += float64(p.Data.Frames)
			c["transport.flushes"] += float64(p.Control.Flushes + p.Data.Flushes)
			c["transport.control_bytes"] += float64(p.Control.Bytes)
			c["transport.data_bytes"] += float64(p.Data.Bytes)
			c["transport.egress_drops"] += float64(p.Control.Drops + p.Data.Drops)
		}
		if gw := r.Gateway(); gw != nil {
			s := gw.Stats()
			c["gateway.admitted"] += float64(s.Admitted)
			c["gateway.rejected"] += float64(s.Rejected())
			c["gateway.deduped"] += float64(s.Deduped)
			c["gateway.ack_drops"] += float64(s.AckDrops)
			c["gateway.chain_dups"] += float64(s.ChainDups)
			c["gateway.acked"] += float64(s.Acked)
			c["gateway.ack_lat_ns"] += float64(s.AckLatencyMean) * float64(s.Acked)
		}
	}
	for i, r := range t.replicas {
		each(r, types.NodeID(i))
	}
	for _, r := range t.retired {
		each(r, t.run.spec.victim)
	}
	return c
}

// buildBulk: the data plane alone. The fault cuts replica 3 off the
// network in both directions and then restores it.
//
// Batches seal at 200 transactions, every 16 ms at this rate, so the 20 ms
// delay trigger stays a backstop. With the default cap the delay trigger
// seals every batch, one flush tick (10 ms) after it falls due, and a
// transaction arrives every 80 us: whether a batch takes 20 or 30 ms then
// hangs on 80 us of ticker jitter, and commit_p50_ms moved between 26 and
// 30 ms from run to run.
func buildBulk(seed uint64, _ string, run *liveRun) (*liveCluster, error) {
	n, victim := run.spec.n, run.spec.victim
	faults := make([]*transport.LinkFaults, n)
	for i := range faults {
		faults[i] = transport.NewLinkFaults(seed + uint64(i))
	}
	t, err := startTCP(n, run, func(id types.NodeID) autobahn.Options {
		return autobahn.Options{
			N: n, Seed: seed, MaxBatchTxs: 200, MaxBatchDelay: 20 * time.Millisecond, LinkFaults: faults[id],
		}
	})
	if err != nil {
		return nil, err
	}
	pick := destinations(seed)
	cut := func(r transport.LinkRule) {
		for i, f := range faults {
			if types.NodeID(i) == victim {
				f.SetAll(r)
				continue
			}
			f.SetRule(victim, transport.PlaneControl, r)
			f.SetRule(victim, transport.PlaneData, r)
		}
	}
	return &liveCluster{
		submit: []func(int64, []byte) error{func(k int64, tx []byte) error {
			t.replicas[pick.IntN(n)].Submit(tx)
			return nil
		}},
		probe:    func(tx []byte) error { t.replicas[0].Submit(tx); return nil },
		inject:   func() error { cut(transport.LinkRule{DropP: 1}); return nil },
		heal:     func() error { cut(transport.LinkRule{}); return nil },
		counters: t.counters,
		stop:     t.stop,
		finish: func(m counters) {
			m["consensus.fast_commit_ratio"] = fastCommitRatio(t.replicas[0].Node())
		},
	}, nil
}

// buildGateway: every tier. Clients talk to gateways on replicas 0 and
// 1; the fault stops replica 3's process and restarts it from its WAL.
func buildGateway(seed uint64, dir string, run *liveRun) (*liveCluster, error) {
	n, victim := run.spec.n, run.spec.victim
	wal := func(id types.NodeID) string { return filepath.Join(dir, fmt.Sprintf("r%d.wal", id)) }
	// Sized so that nothing is ever refused at this rate, even while a
	// view change holds every in-flight transaction back.
	gw := gateway.Options{
		Window: 1 << 17, MaxOutstanding: 1 << 20, AckQueue: 1 << 17,
		MaxMempoolTxs: 1 << 20, MaxLaneDepth: 1 << 16,
	}
	t, err := startTCP(n, run, func(id types.NodeID) autobahn.Options {
		o := autobahn.Options{
			N: n, Seed: seed, MaxBatchDelay: 5 * time.Millisecond,
			WALPath: wal(id), WALSyncEvery: 0, // fsync on a shared disk is noise
			Execution: true, SnapshotEvery: 200,
		}
		if id < 2 {
			o.GatewayAddr, o.Gateway = "127.0.0.1:0", gw
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	const clients = 2
	perClient := run.log.sched.total/clients + 3
	run.seqK = make([][]atomic.Int64, clients)
	cls := make([]*gateway.Client, clients)
	stop := func() {
		for _, c := range cls {
			if c != nil {
				c.Close()
			}
		}
		t.stop()
	}
	lc := &liveCluster{counters: t.counters, stop: stop}
	for g := 0; g < clients; g++ {
		run.seqK[g] = make([]atomic.Int64, perClient)
		c, err := gateway.Dial(t.replicas[g].Gateway().Addr(), gateway.ClientOptions{
			ID: seed<<8 | uint64(g+1), Window: gw.Window, Priority: gateway.PriorityNormal,
			MaxAttempts: 1, OnOutcome: run.outcome(g),
		})
		if err != nil {
			stop()
			return nil, err
		}
		cls[g] = c
		seqK, next := run.seqK[g], uint64(2) // sequence 1 is the probe
		lc.submit = append(lc.submit, func(k int64, tx []byte) error {
			seqK[next].Store(k)
			if _, err := c.Submit(tx); err != nil {
				return err
			}
			next++
			return nil
		})
	}
	lc.probe = func(tx []byte) error {
		for _, c := range cls {
			if _, err := c.Submit(tx); err != nil {
				return err
			}
		}
		return nil
	}
	lc.inject = func() error {
		run.oracle.NoteRecovery(victim)
		t.retired = append(t.retired, t.replicas[victim])
		t.replicas[victim].Stop()
		return nil
	}
	lc.heal = func() error { return t.start(victim) }
	lc.finish = func(m counters) {
		m["consensus.fast_commit_ratio"] = fastCommitRatio(t.replicas[0].Node())
		m["storage.reopen_ms"] = float64(t.lastOpen) / 1e6
		for i := 0; i < n; i++ {
			if st, err := os.Stat(wal(types.NodeID(i))); err == nil {
				m["storage.wal_bytes"] += float64(st.Size())
			}
		}
		if st, err := os.Stat(wal(0) + ".snap"); err == nil {
			m["storage.snapshot_bytes"] = float64(st.Size())
		}
	}
	return lc, nil
}

// buildCommittee: ten replicas in one process with real signatures. The
// fault makes replica 9 deaf (nothing reaches it) and then restores it.
func buildCommittee(seed uint64, _ string, run *liveRun) (*liveCluster, error) {
	n, victim := run.spec.n, run.spec.victim
	faults := transport.NewLinkFaults(seed)
	c, err := autobahn.NewLiveCluster(autobahn.Options{
		N: n, Seed: seed, MaxBatchDelay: 50 * time.Millisecond, LinkFaults: faults,
	})
	if err != nil {
		return nil, err
	}
	obs := make([]func(autobahn.Committed), n)
	for i := range obs {
		obs[i] = run.observe(types.NodeID(i))
	}
	c.SetCommitObserver(func(cm autobahn.Committed) { obs[cm.Replica](cm) })
	c.Start()
	pick := destinations(seed)
	deafen := func(r transport.LinkRule) {
		faults.SetRule(victim, transport.PlaneControl, r)
		faults.SetRule(victim, transport.PlaneData, r)
	}
	return &liveCluster{
		submit: []func(int64, []byte) error{func(k int64, tx []byte) error {
			return c.Submit(types.NodeID(pick.IntN(n)), tx)
		}},
		probe:  func(tx []byte) error { return c.Submit(0, tx) },
		inject: func() error { deafen(transport.LinkRule{DropP: 1}); return nil },
		heal:   func() error { deafen(transport.LinkRule{}); return nil },
		counters: func() counters {
			m := make(counters)
			for i := 0; i < n; i++ {
				id := types.NodeID(i)
				nodeCounters(m, id, c.Node(id))
				loopCounters(m, c.LoopStats(id))
				ctl, data := c.PlaneBytes(id)
				m["transport.control_bytes"] += float64(ctl)
				m["transport.data_bytes"] += float64(data)
			}
			return m
		},
		stop: func() {
			c.Stop()
			// LiveCluster.Stop signals its loops without joining them.
			time.Sleep(100 * time.Millisecond)
		},
		finish: func(m counters) {
			m["consensus.fast_commit_ratio"] = fastCommitRatio(c.Node(0))
		},
	}, nil
}
