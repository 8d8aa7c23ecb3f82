package autobahn

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
)

// LiveCluster runs an n-replica Autobahn deployment inside one process in
// real time: one event-loop goroutine per replica, channel transport,
// real ed25519 signatures. Submit transactions to any replica and consume
// the totally ordered commits through SetCommitObserver.
type LiveCluster struct {
	opts  Options
	mesh  *transport.LocalMesh
	pools []*mempool.Pool
	mu    []sync.Mutex // per-pool locks (Submit may be called concurrently)
	nodes []*core.Node

	// observer, when set (SetCommitObserver), receives every replica's
	// commits — the fault-matrix harness cross-checks replica logs against
	// each other through it.
	observer func(Committed)

	epoch   time.Time
	started bool
	done    chan struct{} // closed by Stop; terminates flushLoop
}

// SetCommitObserver registers fn to receive every replica's commits,
// each replica's in its total order (Committed.Replica says whose; all
// replicas agree by safety, so one replica's stream is the canonical
// log). It is the cluster's only commit stream and never drops. fn is
// called from replica event-loop goroutines; it must be set before Start
// and be fast and thread-safe.
func (c *LiveCluster) SetCommitObserver(fn func(Committed)) { c.observer = fn }

// NewLiveCluster builds (but does not start) an in-process cluster.
// Signatures are always verified in live mode.
func NewLiveCluster(o Options) (*LiveCluster, error) {
	if o.N < 1 || (o.N > 1 && o.N < 4) {
		return nil, fmt.Errorf("autobahn: committee size %d cannot tolerate any fault (need n >= 4)", o.N)
	}
	if err := o.validateAdversaries(); err != nil {
		return nil, err
	}
	o.VerifySignatures = true
	lc := &LiveCluster{
		opts:  o,
		mesh:  transport.NewLocalMesh(),
		epoch: time.Now(),
	}
	lc.mesh.Faults = o.LinkFaults
	suite := o.suite()
	sink := runtime.CommitSinkFunc(func(node types.NodeID, now time.Duration, cm runtime.Committed) {
		if obs := lc.observer; obs != nil {
			obs(Committed{
				Replica: node, Lane: cm.Lane, Position: cm.Position,
				Slot: cm.Slot, Batch: cm.Batch, AppHash: cm.AppHash, At: now,
			})
		}
	})
	for i := 0; i < o.N; i++ {
		id := types.NodeID(i)
		cfg := o.nodeConfig(id, suite, sink)
		if o.SnapshotEvery > 0 {
			// In-process replicas have no WAL; snapshots live in memory so
			// peers can still serve state sync within the process.
			cfg.Snapshots = &core.MemSnapshots{}
		}
		// Parallel data plane (auto-sized to the hardware): lane traffic
		// runs on per-shard workers, consensus stays serialized.
		cfg.Shards = o.dataShards()
		behavior := o.Adversaries[id]
		if behavior != "" {
			cfg.Shards = 1 // adversary wrappers are single-threaded
		}
		nd := core.NewNode(cfg)
		lc.nodes = append(lc.nodes, nd)
		// A Byzantine replica is the honest node behind the adversary
		// wrapper; it joins the mesh through the wrapper so its behavior
		// intercepts every outbound message.
		var proto runtime.Protocol = nd
		if behavior != "" {
			w, err := adversary.WrapNode(nd, o.committee(), id, suite.Signer(id), behavior, 0, 0)
			if err != nil {
				return nil, err
			}
			proto = w
		}
		// Nodes implement runtime.PreVerifier: each loop signature-checks
		// inbound messages on a parallel worker stage before delivery.
		lc.mesh.AddNode(proto, lc.epoch).SetVerifyWorkers(o.VerifyWorkers)
		lc.pools = append(lc.pools, mempool.NewPool(mempool.Config{
			Self:          types.NodeID(i),
			MaxBatchTxs:   o.MaxBatchTxs,
			MaxBatchBytes: o.MaxBatchBytes,
			MaxBatchDelay: o.MaxBatchDelay,
		}))
	}
	lc.mu = make([]sync.Mutex, o.N)
	return lc, nil
}

// LoopStats snapshots a replica's event-loop counters (ingress queue
// accounting).
func (c *LiveCluster) LoopStats(id types.NodeID) metrics.LoopSnapshot {
	return c.mesh.Loop(id).Counters()
}

// PlaneBytes returns a replica's cumulative outbound bytes on the
// control and data planes.
func (c *LiveCluster) PlaneBytes(id types.NodeID) (control, data uint64) {
	return c.mesh.PlaneBytes(id)
}

// Start launches the replicas and the batch-flush ticker.
func (c *LiveCluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.done = make(chan struct{})
	c.mesh.Start()
	go c.flushLoop()
}

// Stop terminates all replicas and the flush ticker.
func (c *LiveCluster) Stop() {
	if !c.started {
		return
	}
	c.started = false
	close(c.done)
	c.mesh.Stop()
}

// Submit hands a transaction to a replica's mempool; full batches are
// sealed and disseminated immediately, partial ones within the batch
// delay. Safe for concurrent use.
func (c *LiveCluster) Submit(to types.NodeID, tx []byte) error {
	if int(to) >= c.opts.N {
		return fmt.Errorf("autobahn: no replica %d", to)
	}
	now := time.Since(c.epoch)
	c.mu[to].Lock()
	batches := c.pools[to].AddTx(types.Transaction(tx), now)
	c.mu[to].Unlock()
	for _, b := range batches {
		c.mesh.Loop(to).Submit(b)
	}
	return nil
}

// SubmitMany hands a burst of transactions to one replica's mempool
// under a single lock acquisition and timestamp — the committed
// throughput of a LiveCluster is submitter-bound (EXPERIMENTS.md), and
// per-transaction locking is a measurable share of that ceiling for
// callers that already aggregate (load generators, network frontends).
// Semantics match calling Submit for each transaction at one instant.
func (c *LiveCluster) SubmitMany(to types.NodeID, txs [][]byte) error {
	if int(to) >= c.opts.N {
		return fmt.Errorf("autobahn: no replica %d", to)
	}
	now := time.Since(c.epoch)
	var sealed []*types.Batch
	c.mu[to].Lock()
	for _, tx := range txs {
		if batches := c.pools[to].AddTx(types.Transaction(tx), now); batches != nil {
			sealed = append(sealed, batches...)
		}
	}
	c.mu[to].Unlock()
	for _, b := range sealed {
		c.mesh.Loop(to).Submit(b)
	}
	return nil
}

// flushLoop seals partially filled batches after the batch delay.
func (c *LiveCluster) flushLoop() {
	delay := c.opts.MaxBatchDelay
	if delay == 0 {
		delay = 100 * time.Millisecond
	}
	tick := time.NewTicker(delay / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		now := time.Since(c.epoch)
		for i := range c.pools {
			c.mu[i].Lock()
			var b *types.Batch
			if c.pools[i].FlushDue(now) {
				b = c.pools[i].Flush(now)
			}
			c.mu[i].Unlock()
			if b != nil {
				c.mesh.Loop(types.NodeID(i)).Submit(b)
			}
		}
	}
}

// Node returns a replica for inspection.
func (c *LiveCluster) Node(id types.NodeID) *core.Node { return c.nodes[id] }

// GatewayBackend adapts one replica of the cluster to gateway.Backend, so
// a gateway.Server (or the bench/soak harnesses) can front an in-process
// deployment: submissions land in that replica's mempool and the depth
// gauges read its live backlog.
func (c *LiveCluster) GatewayBackend(id types.NodeID) liveBackend {
	return liveBackend{c: c, id: id}
}

type liveBackend struct {
	c  *LiveCluster
	id types.NodeID
}

func (b liveBackend) Submit(tx []byte)  { b.c.Submit(b.id, tx) }
func (b liveBackend) MempoolDepth() int { return b.c.pools[b.id].Depth() }
func (b liveBackend) LaneDepth() int    { return b.c.nodes[b.id].LaneDepth() }
