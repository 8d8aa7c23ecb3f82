package autobahn

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
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
	opts    Options
	mesh    *transport.LocalMesh
	members []*member

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
	if err := o.validate(inProcess); err != nil {
		return nil, err
	}
	lc := &LiveCluster{
		opts:  o,
		mesh:  transport.NewLocalMesh(),
		epoch: time.Now(),
	}
	lc.mesh.Faults = o.LinkFaults
	suite := crypto.NewEd25519Suite(o.N, o.seedOr(1))
	sink := runtime.CommitSinkFunc(func(node types.NodeID, now time.Duration, cm runtime.Committed) {
		if obs := lc.observer; obs != nil {
			obs(committed(node, now, cm))
		}
	})
	for i := 0; i < o.N; i++ {
		m, err := o.newMember(types.NodeID(i), suite, sink, nil, nil)
		if err != nil {
			return nil, err
		}
		// Nodes implement runtime.PreVerifier: each loop signature-checks
		// inbound messages on a parallel worker stage before delivery.
		m.loop = lc.mesh.AddNode(m.proto, lc.epoch)
		lc.members = append(lc.members, m)
	}
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
	go flushLoop(c.opts.MaxBatchDelay, c.epoch, c.done, c.members)
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
	c.members[to].submit(time.Since(c.epoch), tx)
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
	c.members[to].submit(time.Since(c.epoch), txs...)
	return nil
}

// Node returns a replica for inspection.
func (c *LiveCluster) Node(id types.NodeID) *core.Node { return c.members[id].node }

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
func (b liveBackend) MempoolDepth() int { return b.c.members[b.id].pool.Depth() }
func (b liveBackend) LaneDepth() int    { return b.c.members[b.id].node.LaneDepth() }
