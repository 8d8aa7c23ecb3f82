package autobahn

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/workload"
)

// SimCluster is a deterministic discrete-event Autobahn deployment over a
// modeled WAN (the paper's Table 1 topology by default). Virtual time
// makes minutes-long runs complete in milliseconds, bit-for-bit
// reproducible from the seed.
type SimCluster struct {
	Engine   *sim.Engine
	Recorder *metrics.Recorder
	nodes    []*core.Node
	ids      []types.NodeID
	journals []core.Journal
	snaps    []*core.MemSnapshots
	opts     Options
}

// SimOptions extends Options with simulation-specific knobs.
type SimOptions struct {
	Options
	// Topology overrides the WAN model (default: paper's intra-US GCP).
	Topology sim.Topology
	// Faults injects crashes, mutes and partitions.
	Faults *sim.FaultSchedule
	// OnCommit, if set, receives every committed batch at every replica.
	OnCommit func(Committed)
	// Horizon sizes the metrics time series (default 5 minutes).
	Horizon time.Duration
}

// NewSimCluster builds an n-replica simulated deployment.
func NewSimCluster(o SimOptions) *SimCluster {
	if err := o.validate(simulated); err != nil {
		panic(err)
	}
	if o.Horizon == 0 {
		o.Horizon = 5 * time.Minute
	}
	topo := o.Topology
	if topo == nil {
		topo = sim.IntraUSTopology()
	}
	rec := metrics.NewRecorder(o.Horizon)
	rec.Quorum = o.committee().F() + 1
	suite := crypto.NewNopSuite(o.N)
	eng := sim.NewEngine(sim.Config{
		Net:    sim.NewNetwork(sim.DefaultNetConfig(topo)),
		Faults: o.Faults,
		Seed:   o.seedOr(1),
	})
	if o.Faults != nil {
		if nb := len(o.Faults.Behaviors()); nb > o.committee().F() {
			panic(fmt.Sprintf("autobahn: %d Byzantine behaviors exceeds f=%d for n=%d", nb, o.committee().F(), o.N))
		}
	}
	c := &SimCluster{Engine: eng, Recorder: rec, opts: o.Options}
	sink := rec.Sink()
	if o.OnCommit != nil {
		inner := sink
		cb := o.OnCommit
		sink = runtime.CommitSinkFunc(func(node types.NodeID, now time.Duration, cm runtime.Committed) {
			inner.OnCommit(node, now, cm)
			cb(Committed{
				Replica: node, Lane: cm.Lane, Position: cm.Position,
				Slot: cm.Slot, Batch: cm.Batch, AppHash: cm.AppHash, At: now,
			})
		})
	}
	// Restart faults need per-node journals that outlive a protocol
	// teardown, plus a rebuild hook that re-reads them (or, with amnesia,
	// replaces them). Fault-free deployments skip journaling entirely, so
	// fixed-seed runs stay byte-identical.
	withJournals := o.Faults != nil && o.Faults.HasRestarts()
	if withJournals {
		c.journals = make([]core.Journal, o.N)
		for i := range c.journals {
			c.journals[i] = core.NewMemJournal()
		}
	}
	// Snapshot stores follow the journal lifecycle: retained across warm
	// restarts, replaced on amnesia.
	if o.SnapshotEvery > 0 {
		c.snaps = make([]*core.MemSnapshots, o.N)
		for i := range c.snaps {
			c.snaps[i] = &core.MemSnapshots{}
		}
	}
	build := func(id types.NodeID) *core.Node {
		cfg := o.nodeConfig(id, suite, sink)
		if withJournals {
			cfg.Journal = c.journals[id]
		}
		if c.snaps != nil {
			cfg.Snapshots = c.snaps[id]
		}
		return core.NewNode(cfg)
	}
	for i := 0; i < o.N; i++ {
		id := types.NodeID(i)
		nd := build(id)
		c.nodes = append(c.nodes, nd)
		c.ids = append(c.ids, id)
		// Byzantine behavior windows in the fault schedule wrap the node
		// with the adversary layer (protocol-level misbehavior; the engine
		// itself only models benign network faults).
		var proto runtime.Protocol = nd
		if o.Faults != nil {
			if bw, ok := o.Faults.BehaviorFor(id); ok {
				if withJournals {
					for _, r := range o.Faults.Restarts() {
						if r.Node == id {
							panic(fmt.Sprintf("autobahn: replica %s has both a Restart and a behavior", id))
						}
					}
				}
				w, err := adversary.WrapNode(nd, o.committee(), id, suite.Signer(id), bw.Behavior, bw.From, bw.To)
				if err != nil {
					panic(err)
				}
				proto = w
			}
		}
		eng.AddNode(proto)
	}
	if withJournals {
		eng.SetRebuild(func(id types.NodeID, amnesia bool) runtime.Protocol {
			if amnesia {
				c.journals[id] = core.NewMemJournal()
				if c.snaps != nil {
					c.snaps[id] = &core.MemSnapshots{}
				}
			}
			nd := build(id)
			c.nodes[id] = nd
			return nd
		})
	}
	return c
}

// Journal returns a replica's journal (nil unless the fault schedule
// contains restarts). Tests inspect it.
func (c *SimCluster) Journal(id types.NodeID) core.Journal {
	if c.journals == nil {
		return nil
	}
	return c.journals[id]
}

// SubmitLoad installs an open-loop workload of rate tx/s of txSize-byte
// transactions over [start, end), balanced across replicas.
func (c *SimCluster) SubmitLoad(rate float64, txSize int, start, end time.Duration) {
	workload.Install(c.Engine, c.ids, workload.Config{
		TotalRate: rate,
		TxSize:    txSize,
		Start:     start,
		End:       end,
		Batch: mempool.Config{
			MaxBatchTxs:   c.opts.MaxBatchTxs,
			MaxBatchDelay: c.opts.MaxBatchDelay,
		},
	})
}

// Run advances virtual time to `until`.
func (c *SimCluster) Run(until time.Duration) { c.Engine.Run(until) }

// Node returns one replica (protocol inspection in tests and examples).
func (c *SimCluster) Node(id types.NodeID) *core.Node { return c.nodes[id] }

// Nodes returns the replica IDs.
func (c *SimCluster) Nodes() []types.NodeID { return c.ids }
