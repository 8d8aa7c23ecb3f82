// Package harness builds simulated deployments of all four systems the
// paper evaluates (Autobahn, Bullshark, VanillaHS, BatchedHS) and runs
// the experiments behind every table and figure in §6. Each experiment
// returns structured results (for tests and benchmarks to assert the
// paper's comparative shape) and can render the same rows/series the
// paper reports.
package harness

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/bullshark"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/hotstuff"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/workload"
)

// System names one of the four evaluated protocols.
type System string

// The four systems of §6.
const (
	Autobahn  System = "Autobahn"
	Bullshark System = "Bullshark"
	VanillaHS System = "VanillaHS"
	BatchedHS System = "BatchedHS"
)

// AllSystems lists the paper's comparison set in its plotting order.
var AllSystems = []System{Autobahn, Bullshark, BatchedHS, VanillaHS}

// ClusterConfig parameterizes one simulated deployment.
type ClusterConfig struct {
	System System
	N      int
	Seed   uint64
	// VerifySigs enables real ed25519 end to end (slower; default off —
	// signature cost is charged by the network model).
	VerifySigs bool
	// ViewTimeout is the ceiling of Autobahn's adaptive view timer and
	// the fixed timer of the HotStuff baselines (default 1s, §6).
	ViewTimeout time.Duration
	// Autobahn toggles (fast path and optimistic tips default true, the
	// paper's configuration; weak votes are the §5.5.2 refinement and
	// default off, matching the prototype).
	FastPathOff       bool
	OptimisticTipsOff bool
	WeakVotes         bool
	// HotStuff leader regime (default Rotating).
	StableLeaders bool
	// Reputation enables the §B.1 lane-reputation defense (Autobahn only;
	// requires optimistic tips, the default).
	Reputation bool
	// Execution enables the deterministic execution layer (Autobahn only):
	// commits carry the running AppHash, the cross-replica execution
	// oracle the CommitInterceptor checks.
	Execution bool
	// SnapshotEvery checkpoints execution state every this many slots and
	// truncates the journal/lane stores beneath it; replicas far behind
	// join via snapshot-based state sync. 0 disables. Requires Execution.
	// Snapshot stores are retained across warm restarts (like journals)
	// and replaced on amnesia.
	SnapshotEvery types.Slot
	// Faults to inject (nil = fault-free). Byzantine behavior windows in
	// the schedule (FaultSchedule.AddBehavior) wrap the named replicas
	// with internal/adversary before the run (Autobahn only).
	Faults *sim.FaultSchedule
	// WrapSink, when set, interposes on every replica's commit stream
	// (e.g. the Byzantine experiments' no-contradiction interceptor).
	WrapSink func(runtime.CommitSink) runtime.CommitSink
	// OnRebuild, when set, is invoked whenever a Restart fault rebuilds a
	// replica, before it rejoins. The soak harness uses it to tell the
	// safety oracle about recoveries (whose re-delivered commits are
	// replay, not duplicates — CommitInterceptor.NoteRecovery).
	OnRebuild func(id types.NodeID, amnesia bool)
	// Horizon bounds the recorder's time series (default 5 min).
	Horizon time.Duration
	// Net overrides the network model (default: paper's GCP intra-US).
	Net *sim.Network
}

// Cluster is a built deployment ready to run.
type Cluster struct {
	Config   ClusterConfig
	Engine   *sim.Engine
	Recorder *metrics.Recorder
	IDs      []types.NodeID
	// Nodes holds the protocol instances (type-assert per system for
	// protocol-specific statistics). A Restart fault replaces the entry
	// for the restarted replica.
	Nodes []runtime.Protocol
	// Journals holds per-replica journals, populated only when the fault
	// schedule contains Restart events (Autobahn only).
	Journals []core.Journal
	// Snapshots holds per-replica snapshot stores, populated only when
	// SnapshotEvery > 0 (Autobahn only).
	Snapshots []*core.MemSnapshots
}

// Build constructs the deployment.
func Build(cfg ClusterConfig) *Cluster {
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ViewTimeout == 0 {
		cfg.ViewTimeout = time.Second
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 5 * time.Minute
	}
	committee := types.NewCommittee(cfg.N)
	var suite crypto.Suite
	if cfg.VerifySigs {
		suite = crypto.NewEd25519Suite(cfg.N, cfg.Seed)
	} else {
		suite = crypto.NewNopSuite(cfg.N)
	}
	rec := metrics.NewRecorder(cfg.Horizon)
	rec.Quorum = committee.F() + 1 // output commit: f+1 replica replies (§6)
	net := cfg.Net
	if net == nil {
		net = sim.NewNetwork(sim.DefaultNetConfig(sim.IntraUSTopology()))
	}
	eng := sim.NewEngine(sim.Config{Net: net, Faults: cfg.Faults, Seed: cfg.Seed})

	if cfg.Faults != nil {
		if nb := len(cfg.Faults.Behaviors()); nb > committee.F() {
			panic(fmt.Sprintf("harness: %d Byzantine behaviors exceeds f=%d for n=%d", nb, committee.F(), cfg.N))
		}
	}
	c := &Cluster{Config: cfg, Engine: eng, Recorder: rec}
	// Restart faults tear protocol state down mid-run and rebuild it from
	// a journal (crash-restart recovery). Only Autobahn wires journals;
	// the baselines have no recovery story in this reproduction.
	if cfg.Faults != nil && cfg.Faults.HasRestarts() {
		if cfg.System != Autobahn {
			panic(fmt.Sprintf("harness: Restart faults are only supported for Autobahn, not %s", cfg.System))
		}
		c.Journals = make([]core.Journal, cfg.N)
		for i := range c.Journals {
			c.Journals[i] = core.NewMemJournal()
		}
	}
	if cfg.SnapshotEvery > 0 {
		if cfg.System != Autobahn {
			panic(fmt.Sprintf("harness: snapshots are only supported for Autobahn, not %s", cfg.System))
		}
		c.Snapshots = make([]*core.MemSnapshots, cfg.N)
		for i := range c.Snapshots {
			c.Snapshots[i] = &core.MemSnapshots{}
		}
	}
	sink := runtime.CommitSink(rec.Sink())
	if cfg.WrapSink != nil {
		sink = cfg.WrapSink(sink)
	}
	for i := 0; i < cfg.N; i++ {
		id := types.NodeID(i)
		c.IDs = append(c.IDs, id)
		nd := buildNode(cfg, committee, id, suite, sink, c.journal(id), c.snapshots(id))
		nd = wrapAdversary(cfg, committee, id, suite, nd)
		c.Nodes = append(c.Nodes, nd)
		eng.AddNode(nd)
	}
	if c.Journals != nil {
		eng.SetRebuild(func(id types.NodeID, amnesia bool) runtime.Protocol {
			if cfg.OnRebuild != nil {
				cfg.OnRebuild(id, amnesia)
			}
			if amnesia {
				c.Journals[id] = core.NewMemJournal()
				if c.Snapshots != nil {
					c.Snapshots[id] = &core.MemSnapshots{}
				}
			}
			nd := buildNode(cfg, committee, id, suite, sink, c.Journals[id], c.snapshots(id))
			c.Nodes[id] = nd
			return nd
		})
	}
	return c
}

// wrapAdversary wraps a replica with its scheduled Byzantine behavior, if
// the fault schedule names one (Autobahn only — the baselines have no
// adversary story in this reproduction).
func wrapAdversary(cfg ClusterConfig, committee types.Committee, id types.NodeID, suite crypto.Suite, nd runtime.Protocol) runtime.Protocol {
	if cfg.Faults == nil {
		return nd
	}
	bw, ok := cfg.Faults.BehaviorFor(id)
	if !ok {
		return nd
	}
	cn, isAutobahn := nd.(*core.Node)
	if !isAutobahn {
		panic(fmt.Sprintf("harness: Byzantine behaviors are only supported for Autobahn, not %s", cfg.System))
	}
	for _, r := range cfg.Faults.Restarts() {
		if r.Node == id {
			panic(fmt.Sprintf("harness: node %s has both a Restart and a behavior (rebuild would drop the adversary)", id))
		}
	}
	wrapped, err := adversary.WrapNode(cn, committee, id, suite.Signer(id), bw.Behavior, bw.From, bw.To)
	if err != nil {
		panic(err)
	}
	return wrapped
}

func (c *Cluster) journal(id types.NodeID) core.Journal {
	if c.Journals == nil {
		return nil
	}
	return c.Journals[id]
}

// snapshots returns the replica's snapshot store as the interface type —
// nil (not a typed nil) when snapshots are off.
func (c *Cluster) snapshots(id types.NodeID) core.SnapshotStore {
	if c.Snapshots == nil {
		return nil
	}
	return c.Snapshots[id]
}

func buildNode(cfg ClusterConfig, committee types.Committee, id types.NodeID, suite crypto.Suite, sink runtime.CommitSink, journal core.Journal, snaps core.SnapshotStore) runtime.Protocol {
	switch cfg.System {
	case Autobahn:
		return core.NewNode(core.Config{
			Committee:      committee,
			Self:           id,
			Suite:          suite,
			VerifySigs:     cfg.VerifySigs,
			FastPath:       !cfg.FastPathOff,
			OptimisticTips: !cfg.OptimisticTipsOff,
			WeakVotes:      cfg.WeakVotes,
			Reputation:     cfg.Reputation,
			ViewTimeout:    cfg.ViewTimeout,
			Execution:      cfg.Execution,
			SnapshotEvery:  cfg.SnapshotEvery,
			Snapshots:      snaps,
			Journal:        journal,
			Sink:           sink,
		})
	case Bullshark:
		return bullshark.NewNode(bullshark.Config{
			Committee:  committee,
			Self:       id,
			Suite:      suite,
			VerifySigs: cfg.VerifySigs,
			Sink:       sink,
		})
	case VanillaHS, BatchedHS:
		variant := hotstuff.Vanilla
		if cfg.System == BatchedHS {
			variant = hotstuff.Batched
		}
		mode := hotstuff.Rotating
		if cfg.StableLeaders {
			mode = hotstuff.Stable
		}
		return hotstuff.NewNode(hotstuff.Config{
			Committee:   committee,
			Self:        id,
			Suite:       suite,
			VerifySigs:  cfg.VerifySigs,
			Variant:     variant,
			LeaderMode:  mode,
			ViewTimeout: cfg.ViewTimeout,
			Sink:        sink,
		})
	default:
		panic(fmt.Sprintf("harness: unknown system %q", cfg.System))
	}
}

// RunLoad installs an open-loop load of rate tx/s over [start, end) and
// runs the simulation until `until`.
func (c *Cluster) RunLoad(rate float64, start, end, until time.Duration) {
	workload.Install(c.Engine, c.IDs, workload.Config{
		TotalRate: rate,
		Start:     start,
		End:       end,
	})
	c.Engine.Run(until)
}
