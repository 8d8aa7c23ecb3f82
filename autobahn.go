// Package autobahn is a from-scratch Go implementation of Autobahn
// ("Autobahn: Seamless high speed BFT", SOSP 2024): a Byzantine
// fault-tolerant state machine replication protocol that combines a
// highly parallel asynchronous data dissemination layer (lanes of cars
// certified by proofs of availability) with a low-latency, partially
// synchronous consensus layer that commits cuts of lane tips — matching
// DAG-BFT throughput at roughly half its latency while recovering from
// blips seamlessly, with commit complexity independent of backlog size.
//
// The package offers three deployment styles:
//
//   - SimCluster: a deterministic discrete-event simulation over a modeled
//     WAN (the paper's 4-region GCP topology by default) — what the
//     benchmark harness uses to regenerate the paper's figures.
//   - LiveCluster: an in-process real-time cluster (goroutine per replica,
//     channel transport) for quickstarts and integration testing.
//   - Replica: a single replica speaking length-framed TCP to its peers,
//     for real multi-process deployments (see cmd/autobahn-node).
//
// The protocol implementation lives in internal/ packages (lane,
// consensus, fetch, order, core); the baselines the paper compares
// against (HotStuff variants, Bullshark) are in internal/hotstuff and
// internal/bullshark, driven by internal/harness.
package autobahn

import (
	"fmt"
	gort "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/gateway"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Options configures an Autobahn deployment. The zero value plus N yields
// the paper's evaluation configuration (§6): fast path on, optimistic
// tips on, view timeouts capped at 1s, 1000-tx / 500KB batches sealed within 100ms.
// Real-time deployments (LiveCluster, Replica) always sign and verify
// with ed25519; the simulator charges crypto through its network model.
type Options struct {
	// N is the committee size (3f+1; required).
	N int
	// Seed drives deterministic key generation and simulation randomness.
	Seed uint64

	// ViewTimeout is the ceiling of the adaptive view timer (default 1s):
	// each replica's base view timeout follows its own decide latency
	// and never exceeds this.
	ViewTimeout time.Duration

	// MaxBatchTxs / MaxBatchDelay configure mempool batching (defaults
	// 1000 / 100ms, §6; batches also seal at 500 KB).
	MaxBatchTxs   int
	MaxBatchDelay time.Duration

	// DataShards sizes the parallel data plane: lane traffic (cars, lane
	// votes, sync payloads) is processed on this many worker goroutines —
	// lane i on shard i mod DataShards, preserving per-lane FIFO — while
	// consensus stays on the serialized control loop (§4: dissemination
	// is embarrassingly parallel per lane; agreement is not). 0 = auto
	// (min(GOMAXPROCS, N)), 1 = no workers: the same lane handlers run
	// inline on the control loop, which is also what a single-core
	// machine, an adversarial replica and the simulator get. Real-time
	// runtimes only.
	DataShards int

	// Adversaries marks replicas as Byzantine in real-time deployments:
	// each named replica is wrapped with the internal/adversary behavior
	// of that name (active for the deployment's lifetime), exercising the
	// protocol against hostile — not just crashed — participants. Shipped
	// behaviors: equivocate, withhold-votes, conflict-votes, bogus-sync,
	// suppress-tips, timeout-spam. At most f replicas may be adversarial
	// for the protocol's guarantees to hold. Real-time runtimes only;
	// simulations schedule behaviors (with time windows) through
	// SimOptions.Faults (sim.FaultSchedule.AddBehavior). Adversarial
	// replicas always run unsharded: behaviors are single-threaded.
	Adversaries map[types.NodeID]string

	// LinkFaults, when set, injects transport-level faults — drop, delay,
	// duplicate, reorder, per peer and priority plane — into this
	// deployment's egress (LiveCluster: the in-process mesh; Replica: this
	// replica's TCP mesh). Composes with Adversaries: behaviors decide
	// what a replica sends, LinkFaults decides what the network does to
	// it. See transport.NewLinkFaults. Real-time runtimes only.
	LinkFaults *transport.LinkFaults

	// Execution enables the deterministic execution layer: committed
	// entries run through an account state machine (internal/exec) and
	// every delivered Committed carries the machine's running AppHash,
	// the cross-replica execution oracle.
	Execution bool
	// SnapshotEvery checkpoints the execution state every this many
	// slots, truncating the journal and lane stores beneath the
	// checkpoint and enabling snapshot-based state sync (a replica far
	// behind fetches state in O(state) instead of replaying O(history)).
	// 0 disables. Requires Execution; snapshots persist beside the WAL
	// for a Replica (WALPath + ".snap") and in memory otherwise.
	SnapshotEvery types.Slot

	// WALPath, when set, makes a Replica journal its safety-critical
	// protocol state to this write-ahead log before externalizing it and
	// recover from it on restart (the paper's RocksDB persistence,
	// substituted by internal/storage). Replica only.
	WALPath string
	// WALSyncEvery fsyncs the journal after this many records (0 = rely
	// on OS flush; each record is still written out immediately).
	WALSyncEvery int
	// WALFaults, when set, routes the replica's WAL file operations
	// through a seeded fault plan (write errors, short writes, failed
	// fsyncs, a crash point) — the storage half of the chaos harness. A
	// journal failure is replica-fatal: the replica halts and shuts
	// itself down, reporting through Replica.Fatal. Requires WALPath.
	WALFaults *storage.FaultPlan

	// StallTimeout, when > 0, arms the TCP mesh's per-peer stall
	// detector: a peer this replica keeps sending to without hearing
	// anything back for the timeout (or that holds an egress write
	// blocked that long) has its connections torn down and redialed with
	// jittered backoff, instead of wedging silently behind an open but
	// dead TCP session. Replica only; 0 disables.
	StallTimeout time.Duration

	// GatewayAddr, when set, attaches the client gateway tier to a
	// Replica on this listen address: per-client submission windows with
	// sliding dedup, depth-based admission control with typed rejections
	// and priority shedding, and streamed commit acknowledgments (see
	// internal/gateway). It is the only client-facing listener a Replica
	// has: clients speak the gateway protocol (gateway.Client,
	// autobahn-client). Replica only.
	GatewayAddr string
	// Gateway tunes the gateway tier (window sizes, admission depth
	// bounds, frame cap); the zero value gets defaults. Only meaningful
	// with GatewayAddr.
	Gateway gateway.Options
}

func (o Options) committee() types.Committee { return types.NewCommittee(o.N) }

// deployment names the runtime an Options value configures, for the
// knobs only some runtimes honour.
type deployment uint8

const (
	simulated deployment = iota
	inProcess
	overTCP
)

// validate checks at construction the preconditions Options documents,
// so a misconfiguration fails loudly instead of being silently ignored.
// The ≤ f adversary bound matters most: every quorum argument (PoA f+1,
// consensus 2f+1, mutiny f+1) assumes at most f Byzantine replicas, so a
// scenario exceeding it would report protocol "violations" that are
// really misconfigurations.
func (o Options) validate(d deployment) error {
	if o.N < 1 || (o.N > 1 && o.N < 4) {
		return fmt.Errorf("autobahn: committee size %d cannot tolerate any fault (need n >= 4)", o.N)
	}
	if f := (o.N - 1) / 3; len(o.Adversaries) > f {
		return fmt.Errorf("autobahn: %d adversaries exceeds f=%d for n=%d", len(o.Adversaries), f, o.N)
	}
	for id := range o.Adversaries {
		if int(id) >= o.N {
			return fmt.Errorf("autobahn: adversary %s outside committee of %d", id, o.N)
		}
	}
	switch {
	case o.SnapshotEvery > 0 && !o.Execution:
		return fmt.Errorf("autobahn: SnapshotEvery requires Execution")
	case o.WALFaults != nil && o.WALPath == "":
		return fmt.Errorf("autobahn: WALFaults requires WALPath")
	case d != overTCP && (o.WALPath != "" || o.StallTimeout != 0 || o.GatewayAddr != ""):
		return fmt.Errorf("autobahn: WALPath, StallTimeout and GatewayAddr configure a Replica only")
	case d == simulated && (o.DataShards != 0 || len(o.Adversaries) > 0 || o.LinkFaults != nil):
		return fmt.Errorf("autobahn: DataShards, Adversaries and LinkFaults configure real-time runtimes only (simulations use SimOptions.Faults)")
	}
	return nil
}

func (o Options) seedOr(d uint64) uint64 {
	if o.Seed == 0 {
		return d
	}
	return o.Seed
}

// dataShards resolves DataShards for real-time runtimes: 0 = auto-size
// to the hardware (one shard per core up to the lane count — more shards
// than lanes would idle). Explicit values are respected, clamped to the
// committee size by core.Config.
func (o Options) dataShards() int {
	if o.DataShards != 0 {
		return o.DataShards
	}
	w := gort.GOMAXPROCS(0)
	if w > o.N {
		w = o.N
	}
	return w
}

// nodeConfig translates Options into the internal replica configuration
// every deployment style shares.
func (o Options) nodeConfig(self types.NodeID, suite crypto.Suite, sink runtime.CommitSink) core.Config {
	return core.Config{
		Committee:      o.committee(),
		Self:           self,
		Suite:          suite,
		FastPath:       true,
		OptimisticTips: true,
		ViewTimeout:    o.ViewTimeout,
		Execution:      o.Execution,
		SnapshotEvery:  o.SnapshotEvery,
		Sink:           sink,
	}
}

// Committed is one totally-ordered, execution-ready batch delivered by a
// replica, in log order.
type Committed struct {
	// Replica is the replica reporting the commit.
	Replica types.NodeID
	// Lane and Position locate the batch in the data layer.
	Lane     types.NodeID
	Position types.Pos
	// Slot is the consensus decision that committed it.
	Slot types.Slot
	// Batch holds the transactions.
	Batch *types.Batch
	// AppHash is the execution layer's chain hash after this batch (zero
	// when execution is disabled).
	AppHash types.Digest
	// At is the replica-local commit time (since deployment epoch).
	At time.Duration
}

func committed(replica types.NodeID, at time.Duration, cm runtime.Committed) Committed {
	return Committed{
		Replica: replica, Lane: cm.Lane, Position: cm.Position,
		Slot: cm.Slot, Batch: cm.Batch, AppHash: cm.AppHash, At: at,
	}
}
