package autobahn

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Replica is a single Autobahn replica communicating with its peers over
// TCP (length-framed wire encoding, automatic reconnection). It is the
// building block of real multi-process deployments; see cmd/autobahn-node.
type Replica struct {
	opts    Options
	mesh    *transport.TCPMesh
	m       *member
	journal core.Journal // nil without Options.WALPath

	epoch    time.Time
	done     chan struct{} // closed by Stop; terminates flushLoop
	started  bool          // Start launched the event loop (Stop may Join it)
	stopOnce sync.Once

	// gateway is the client-facing ingress tier (Options.GatewayAddr);
	// nil when disabled. It feeds Submit and consumes the commit sink.
	gateway *gateway.Server

	// Journal-fatal state: a failed group-commit barrier halts the node
	// (core.Config.OnFatal), shuts this replica down, and reports the
	// cause on the fatal channel exactly once.
	fatal        chan error
	journalFatal atomic.Bool

	// observer, when set (SetCommitObserver), synchronously receives
	// every commit: the replica's one commit stream.
	observer func(Committed)
}

// SetCommitObserver registers fn to synchronously receive this replica's
// totally ordered, execution-ready batches — every one, in order, never
// dropped. It is the only commit stream: nothing is buffered for a
// reader that is not there, so a replica without an observer retains no
// committed batch on its behalf. Must be called before Start; fn runs on
// the replica's event loop and must be fast and thread-safe.
func (r *Replica) SetCommitObserver(fn func(Committed)) { r.observer = fn }

// NewReplica builds replica `self` of a committee whose members listen at
// the given addresses (all replicas must share the same Options and
// address map). Signatures are always verified.
//
// With Options.WALPath set, the replica journals its safety-critical
// protocol state (own proposals, lane FIFO votes, consensus votes,
// decided slots) to that write-ahead log before externalizing it, and a
// restarted process recovers from the same path: it never contradicts a
// pre-crash vote and resumes execution from its committed frontier,
// fetching whatever else it misses through the normal non-blocking sync.
func NewReplica(self types.NodeID, addrs map[types.NodeID]string, o Options, logger *log.Logger) (*Replica, error) {
	if err := o.validate(overTCP); err != nil {
		return nil, err
	}
	if len(addrs) != o.N {
		return nil, fmt.Errorf("autobahn: %d addresses for committee of %d", len(addrs), o.N)
	}
	r := &Replica{
		opts:  o,
		epoch: time.Now(), // deployments tolerate skewed epochs: only latency *reports* depend on it
		done:  make(chan struct{}),
		fatal: make(chan error, 1),
	}
	if o.WALPath != "" {
		st, err := storage.OpenWithFaults(o.WALPath, o.WALFaults)
		if err != nil {
			return nil, fmt.Errorf("autobahn: replica journal: %w", err)
		}
		st.SyncEvery = o.WALSyncEvery
		r.journal = core.NewWALJournal(st)
	}
	sink := runtime.CommitSinkFunc(func(node types.NodeID, now time.Duration, cm runtime.Committed) {
		if obs := r.observer; obs != nil {
			obs(committed(node, now, cm))
		}
		if gw := r.gateway; gw != nil {
			gw.OnCommit(cm.Batch) // spill-queue append: never blocks the loop
		}
	})
	// A journal barrier failure is replica-fatal: un-journaled state must
	// never externalize, so the replica halts loudly — it stops itself
	// and reports on Fatal — rather than run on without durability.
	onFatal := func(err error) {
		r.journalFatal.Store(true)
		select {
		case r.fatal <- err:
		default:
		}
		r.Stop()
	}
	m, err := o.newMember(self, crypto.NewEd25519Suite(o.N, o.seedOr(1)), sink, r.journal, onFatal)
	if err != nil {
		if r.journal != nil {
			r.journal.Close() // the construction error is the one to report
		}
		return nil, err
	}
	r.m = m
	// The node implements runtime.PreVerifier, so the mesh's loop runs
	// inbound signature checks on a parallel worker stage.
	r.mesh = transport.NewTCPMesh(self, addrs, m.proto, r.epoch, logger)
	m.loop = r.mesh.Loop()
	if o.StallTimeout > 0 {
		r.mesh.SetStallTimeout(o.StallTimeout)
	}
	if o.LinkFaults != nil {
		r.mesh.SetLinkFaults(o.LinkFaults)
	}
	if o.GatewayAddr != "" {
		gwOpts := o.Gateway
		if gwOpts.Logger == nil {
			gwOpts.Logger = logger
		}
		r.gateway = gateway.NewServer(r, gwOpts)
	}
	return r, nil
}

// Start begins listening, connects to peers lazily, and launches the
// replica's event loop and batch-flush ticker.
func (r *Replica) Start() error {
	// Set before the event loop exists: a journal fatal in its first
	// handler calls Stop from another goroutine, which must see it.
	r.started = true
	if err := r.mesh.Start(); err != nil {
		r.started = false // the loop never ran: nothing to Join
		return err
	}
	if r.gateway != nil {
		if err := r.gateway.Start(r.opts.GatewayAddr); err != nil {
			r.mesh.Stop()
			return err
		}
	}
	go flushLoop(r.opts.MaxBatchDelay, r.epoch, r.done, []*member{r.m})
	return nil
}

// Stop shuts the replica down: the flush ticker exits, the mesh closes,
// and the journal (if any) is flushed to disk.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		close(r.done)
		if r.gateway != nil {
			r.gateway.Stop()
		}
		r.mesh.Stop()
		if r.started {
			// Wait for the event loop's in-flight handler: journal writes
			// must win the race against the store closing beneath them.
			r.mesh.Loop().Join()
		}
		if r.journal != nil {
			if err := r.journal.Close(); err != nil {
				log.Printf("autobahn: closing replica journal: %v", err)
			}
		}
	})
}

// Submit adds one client transaction to this replica's mempool.
func (r *Replica) Submit(tx []byte) { r.m.submit(time.Since(r.epoch), tx) }

// Node exposes the protocol state (stats, orderer) for monitoring.
func (r *Replica) Node() *core.Node { return r.m.node }

// MempoolDepth reports the live mempool backlog (gateway.Backend); an
// atomic gauge, safe without the pool lock.
func (r *Replica) MempoolDepth() int { return r.m.pool.Depth() }

// LaneDepth reports this replica's own-lane end-to-end backlog —
// batches awaiting a car plus proposed-but-uncommitted cars
// (gateway.Backend).
func (r *Replica) LaneDepth() int { return r.m.node.LaneDepth() }

// Gateway returns the client gateway tier, nil unless Options.GatewayAddr
// was set.
func (r *Replica) Gateway() *gateway.Server { return r.gateway }

// TransportStats snapshots the per-peer egress/ingress counters (frames,
// coalesced flushes, bytes, queue drops per control/data plane).
func (r *Replica) TransportStats() map[types.NodeID]metrics.TransportSnapshot {
	return r.mesh.PeerStats()
}

// LoopStats snapshots the event-loop ingress counters (events accepted
// on the control loop and data-plane shards, and inbox/shard drops —
// the overload signal), plus the replica's link-health aggregates
// (dials, redials, stall-detector teardowns across peers) and whether
// the journal went fatal.
func (r *Replica) LoopStats() metrics.LoopSnapshot {
	s := r.mesh.Loop().Counters()
	total := r.mesh.TotalStats()
	s.PeerDials = total.Dials
	s.PeerRedials = total.Redials
	s.PeerStalls = total.Stalls
	if r.journalFatal.Load() {
		s.JournalFatal = 1
	}
	return s
}

// Fatal reports an unrecoverable replica failure (a journal write or
// sync error: write-before-externalize could not be guaranteed). The
// replica has already halted and stopped itself when a value arrives;
// operators typically restart the process — recovery replays whatever
// the WAL durably holds.
func (r *Replica) Fatal() <-chan error { return r.fatal }
