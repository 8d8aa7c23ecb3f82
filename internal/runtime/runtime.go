// Package runtime defines the execution model shared by the discrete-event
// simulator (internal/sim) and the real TCP runtime (internal/transport):
// protocol nodes are single-threaded, event-driven state machines that
// react to messages, timers and client submissions through a Context.
//
// Because every protocol in this repository (Autobahn, HotStuff variants,
// Bullshark) is written against these interfaces, the simulator exercises
// exactly the code a real deployment runs — only the transport and clock
// differ.
package runtime

import (
	"time"

	"repro/internal/types"
)

// TimerTag identifies a timer to the protocol that set it. Kind is a
// protocol-defined discriminator; A and B carry protocol-defined payload
// (e.g. slot and view). Tags are value types so timers allocate nothing.
type TimerTag struct {
	Kind uint8
	A    uint64
	B    uint64
}

// Context is the interface through which a protocol node interacts with
// the outside world. All methods must be called only from within the
// node's event handlers (the runtime is single-threaded per node).
type Context interface {
	// ID returns this node's replica ID.
	ID() types.NodeID
	// Now returns the time elapsed since the deployment epoch. Under
	// simulation this is virtual time.
	Now() time.Duration
	// Send queues m for delivery to replica `to`. Sending to self delivers
	// through the normal path (with loopback cost under simulation).
	Send(to types.NodeID, m types.Message)
	// Broadcast sends m to every replica except the sender.
	Broadcast(m types.Message)
	// SetTimer schedules OnTimer(tag) after d. Timers are one-shot.
	// Setting a timer with a tag equal to an already-pending timer
	// replaces it (the earlier deadline is cancelled).
	SetTimer(d time.Duration, tag TimerTag)
	// CancelTimer cancels a pending timer with the given tag, if any.
	CancelTimer(tag TimerTag)
	// Rand returns a deterministic pseudo-random uint64 (seeded per node
	// by the runtime); protocols must not use global randomness.
	Rand() uint64
}

// Protocol is a replicated state machine node. Implementations must be
// deterministic functions of their event history (plus Context.Rand).
type Protocol interface {
	// Init is called once before any other event.
	Init(ctx Context)
	// OnMessage delivers a message from another replica. Implementations
	// must treat m as immutable (the simulator shares pointers).
	OnMessage(ctx Context, from types.NodeID, m types.Message)
	// OnTimer fires a previously set timer.
	OnTimer(ctx Context, tag TimerTag)
	// OnClientBatch submits a sealed batch of client transactions
	// originating at this replica's mempool.
	OnClientBatch(ctx Context, b *types.Batch)
}

// Flusher is optionally implemented by protocols that defer externally
// visible effects (outbound sends gated behind a durability barrier —
// see core.Config.GroupCommit). Every runtime calls Flush after Init and
// after each burst of processed events: the real-time loop
// (internal/transport) after up to maxBurst consecutive events, the
// discrete-event simulator after every delivered message, fired timer
// and client batch. The protocol performs its group barrier (e.g. one
// journal sync for every record the burst appended) and then releases
// the gated sends through ctx.
type Flusher interface {
	Flush(ctx Context)
}

// PreVerifier is optionally implemented by protocols whose inbound
// messages carry signatures that can be checked without protocol state.
// Every runtime runs it on each message from a peer before OnMessage,
// and drops the message when it fails: internal/transport on a parallel
// worker stage between frame decode and the event loop, so signature
// arithmetic comes off the single-threaded critical path; the
// discrete-event simulator inline at delivery. Self-addressed messages
// skip it (a replica does not verify its own signatures).
//
// PreVerify is the only signature check: the state machine behind it
// trusts that every signature, share and certificate on a delivered
// message is valid, and keeps only the checks that need protocol state
// or are not cryptographic (sender identity, committee membership,
// digest/slot/view matches, structural validity).
//
// Implementations must be stateless with respect to the protocol's
// event-driven state and safe for concurrent use: PreVerify runs on
// multiple goroutines concurrently with the event loop. PreVerify must
// return a non-nil error only for cryptographically invalid input;
// state-dependent judgments (duplicates, stale views, unknown parents)
// belong to OnMessage.
type PreVerifier interface {
	PreVerify(from types.NodeID, m types.Message) error
}

// Sharder is optionally implemented by protocols whose data-plane
// message handling is parallelizable across disjoint state partitions —
// Autobahn's lane layer is the motivating case: car handling, payload
// hashing and sync serving for different lanes touch disjoint per-lane
// state and are "embarrassingly parallel" per the paper's §4, while
// consensus must stay strictly serialized.
//
// Runtimes that honor the interface (internal/transport's Loop; the
// discrete-event simulator does not, and keeps every protocol fully
// single-threaded) route each inbound message through ShardOf: -1 keeps
// it on the serialized control loop (the plain Protocol contract), a
// shard index in [0, DataShards()) dispatches it to that shard's
// dedicated worker goroutine via OnShardMessage. Messages mapping to the
// same shard retain their relative order (per-sender FIFO is preserved
// through the pipeline); messages on different shards run concurrently
// with each other and with the control loop.
//
// Implementations guarantee that OnShardMessage for shard i touches only
// state owned by shard i (plus thread-safe shared structures), and that
// cross-shard effects travel by message passing — e.g. a self-addressed
// control message carrying new lane tips into the consensus engine.
//
// ShardOf must be a pure function of the message (it runs on mesh reader
// goroutines). A protocol whose DataShards() reports <= 1 is treated as
// unsharded: everything runs on the control loop exactly as before.
type Sharder interface {
	// DataShards returns the number of data-plane worker shards (W).
	DataShards() int
	// ShardOf classifies a message: -1 = control (serialized), otherwise
	// a shard index in [0, DataShards()).
	ShardOf(from types.NodeID, m types.Message) int
	// BatchShard returns the shard that owns client batch submissions
	// (own-lane production), or -1 to keep them on the control loop.
	BatchShard() int
	// OnShardMessage processes a data-plane message on shard's worker.
	OnShardMessage(ctx Context, shard int, from types.NodeID, m types.Message)
	// OnShardBatch processes a client batch on shard's worker (only
	// called when BatchShard() routed it there).
	OnShardBatch(ctx Context, shard int, b *types.Batch)
	// FlushShard is the per-shard counterpart of Flusher.Flush: the
	// runtime calls it after each burst of events a shard worker
	// processes, so shard-local deferred effects (group-committed sends,
	// coalesced control-plane handoffs) are released burst-wise.
	FlushShard(ctx Context, shard int)
}

// Committed describes one batch that became execution-ready: the protocol
// has totally ordered it and the replica possesses its data (the paper's
// latency endpoint).
type Committed struct {
	// Lane/Position locate the batch in its dissemination structure
	// (lane position for Autobahn, round for DAGs, block height for HS).
	Lane     types.NodeID
	Position types.Pos
	// Slot is the consensus decision that committed the batch (0 when the
	// protocol has no slot notion).
	Slot  types.Slot
	Batch *types.Batch
	// AppHash is the execution layer's chain hash after applying this
	// batch (zero when execution is disabled). Replicas must agree on it
	// at every (lane, position); the harness cross-checks.
	AppHash types.Digest
}

// CommitSink receives execution-ready batches in total order. The runtime
// (not the protocol) provides it; metrics and applications attach here.
type CommitSink interface {
	OnCommit(node types.NodeID, now time.Duration, c Committed)
}

// CommitSinkFunc adapts a function to CommitSink.
type CommitSinkFunc func(node types.NodeID, now time.Duration, c Committed)

// OnCommit implements CommitSink.
func (f CommitSinkFunc) OnCommit(node types.NodeID, now time.Duration, c Committed) {
	f(node, now, c)
}

// NopSink discards commits.
var NopSink CommitSink = CommitSinkFunc(func(types.NodeID, time.Duration, Committed) {})
