// Package core assembles the full Autobahn replica: the lane-based data
// dissemination layer (internal/lane), the slot-based consensus engine
// (internal/consensus), non-blocking data synchronization (internal/fetch)
// and deterministic total ordering (internal/order), behind the
// runtime.Protocol interface so one implementation runs under both the
// discrete-event simulator and the real TCP transport.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/fetch"
	"repro/internal/lane"
	"repro/internal/order"
	"repro/internal/runtime"
	"repro/internal/types"
)

// Timer tag kinds used by the node.
const (
	tagConsensusView uint8 = iota + 1
	tagConsensusFast
	tagConsensusCoverage
	tagFetchTick
	tagCarRetx
)

// fetchTick is the sync retry granularity.
const fetchTick = 100 * time.Millisecond

// carRetransmit is how often a still-uncertified own car is re-broadcast
// (crash/partition recovery: lost proposals or votes must be repeated).
const carRetransmit = 500 * time.Millisecond

// Reputation bounds (§B.1): a lane at or below repOptimisticMin no longer
// gets optimistic tips in this replica's cuts until commits restore it.
const (
	repMax           = 8
	repOptimisticMin = 4
	repPenalty       = 3 // per served critical-path tip sync
	repRegainEvery   = 8 // committed cars per point regained
)

// Config holds every Autobahn deployment knob. Zero values take defaults
// matching the paper's evaluation setup (§6).
type Config struct {
	Committee types.Committee
	Self      types.NodeID
	Suite     crypto.Suite
	// VerifySigs turns on signature checking: PreVerify, which every
	// runtime runs on a peer's message before delivery and which is the
	// only place a signature is checked, and the VerifyCache behind it.
	// Large simulations leave it off and charge crypto through the
	// network model.
	VerifySigs bool

	// FastPath enables the 1-round commit (§5.2.1); default set by caller.
	FastPath bool
	// OptimisticTips enables uncertified tip proposals (§5.5.2).
	OptimisticTips bool
	// WeakVotes enables the §5.5.2 weak/strong voting refinement: replicas
	// missing optimistic tip data vote "weak" (agreement only) at once and
	// "strong" when the data lands; PrepareQCs need f+1 strong votes among
	// the quorum. Requires OptimisticTips.
	WeakVotes bool
	// Reputation enables the §B.1 lane-reputation mechanism: a replica
	// that is forced (as leader) to serve critical-path tip syncs for a
	// lane downgrades that lane and proposes only its certified tips until
	// committed cars restore its standing. Requires OptimisticTips.
	Reputation bool
	// ViewTimeout is the ceiling of the adaptive view timer (default 1s;
	// consensus.Config.ViewTimeout).
	ViewTimeout time.Duration

	// Shards partitions the data plane (see shard.go): lane i belongs to
	// shard i mod max(Shards, 1). When > 1 and the runtime honors
	// runtime.Sharder (the TCP/local transport loop does), each shard runs
	// on its own worker goroutine while consensus stays serialized; under
	// any other runtime, and at 0/1, the same shard handlers run inline on
	// the control goroutine. Values above the committee size are clamped —
	// a shard without a lane would never receive an event.
	Shards int

	// Journal durably records safety-critical protocol state before it is
	// externalized, and seeds recovery on restart (default: NopJournal —
	// the replica restarts with amnesia). See journal.go. Sharded
	// deployments require a journal that is safe for concurrent appenders
	// (NewWALJournal/NewMemJournal are).
	Journal Journal
	// GroupCommit gates outbound sends behind the journal's group-commit
	// barrier: during an event handler, sends accumulate instead of going
	// out, and Flush (which every runtime calls after each event burst,
	// runtime.Flusher) performs one Journal.Sync covering every record the
	// burst appended before releasing them — write-before-externalize at
	// amortized cost.
	GroupCommit bool
	// OnFatal, when set, is invoked (once, from its own goroutine) when
	// the replica halts on an unrecoverable journal failure: a Sync error
	// means write-before-externalize can no longer be guaranteed, so the
	// node drops its gated sends and stops externalizing instead of
	// silently running without durability. The callback typically stops
	// the hosting replica. Nil falls back to halting silently (the sticky
	// journal error still reports via Journal state).
	OnFatal func(error)
	// Execution enables the deterministic execution layer (internal/exec):
	// committed entries run through an account state machine whose running
	// AppHash rides on every emitted runtime.Committed for cross-replica
	// divergence checking. Default off — execution-off deployments behave
	// byte-identically to before the layer existed.
	Execution bool
	// SnapshotEvery checkpoints the execution state each time the
	// execution frontier crosses this many slots, truncating the journal
	// and lane stores beneath the checkpoint, and arms snapshot-based
	// state sync (a replica two intervals behind fetches state instead of
	// history). 0 disables. Requires Execution and Snapshots.
	SnapshotEvery types.Slot
	// Snapshots persists the latest snapshot (see SnapshotStore). Nil
	// disables snapshotting even with SnapshotEvery set — truncation
	// without a durable checkpoint would lose data.
	Snapshots SnapshotStore
	// Sink receives the totally ordered, execution-ready batches.
	Sink runtime.CommitSink
}

func (c *Config) fill() {
	if c.Sink == nil {
		c.Sink = runtime.NopSink
	}
	if c.Journal == nil {
		c.Journal = NopJournal{}
	}
	if n := c.Committee.Size(); c.Shards > n {
		c.Shards = n
	}
}

// Node is one Autobahn replica.
type Node struct {
	cfg      Config
	signer   crypto.Signer
	verifier crypto.Verifier
	// vcache is the verified-signature memo behind verifier when
	// VerifySigs is on (nil otherwise). PreVerify is the only check, so
	// its hits are repeats across messages: a PoA riding in consecutive
	// cuts, a QC in a Confirm and again in Timeouts, this replica's own
	// signatures (the signer records them) inside certificates.
	vcache *crypto.VerifyCache

	// lanePV / consPV are the stateless signature checkers composed by
	// PreVerify (see preverify.go).
	lanePV lane.PreVerifier
	consPV consensus.PreVerifier

	lanes   *lane.State
	engine  *consensus.Engine
	orderer *order.Orderer
	fetcher *fetch.Manager

	// recentNotices retains commit certificates to serve CommitRequests
	// from lagging replicas (bounded window).
	recentNotices map[types.Slot]*types.CommitNotice
	maxNotice     types.Slot

	// stuckSlot tracks an undecided execution-frontier slot seen at the
	// previous fetch tick while a later slot was already decided — the
	// signature of a lost CommitNotice (see retryMissingDecision).
	stuckSlot types.Slot

	// reputation tracks per-lane standing for the §B.1 mechanism: serving
	// a critical-path tip sync for a lane costs repPenalty points; every
	// repRegainEvery committed cars of the lane restore one.
	reputation []int
	repCommits []int

	// tipFetchQueue holds the optimistic tips consensus votes are blocked
	// on. The fetch manager decides when one is actually requested: live
	// broadcast almost always delivers the tip first, and eagerly fetching
	// on every Prepare floods a congested replica with duplicate bulk data.
	tipFetchQueue []pendingTipFetch

	// Execution layer (cfg.Execution): the deterministic machine, the
	// latest snapshot (manifest + encoded form + state, served to peers)
	// and the slot of the last checkpoint.
	machine   *exec.Machine
	tamper    bool // test hook: corrupt digests fed to the machine
	lastSnap  types.Slot
	snapMan   *exec.Manifest
	snapEnc   []byte
	snapState []byte

	// State-sync client (one sync in flight at most): pacing/rotation in
	// the tracker, manifest and chunk assembly here. noticeFrom is the peer
	// whose commit notice arrived last (self until one has): it is ahead of
	// this replica or level with it, so it is whom to ask for state.
	snapSync   fetch.SnapTracker
	noticeFrom types.NodeID
	syncMan    *exec.Manifest
	syncChunks [][]byte
	syncGot    int

	// recovery holds the journal snapshot between NewNode (pure state
	// restoration) and Init (commit replay, which needs a Context);
	// replaying suppresses re-journaling the recovered notices.
	recovery  *Recovered
	replaying bool

	// Group-commit state (cfg.GroupCommit): handlers send through gctx,
	// which defers into pending until Flush syncs the journal and
	// releases them (see Flush).
	gctx    gatedContext
	pending []pendingSend

	// Data plane (see shard.go): the shards that own lane state, and the
	// control plane's notice-fed snapshot of lane tips. sharded
	// (cfg.Shards > 1) selects how the two hand messages to each other —
	// self-addressed sends or direct calls — and nothing else.
	sharded bool
	shards  []*shardState
	tips    *tipTable

	// Fatal-halt state: once the journal barrier fails, the node stops
	// releasing gated sends (nothing un-journaled may externalize) and
	// reports through cfg.OnFatal exactly once. Atomic/once because
	// Flush (control loop) and FlushShard (shard workers) race.
	halted    atomic.Bool
	fatalOnce sync.Once

	// Stats (exposed for tests and the harness). Atomic because shard
	// workers and the control loop count concurrently.
	stats nodeStats

	ctx runtime.Context // valid during event processing
}

type pendingTipFetch struct {
	leader types.NodeID
	tip    types.TipRef
	slot   types.Slot
	view   types.View
	since  time.Duration // when the vote blocked on the tip
}

// Stats is a point-in-time snapshot of node-level protocol counters.
type Stats struct {
	BatchesProposed   uint64
	ProposalsReceived uint64
	VotesSent         uint64
	SlotsDecided      uint64
	EntriesOrdered    uint64
	TxOrdered         uint64
	SyncRequestsSent  uint64
	// SyncRetries counts the sync requests re-issued to another target
	// because the first went unanswered (a subset of SyncRequestsSent).
	SyncRetries       uint64
	SyncRepliesServed uint64
	// SyncBytesReceived is the payload of every proposal that arrived in
	// a SyncReply; DataBytesRedundant the payload of every proposal, live
	// or synced, that was already stored when it arrived — whichever copy
	// loses the race through the ingest path is the wasted one.
	SyncBytesReceived  uint64
	DataBytesRedundant uint64
	TimeoutsSent       uint64
	SnapshotsInstalled uint64
	// HistoryUnservable counts the catch-up streams execution was blocked
	// on that went through a full silent rotation with no state sync to
	// hand over to: with execution off, history more than
	// consensus.RetainSlots slots beneath the peers is gone everywhere,
	// and a replica that far behind stays there.
	HistoryUnservable uint64
	// SnapshotFrontier is the slot of the latest local snapshot (0 when
	// none) — a gauge, not a counter, safe to poll from outside the
	// node's event loop.
	SnapshotFrontier uint64
}

// nodeStats is the live (atomic) counter block behind Stats.
type nodeStats struct {
	BatchesProposed    atomic.Uint64
	ProposalsReceived  atomic.Uint64
	VotesSent          atomic.Uint64
	SlotsDecided       atomic.Uint64
	EntriesOrdered     atomic.Uint64
	TxOrdered          atomic.Uint64
	SyncRequestsSent   atomic.Uint64
	SyncRetries        atomic.Uint64
	SyncRepliesServed  atomic.Uint64
	SyncBytesReceived  atomic.Uint64
	DataBytesRedundant atomic.Uint64
	TimeoutsSent       atomic.Uint64
	SnapshotsInstalled atomic.Uint64
	HistoryUnservable  atomic.Uint64
	SnapshotFrontier   atomic.Uint64
}

func (s *nodeStats) snapshot() Stats {
	return Stats{
		BatchesProposed:    s.BatchesProposed.Load(),
		ProposalsReceived:  s.ProposalsReceived.Load(),
		VotesSent:          s.VotesSent.Load(),
		SlotsDecided:       s.SlotsDecided.Load(),
		EntriesOrdered:     s.EntriesOrdered.Load(),
		TxOrdered:          s.TxOrdered.Load(),
		SyncRequestsSent:   s.SyncRequestsSent.Load(),
		SyncRetries:        s.SyncRetries.Load(),
		SyncRepliesServed:  s.SyncRepliesServed.Load(),
		SyncBytesReceived:  s.SyncBytesReceived.Load(),
		DataBytesRedundant: s.DataBytesRedundant.Load(),
		TimeoutsSent:       s.TimeoutsSent.Load(),
		SnapshotsInstalled: s.SnapshotsInstalled.Load(),
		HistoryUnservable:  s.HistoryUnservable.Load(),
		SnapshotFrontier:   s.SnapshotFrontier.Load(),
	}
}

var _ runtime.Protocol = (*Node)(nil)

// NewNode builds an Autobahn replica.
func NewNode(cfg Config) *Node {
	cfg.fill()
	n := &Node{
		cfg:           cfg,
		signer:        cfg.Suite.Signer(cfg.Self),
		verifier:      cfg.Suite.Verifier(),
		recentNotices: make(map[types.Slot]*types.CommitNotice),
		noticeFrom:    cfg.Self,
	}
	if cfg.VerifySigs {
		n.vcache = crypto.NewVerifyCache(n.verifier, 0)
		n.verifier = n.vcache
		n.signer = n.vcache.Signer(n.signer)
	}
	n.lanePV = lane.PreVerifier{Committee: cfg.Committee, Verifier: n.verifier}
	n.consPV = consensus.PreVerifier{
		Committee:      cfg.Committee,
		Verifier:       n.verifier,
		OptimisticTips: cfg.OptimisticTips,
	}
	if cfg.Execution {
		n.machine = exec.New()
	}
	n.reputation = make([]int, cfg.Committee.Size())
	n.repCommits = make([]int, cfg.Committee.Size())
	for i := range n.reputation {
		n.reputation[i] = repMax
	}
	n.lanes = lane.NewState(lane.Config{
		Committee: cfg.Committee,
		Self:      cfg.Self,
		Signer:    n.signer,
		Journal:   laneJournal{cfg.Journal},
	})
	n.orderer = order.NewOrderer(cfg.Committee, n.lanes.Store())
	n.fetcher = fetch.NewManager(fetch.Config{Self: cfg.Self})
	n.engine = consensus.NewEngine(consensus.Config{
		Committee:      cfg.Committee,
		Self:           cfg.Self,
		Signer:         n.signer,
		FastPath:       cfg.FastPath,
		OptimisticTips: cfg.OptimisticTips,
		WeakVotes:      cfg.WeakVotes,
		ViewTimeout:    cfg.ViewTimeout,
		Journal:        consJournal{n},
	}, (*consensusEnv)(n), (*cutProvider)(n))
	n.sharded = cfg.Shards > 1
	n.tips = newTipTable(cfg.Committee.Size(), cfg.Self)
	n.shards = make([]*shardState, max(cfg.Shards, 1))
	for i := range n.shards {
		n.shards[i] = &shardState{n: n, notices: make(map[types.NodeID]*laneNotice)}
	}
	n.recover()
	// Recovery may have restored own-lane tips (NewNode runs before any
	// goroutine exists, so reading lane state here is safe); seed the
	// control snapshot so the first cut is not blind to them.
	n.tips.ownTip = n.lanes.OptimisticTip(cfg.Self)
	n.tips.ownCert = n.lanes.CertifiedTip(cfg.Self)
	return n
}

// recover rebuilds pre-crash state from the journal: vote frontiers and
// own-lane production in NewNode (pure state, no effects), and the
// decided-slot replay deferred to Init (it emits fetches and may
// propose, which need a runtime Context). A fresh journal is a no-op.
//
// With snapshots on there are two frontiers: the journal's and the
// persisted snapshot's. Normally the journal is at or ahead of the
// snapshot (the snapshot is saved, then the journal truncates — never
// the reverse), but a crash that tears the journal's tail, or lands
// between snapshot-commit and WAL-truncate on a log whose 'x' record was
// in the torn region, can leave the snapshot newer. Recovery takes the
// newer of the two and repairs the journal when the snapshot wins.
func (n *Node) recover() {
	rec := n.cfg.Journal.Recover()
	man, state := n.loadSnapshot()
	if man != nil && len(man.Frontier) == n.cfg.Committee.Size() {
		if man.Next > rec.NextExec {
			rec.NextExec = man.Next
			rec.Frontier = man.Frontier
			rec.FrontierDigests = man.Digests
			rec.AppHash = man.AppHash
			rec.ChainCount = man.Count
			n.cfg.Journal.Executed(man.Next, man.Frontier, man.Digests, man.AppHash, man.Count)
		}
		// The persisted snapshot keeps serving peers across the restart.
		n.snapMan, n.snapEnc, n.snapState = man, man.Encode(), state
		n.lastSnap = man.Next
		n.stats.SnapshotFrontier.Store(uint64(man.Next))
	}
	if n.machine != nil {
		// Balances resume from the snapshot when one exists (exact below
		// its frontier; the window up to the journal frontier is not
		// locally replayable — the journal holds digests, not batches).
		// The chain oracle then jumps to the journaled value, which is
		// state-independent by construction, so the cross-replica AppHash
		// check is exact regardless.
		if state != nil {
			if err := n.machine.Install(state); err != nil {
				n.machine = exec.New()
			}
		}
		n.machine.RestoreHash(rec.AppHash, rec.ChainCount)
	}
	if rec.Empty() {
		return
	}
	var ownCommitted types.Pos
	if int(n.cfg.Self) < len(rec.Frontier) {
		ownCommitted = rec.Frontier[n.cfg.Self]
	}
	n.lanes.Restore(rec.OwnProposals, ownCommitted, rec.LaneVotes)
	n.engine.Restore(rec.PrepVotes, rec.ConfirmAcks, rec.Timeouts)
	n.orderer.Restore(rec.NextExec, rec.Frontier, rec.FrontierDigests)
	if len(rec.Frontier) == n.cfg.Committee.Size() {
		// Vote frontiers adopt the committed chains (fork GC, §A.4), as
		// drainExecution would have done before the crash. No proposals
		// can come back: Restore already excluded own cars at or below
		// the journaled frontier, and the mempool is empty before Init.
		for _, l := range n.cfg.Committee.Nodes() {
			if pos := n.orderer.LastCommit(l); pos > 0 {
				n.lanes.OnCommitted(l, pos, n.orderer.FrontierDigest(l))
			}
		}
	}
	n.recovery = rec
}

// Stats returns a snapshot of node counters.
func (n *Node) Stats() Stats { return n.stats.snapshot() }

// CertCacheStats reports the whole-certificate verdict memo's hit/miss
// counters — the observability hook for the batch-verification fast
// path. Zero without VerifySigs.
func (n *Node) CertCacheStats() (hits, misses uint64) {
	if n.vcache == nil {
		return 0, 0
	}
	return n.vcache.CertStats()
}

// Lanes exposes lane state (tests and examples).
func (n *Node) Lanes() *lane.State { return n.lanes }

// LaneDepth returns the own lane's end-to-end backlog (batches waiting
// for a car plus cars proposed but not yet committed). A single atomic
// load, safe from any goroutine — admission control reads it per
// submission.
func (n *Node) LaneDepth() int { return n.lanes.Depth() }

// Orderer exposes ordering state (tests and examples).
func (n *Node) Orderer() *order.Orderer { return n.orderer }

// Engine exposes the consensus engine (tests).
func (n *Node) Engine() *consensus.Engine { return n.engine }

// Reputation returns a lane's current §B.1 standing (tests).
func (n *Node) Reputation(l types.NodeID) int { return n.reputation[l] }

// --- runtime.Protocol ---

// Init arms the recurring fetch-retry and car-retransmit timers,
// replays journaled decisions (crash recovery) and bootstraps consensus.
func (n *Node) Init(ctx runtime.Context) {
	ctx = n.enter(ctx)
	defer n.leave()
	if rec := n.recovery; rec != nil {
		n.recovery = nil
		// Re-deliver pre-crash commits in slot order: decided slots above
		// the executed frontier re-enter the orderer and execution resumes
		// once their data is (re-)fetched via the normal non-blocking sync.
		// The notices are already journaled — don't append them again.
		n.replaying = true
		for _, notice := range rec.Commits {
			n.handleCommitNotice(ctx, n.cfg.Self, notice)
		}
		n.replaying = false
	}
	ctx.SetTimer(fetchTick, runtime.TimerTag{Kind: tagFetchTick})
	ctx.SetTimer(carRetransmit, runtime.TimerTag{Kind: tagCarRetx})
	n.engine.Init()
}

// OnClientBatch receives a sealed batch from this replica's mempool and
// feeds it into the replica's own lane, inline on the control goroutine.
// Runtimes with shard workers route batches to the own-lane shard instead
// (OnShardBatch).
func (n *Node) OnClientBatch(ctx runtime.Context, b *types.Batch) {
	ctx = n.enter(ctx)
	defer n.leave()
	sh := n.shards[n.ownShard()]
	sh.addBatch(ctx, b)
	sh.flushNotices(ctx)
}

// OnMessage dispatches a peer (or internal handoff) message on the control
// loop. A data-plane message gets here only when no shard worker took it
// (see shard.go, inline delivery): its lane's shard handles it right away,
// under the control loop's context, and flushes its notices at once.
func (n *Node) OnMessage(ctx runtime.Context, from types.NodeID, m types.Message) {
	ctx = n.enter(ctx)
	defer n.leave()
	if s := n.laneShard(m); s >= 0 {
		sh := n.shards[s]
		sh.handle(ctx, from, m)
		sh.flushNotices(ctx)
		return
	}
	switch msg := m.(type) {
	case *types.Prepare:
		n.stats.ProposalsReceived.Add(1)
		n.engine.OnPrepare(from, msg)
	case *types.PrepVote:
		n.engine.OnPrepVote(from, msg)
	case *types.Confirm:
		n.engine.OnConfirm(from, msg)
	case *types.ConfirmAck:
		n.engine.OnConfirmAck(from, msg)
	case *types.CommitNotice:
		n.handleCommitNotice(ctx, from, msg)
	case *types.Timeout:
		n.engine.OnTimeoutMsg(from, msg)
	case *types.CommitRequest:
		n.serveCommitRequest(ctx, msg)
	case *types.CommitReply:
		for i := range msg.Notices {
			n.handleCommitNotice(ctx, from, &msg.Notices[i])
		}
	case *types.SnapshotRequest:
		n.serveSnapshotRequest(ctx, msg)
	case *types.SnapshotManifest:
		n.handleSnapshotManifest(ctx, from, msg)
	case *types.ChunkRequest:
		n.serveChunkRequest(ctx, msg)
	case *types.ChunkReply:
		n.handleChunkReply(ctx, from, msg)
	case *laneNotice, *ownTipNotice, *syncDone:
		n.onNotice(ctx, m)
	}
}

// OnTimer dispatches node timers.
func (n *Node) OnTimer(ctx runtime.Context, tag runtime.TimerTag) {
	ctx = n.enter(ctx)
	defer n.leave()
	switch tag.Kind {
	case tagConsensusView:
		n.engine.OnTimer(consensus.Timer{Kind: consensus.TimerView, Slot: types.Slot(tag.A), View: types.View(tag.B)})
	case tagConsensusFast:
		n.engine.OnTimer(consensus.Timer{Kind: consensus.TimerFast, Slot: types.Slot(tag.A), View: types.View(tag.B)})
	case tagConsensusCoverage:
		n.engine.OnTimer(consensus.Timer{Kind: consensus.TimerCoverage, Slot: types.Slot(tag.A)})
	case tagFetchTick:
		n.pumpTipFetches(ctx)
		emits, exhausted := n.fetcher.Tick(ctx.Now())
		for _, em := range emits {
			n.stats.SyncRetries.Add(1)
			n.request(ctx, em)
		}
		// Re-drive stalled execution: abandoned fetches for data a
		// pending slot still needs are re-created here.
		if n.orderer.PendingSlot(n.orderer.NextExec()) {
			n.drainExecution(ctx)
		}
		n.retryMissingDecision(ctx)
		n.stateSyncIfUnservable(ctx, exhausted)
		n.tickStateSync(ctx)
		ctx.SetTimer(fetchTick, runtime.TimerTag{Kind: tagFetchTick})
	case tagCarRetx:
		// The outstanding-car state is shard-owned (see
		// shardState.retransmit), so the tick is forwarded there.
		n.toShard(ctx, &retxMsg{})
		ctx.SetTimer(carRetransmit, runtime.TimerTag{Kind: tagCarRetx})
	}
}

// enter installs the context for the duration of one event handler.
// Under group commit the installed context is the gating wrapper, so
// every send the handler (or the consensus engine beneath it) performs
// is deferred until Flush has synced the journal records the handler
// appended.
func (n *Node) enter(ctx runtime.Context) runtime.Context {
	if n.cfg.GroupCommit {
		n.gctx.inner = ctx
		n.gctx.pending = &n.pending
		n.ctx = &n.gctx
	} else {
		n.ctx = ctx
	}
	return n.ctx
}

func (n *Node) leave() { n.ctx = nil }

// pendingSend is one gated outbound message awaiting the group-commit
// barrier.
type pendingSend struct {
	to        types.NodeID
	broadcast bool
	msg       types.Message
}

// gatedContext defers Send/Broadcast into a pending queue (the node's
// for the control loop, a shard's for shard workers); everything else
// passes through to the runtime.
type gatedContext struct {
	inner   runtime.Context
	pending *[]pendingSend
}

func (g *gatedContext) ID() types.NodeID   { return g.inner.ID() }
func (g *gatedContext) Now() time.Duration { return g.inner.Now() }
func (g *gatedContext) Rand() uint64       { return g.inner.Rand() }
func (g *gatedContext) SetTimer(d time.Duration, tag runtime.TimerTag) {
	g.inner.SetTimer(d, tag)
}
func (g *gatedContext) CancelTimer(tag runtime.TimerTag) { g.inner.CancelTimer(tag) }
func (g *gatedContext) Send(to types.NodeID, m types.Message) {
	*g.pending = append(*g.pending, pendingSend{to: to, msg: m})
}
func (g *gatedContext) Broadcast(m types.Message) {
	*g.pending = append(*g.pending, pendingSend{broadcast: true, msg: m})
}

var _ runtime.Flusher = (*Node)(nil)

// Flush implements runtime.Flusher: the group-commit barrier. The
// runtime calls it after each burst of events; one Journal.Sync makes
// every record the burst appended durable, and only then are the gated
// sends released (in original order) through the real context —
// write-before-externalize, amortized over the burst. Without
// cfg.GroupCommit the journal syncs but no sends were gated.
//
// A Sync failure is replica-fatal: the gated sends are DROPPED, never
// released — an un-journaled vote that externalizes could contradict
// this replica after a restart — and cfg.OnFatal fires once.
func (n *Node) Flush(ctx runtime.Context) {
	if err := n.cfg.Journal.Sync(); err != nil {
		n.fatal(err)
	}
	n.release(ctx, &n.pending)
}

// release empties a gated queue after its journal barrier: the sends go
// out in original order through the real context — or, on a halted node,
// are discarded. It reports whether they went out.
func (n *Node) release(ctx runtime.Context, pending *[]pendingSend) bool {
	live := !n.halted.Load()
	pend := *pending
	*pending = pend[:0]
	for i := range pend {
		if live {
			if pend[i].broadcast {
				ctx.Broadcast(pend[i].msg)
			} else {
				ctx.Send(pend[i].to, pend[i].msg)
			}
		}
		pend[i] = pendingSend{} // release the message reference
	}
	return live
}

// fatal records a journal-barrier failure: the node stops externalizing
// and reports once through cfg.OnFatal, asynchronously — the callback
// may stop the hosting replica, which joins the very loop this runs on.
func (n *Node) fatal(err error) {
	n.halted.Store(true)
	n.fatalOnce.Do(func() {
		if n.cfg.OnFatal != nil {
			go n.cfg.OnFatal(err)
		}
	})
}

// Halted reports whether the node halted on a journal failure.
func (n *Node) Halted() bool { return n.halted.Load() }

// --- synchronization ---

// request sends a sync request the fetch manager emitted (nil: nothing
// to ask for now).
func (n *Node) request(ctx runtime.Context, em *fetch.Emit) {
	if em != nil {
		n.stats.SyncRequestsSent.Add(1)
		ctx.Send(em.To, em.Msg)
	}
}

// syncIngested reconciles an ingested sync reply with the fetch manager,
// sends the follow-up request when the reply ended a served window, and
// resumes execution — the control half of shardState.handleSyncReply,
// reached through its syncDone notice. Ingestion came first: what
// execution still lacks is re-evaluated against a store that already
// holds the reply's cars.
func (n *Node) syncIngested(ctx runtime.Context, from types.NodeID, rep *types.SyncReply) {
	next, err := n.fetcher.OnReply(ctx.Now(), from, rep)
	n.request(ctx, next)
	if err == nil || err == fetch.ErrUnsolicited {
		n.drainExecution(ctx)
	}
}

// --- commit & execution ---

func (n *Node) handleCommitNotice(ctx runtime.Context, from types.NodeID, m *types.CommitNotice) {
	already := n.engine.Decided(m.QC.Slot)
	n.engine.OnCommitNotice(from, m)
	if !already && n.engine.Decided(m.QC.Slot) {
		n.noticeFrom = from
		// Newly learned commit: if slots below are missing, catch up from
		// the sender (it must have decided them or hold their notices).
		if next := n.orderer.NextExec(); m.QC.Slot > next {
			missing := false
			for s := next; s < m.QC.Slot; s++ {
				if !n.orderer.PendingSlot(s) && !n.engine.Decided(s) {
					missing = true
					break
				}
			}
			if missing && from != n.cfg.Self {
				ctx.Send(from, &types.CommitRequest{From: next, To: m.QC.Slot - 1, Requester: n.cfg.Self})
			}
		}
	}
	n.maybeStateSync(ctx, from, m.QC.Slot)
}

func (n *Node) serveCommitRequest(ctx runtime.Context, req *types.CommitRequest) {
	if req.To < req.From || req.To-req.From > 4096 {
		return
	}
	var rep types.CommitReply
	for s := req.From; s <= req.To; s++ {
		if notice, ok := n.recentNotices[s]; ok {
			rep.Notices = append(rep.Notices, *notice)
		}
	}
	if len(rep.Notices) > 0 {
		ctx.Send(req.Requester, &rep)
	}
}

// retryMissingDecision re-requests a lost commit certificate. Slots
// decide out of order within the parallel window, so the execution
// frontier being undecided while a later slot is decided normally
// resolves in milliseconds; handleCommitNotice additionally issues a
// one-shot catch-up request when it learns of a commit above a gap. But
// if the frontier slot's CommitNotice broadcast AND that catch-up
// exchange are all lost (inbox overflow, lossy links, a Byzantine
// sender), nothing retried and execution wedged for good. Re-request
// from a rotating peer once the gap has survived two consecutive fetch
// ticks — quiet in healthy runs, where the gap clears within one.
func (n *Node) retryMissingDecision(ctx runtime.Context) {
	next := n.orderer.NextExec()
	if n.orderer.PendingSlot(next) || n.engine.Decided(next) {
		n.stuckSlot = 0
		return
	}
	// MaxDecided, not a window scan over Decided: several consecutive
	// notices can be lost at once, leaving the nearest decided slot
	// arbitrarily far above the frontier.
	hi := n.engine.MaxDecided()
	if hi <= next {
		n.stuckSlot = 0
		return
	}
	if hi > next+256 {
		hi = next + 256 // bounded request; repeat ticks walk the rest
	}
	if n.stuckSlot != next {
		n.stuckSlot = next // first sighting: give the normal paths a tick
		return
	}
	// Rotate the target so a single unresponsive (or hostile) peer
	// cannot stall the retry forever.
	size := uint64(n.cfg.Committee.Size())
	peer := types.NodeID(ctx.Rand() % size)
	if peer == n.cfg.Self {
		peer = types.NodeID((uint64(peer) + 1) % size)
	}
	ctx.Send(peer, &types.CommitRequest{From: next, To: hi, Requester: n.cfg.Self})
}

// drainExecution advances the total order as far as data allows, emits
// committed entries to the sink, and fetches whatever is missing —
// coalesced across every decided slot, so an arbitrarily long backlog
// costs one sync round trip per lane (timely sync, §5.2.2).
func (n *Node) drainExecution(ctx runtime.Context) {
	entries, missing, executed := n.orderer.TryExecute()
	if len(missing) > 0 {
		// Ask per lane across every decided slot first (one range anchored
		// at the highest committed tip), then for the blocked slot's own
		// ranges. The fetch manager folds a lane's ranges into its one
		// stream, so asking twice costs nothing — and the blocked slot's
		// range must get its turn when the coalesced one is refused: its
		// top may still be in flight by live broadcast, or lie on another
		// fork (the per-lane "highest tip" anchor assumes a lane's pending
		// tips lie on one chain; an equivocating lane violates that, and the
		// blocked slot can need a fork sibling no later chain covers).
		missing = append(n.orderer.CatchupRanges(), missing...)
	}
	for _, e := range entries {
		n.stats.EntriesOrdered.Add(1)
		n.stats.TxOrdered.Add(uint64(e.Batch.Count))
		var appHash types.Digest
		if n.machine != nil {
			digest := e.Digest
			if n.tamper {
				digest[0] ^= 0x01 // test hook: a Byzantine executor
			}
			appHash = n.machine.Apply(e.Slot, e.Lane, e.Position, digest, e.Batch)
		}
		n.cfg.Sink.OnCommit(n.cfg.Self, ctx.Now(), runtime.Committed{
			Lane: e.Lane, Position: e.Position, Slot: e.Slot, Batch: e.Batch, AppHash: appHash,
		})
	}
	if len(executed) > 0 {
		n.stats.SlotsDecided.Add(uint64(len(executed)))
		if n.cfg.Reputation {
			for _, e := range entries {
				n.repCommits[e.Lane]++
				if n.repCommits[e.Lane] >= repRegainEvery {
					n.repCommits[e.Lane] = 0
					if n.reputation[e.Lane] < repMax {
						n.reputation[e.Lane]++
					}
				}
			}
		}
		// Inform the lane layer of new committed frontiers (vote-frontier
		// adoption + fork GC, §A.4). The lane views are shard-owned, so the
		// frontier travels there as a message; applying it asynchronously
		// (under workers) is safe — it only advances GC and vote-frontier
		// adoption, both monotonic.
		for _, l := range n.cfg.Committee.Nodes() {
			if pos := n.orderer.LastCommit(l); pos > 0 {
				n.toShard(ctx, &frontierMsg{lane: l, pos: pos, digest: n.orderer.FrontierDigest(l)})
			}
		}
		// Persist the execution frontier: a restarted replica resumes here
		// instead of re-emitting the whole log.
		var appHash types.Digest
		var chainCount uint64
		if n.machine != nil {
			appHash, chainCount = n.machine.AppHash(), n.machine.Count()
		}
		n.cfg.Journal.Executed(n.orderer.NextExec(), n.orderer.Frontier(), n.orderer.FrontierDigests(), appHash, chainCount)
		n.maybeSnapshot()
		n.trimHistory()
		n.engine.OnTipsAdvanced()
	}
	for _, m := range missing {
		targets := []types.NodeID{m.Lane}
		if m.Tip.Cert != nil {
			targets = append(m.Tip.Cert.Signers(), m.Lane)
		} else if qc := n.engine.CommitQCFor(m.Slot); qc != nil {
			for _, sh := range qc.Shares {
				targets = append(targets, sh.Signer)
			}
		}
		n.request(ctx, n.fetcher.Want(ctx.Now(), m.Lane, m.From, m.To, m.TipDigest, targets))
	}
}

// --- consensus Env and Provider adapters ---

// consensusEnv adapts Node to consensus.Env.
type consensusEnv Node

func (e *consensusEnv) node() *Node { return (*Node)(e) }

func (e *consensusEnv) Send(to types.NodeID, m types.Message) {
	nd := e.node()
	if _, isTimeout := m.(*types.Timeout); isTimeout {
		nd.stats.TimeoutsSent.Add(1)
	}
	nd.ctx.Send(to, m)
}

func (e *consensusEnv) Broadcast(m types.Message) {
	nd := e.node()
	if _, isTimeout := m.(*types.Timeout); isTimeout {
		nd.stats.TimeoutsSent.Add(1)
	}
	nd.ctx.Broadcast(m)
}

func (e *consensusEnv) SetTimer(t consensus.Timer) {
	nd := e.node()
	var kind uint8
	switch t.Kind {
	case consensus.TimerView:
		kind = tagConsensusView
	case consensus.TimerFast:
		kind = tagConsensusFast
	case consensus.TimerCoverage:
		kind = tagConsensusCoverage
	}
	nd.ctx.SetTimer(t.Delay, runtime.TimerTag{Kind: kind, A: uint64(t.Slot), B: uint64(t.View)})
}

func (e *consensusEnv) Now() time.Duration { return e.node().ctx.Now() }

func (e *consensusEnv) Decide(s types.Slot, p *types.ConsensusProposal, qc *types.CommitQC) {
	nd := e.node()
	notice := &types.CommitNotice{QC: *qc, Proposal: *p}
	nd.recentNotices[s] = notice
	if s > nd.maxNotice {
		nd.maxNotice = s
	}
	// Bounded retention window for straggler catch-up.
	const retain = 2048
	if nd.maxNotice > retain {
		delete(nd.recentNotices, nd.maxNotice-retain)
	}
	_ = nd.orderer.AddDecision(s, p)
	nd.drainExecution(nd.ctx)
}

func (e *consensusEnv) FetchTipData(leader types.NodeID, tips []types.TipRef, s types.Slot, v types.View) {
	nd := e.node()
	added := false
	for _, t := range tips {
		dup := false
		for _, q := range nd.tipFetchQueue {
			if q.slot == s && q.view == v && q.tip.Lane == t.Lane && q.tip.Position == t.Position {
				dup = true
				break
			}
		}
		if !dup {
			added = true
			nd.tipFetchQueue = append(nd.tipFetchQueue, pendingTipFetch{
				leader: leader, tip: t, slot: s, view: v, since: nd.ctx.Now(),
			})
		}
	}
	// A tip the lane's live stream has already passed is lost, not late:
	// it is requested at once (the fetch tick covers the rest).
	if added {
		nd.pumpTipFetches(nd.ctx)
	}
}

// pumpTipFetches offers every tip a vote is still blocked on to the
// fetch manager, which requests it once it is no longer in flight by
// live broadcast (the data usually arrives first).
func (n *Node) pumpTipFetches(ctx runtime.Context) {
	kept := n.tipFetchQueue[:0]
	for _, q := range n.tipFetchQueue {
		if !n.engine.HasPendingVote(q.slot, q.view) || n.lanes.HasProposal(q.tip) {
			continue // moot: decided, view moved on, or data arrived
		}
		kept = append(kept, q)
		n.request(ctx, n.fetcher.WantTip(ctx.Now(), q.tip.Lane, q.tip.Position, q.tip.Digest,
			[]types.NodeID{q.leader, q.tip.Lane}, q.since))
	}
	n.tipFetchQueue = kept
}

// cutProvider adapts Node to consensus.Provider.
type cutProvider Node

func (c *cutProvider) node() *Node { return (*Node)(c) }

func (c *cutProvider) AssembleCut(optimistic bool) types.Cut {
	// Cut assembly must not read shard-owned lane state: the control
	// plane's notice-fed tip snapshot stands in for it.
	nd := c.node()
	return nd.tips.assemble(nd.cfg.Self, c.optimisticFor(optimistic))
}

// optimisticFor returns the per-lane optimism predicate.
func (c *cutProvider) optimisticFor(optimistic bool) func(types.NodeID) bool {
	if !optimistic {
		return func(types.NodeID) bool { return false }
	}
	return c.optimistic
}

// optimistic reports whether lane l's uncertified tip may ride in this
// replica's cuts (§B.1 reputation downgrades individual lanes to
// certified tips).
func (c *cutProvider) optimistic(l types.NodeID) bool {
	nd := c.node()
	return nd.cfg.OptimisticTips && (!nd.cfg.Reputation || nd.reputation[l] > repOptimisticMin)
}

func (c *cutProvider) HasTipData(t types.TipRef) bool {
	return c.node().lanes.HasProposal(t)
}

// NewTipCount counts, lane by lane, the tips a cut assembled now would
// carry beyond base. Every start evaluation calls it — several per car —
// so it reads the tips in place instead of assembling a cut to count.
func (c *cutProvider) NewTipCount(base []types.Pos) int {
	nd := c.node()
	if n := nd.cfg.Committee.Size(); len(base) > n {
		base = base[:n]
	}
	count := 0
	for i, b := range base {
		l := types.NodeID(i)
		if nd.tips.cutTip(nd.cfg.Self, l, c.optimistic(l)).Position > b {
			count++
		}
	}
	return count
}

func (c *cutProvider) NextExec() types.Slot { return c.node().orderer.NextExec() }

// Fetcher exposes the sync manager (tests).
func (n *Node) Fetcher() *fetch.Manager { return n.fetcher }

// Machine exposes the execution machine (tests; nil without Execution).
func (n *Node) Machine() *exec.Machine { return n.machine }

// SnapshotFrontier returns the slot of the latest local snapshot (0 when
// none has been taken or installed).
func (n *Node) SnapshotFrontier() types.Slot { return n.lastSnap }

// TamperExecution makes every subsequently executed entry fold a
// corrupted digest into the AppHash chain — a Byzantine (or buggy)
// executor. Test hook for the divergence oracle; call before Init.
func (n *Node) TamperExecution() { n.tamper = true }
