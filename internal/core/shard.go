// The data plane (runtime.Sharder implementation): Autobahn's §4
// architecture makes data dissemination embarrassingly parallel per lane
// while consensus must stay serialized, and this file is the lane half of
// that split. Lane traffic — cars, lane votes, PoAs, sync requests and
// sync payloads — is handled by W = max(Config.Shards, 1) shardStates
// (lane i → shard i mod W, so each lane's FIFO order is preserved by
// construction); consensus, certificates, commit notices, ordering and
// timers are handled by the control plane in node.go. There is one set of
// lane handlers, and it lives here.
//
// Ownership is strict: shard i alone touches the peer-lane views of its
// lanes (and, for the shard owning this replica's own lane, the own-lane
// production and retransmit state); the control plane alone touches the
// consensus engine, orderer, fetcher and reputation. The only shared
// mutable structures are the proposal store and the journal, both
// internally synchronized. Everything else crosses the boundary as one
// of five handoff messages:
//
//	shard → control: laneNotice (new certified/optimistic tips, data
//	                 arrival, detected gaps, reputation events),
//	                 ownTipNotice (own-lane tip advancement),
//	                 syncDone (fetch bookkeeping for an ingested reply)
//	control → shard: frontierMsg (committed frontier adoption + GC),
//	                 retxMsg (car-retransmit tick)
//
// The control plane keeps its own snapshot of every lane's tips (the
// tipTable), updated exclusively from these notices, and assembles
// consensus cuts and counts coverage from it — so the consensus engine
// never reads shard-owned lane state. Notices are coalesced per flush
// (one laneNotice per lane) to keep the control plane's event rate
// independent of the data rate.
//
// The handoff has two deliveries, and they are all that distinguishes
// the two ways a node runs:
//
//   - Workers (Config.Shards > 1 under a runtime that honors
//     runtime.Sharder): each shard runs on its own goroutine, fed by
//     OnShardMessage / OnShardBatch and flushed per burst by FlushShard.
//     A handoff is a self-addressed MsgInternal send over the normal
//     delivery path (toControl, toShard).
//   - Inline (no workers: the simulator, Shards <= 1, adversary
//     wrappers, any runtime without Sharder): a data-plane message
//     arrives in OnMessage and its shard handler runs right there, on
//     the control goroutine, followed at once by the shard's notice
//     flush. With Shards <= 1 a handoff is a direct call; with Shards > 1
//     it stays a self-addressed send, which the runtime delivers back
//     through OnMessage. Single-threaded, so shard ownership holds
//     vacuously. The handler runs under the control loop's own context:
//     with group commit its sends join the control plane's gated queue
//     and leave behind the one Journal.Sync of the burst's Flush — an
//     inline event costs no durability barrier of its own.
package core

import (
	"repro/internal/fetch"
	"repro/internal/lane"
	"repro/internal/runtime"
	"repro/internal/types"
)

// --- internal handoff messages (never encoded, self-addressed only) ---

// laneNotice carries one lane's data-plane progress from its shard to
// the control plane.
type laneNotice struct {
	lane types.NodeID
	// cert/opt are the lane's tip snapshots at flush time (cert carries a
	// real PoA or is genesis).
	cert, opt types.TipRef
	// livePos is the highest position the lane's live broadcast delivered
	// during the burst (0: none) — the fetch manager's in-flight frontier.
	livePos types.Pos
	// dataArrived reports that at least one proposal was ingested (vote
	// retries, execution draining and coverage may all be unblocked).
	dataArrived bool
	// certAdvanced reports a standalone PoA advanced the lane's certified
	// tip without any data arriving (idle-lane certification): coverage
	// may have moved, so the consensus engine must still be poked.
	certAdvanced bool
	// hasGap reports a buffered out-of-order proposal; [gapFrom, gapTo]
	// anchored at gapAnchor is the missing range to fetch, as of the flush.
	hasGap         bool
	gapFrom, gapTo types.Pos
	gapAnchor      types.TipRef
	// repPenalties counts critical-path tip syncs served during the burst
	// (§B.1): the control plane downgrades the lane's reputation once per
	// served sync.
	repPenalties int
}

func (*laneNotice) Type() types.MsgType { return types.MsgInternal }
func (*laneNotice) WireSize() int       { return 0 }

// ownTipNotice carries the own lane's tip advancement (new proposal or
// completed PoA) from the own-lane shard to the control plane.
type ownTipNotice struct {
	tip, cert types.TipRef
}

func (*ownTipNotice) Type() types.MsgType { return types.MsgInternal }
func (*ownTipNotice) WireSize() int       { return 0 }

// syncDone forwards an ingested sync reply to the control plane for
// fetch-manager bookkeeping (the proposals themselves were already fed
// into lane state on the shard).
type syncDone struct {
	from types.NodeID
	rep  *types.SyncReply
}

func (*syncDone) Type() types.MsgType { return types.MsgInternal }
func (*syncDone) WireSize() int       { return 0 }

// frontierMsg tells a lane's shard that the lane committed through
// (pos, digest): vote-frontier adoption and fork GC (§A.4).
type frontierMsg struct {
	lane   types.NodeID
	pos    types.Pos
	digest types.Digest
}

func (*frontierMsg) Type() types.MsgType { return types.MsgInternal }
func (*frontierMsg) WireSize() int       { return 0 }

// retxMsg forwards the car-retransmit tick to the own-lane shard.
type retxMsg struct{}

func (*retxMsg) Type() types.MsgType { return types.MsgInternal }
func (*retxMsg) WireSize() int       { return 0 }

// --- control-plane tip snapshot ---

// tipTable is the control plane's view of every lane's tips, fed only by
// shard notices (so cut assembly never reads shard-owned state). Tips
// advance monotonically; certified entries always carry a real PoA.
type tipTable struct {
	cert, opt       []types.TipRef
	ownTip, ownCert types.TipRef
}

func newTipTable(n int, self types.NodeID) *tipTable {
	t := &tipTable{cert: make([]types.TipRef, n), opt: make([]types.TipRef, n)}
	for i := range t.cert {
		t.cert[i] = types.TipRef{Lane: types.NodeID(i)}
		t.opt[i] = types.TipRef{Lane: types.NodeID(i)}
	}
	t.ownTip = types.TipRef{Lane: self}
	t.ownCert = types.TipRef{Lane: self}
	return t
}

func (t *tipTable) updateLane(l types.NodeID, cert, opt types.TipRef) {
	if cert.Cert != nil && cert.Position > t.cert[l].Position {
		t.cert[l] = cert
	}
	if opt.Position > t.opt[l].Position {
		t.opt[l] = opt
	}
}

// assemble builds this replica's current view of all lanes, for use as a
// consensus proposal (§5.2), with per-lane optimism — the hook for the
// §B.1 reputation mechanism, which falls back to certified tips for lanes
// that recently forced critical-path synchronization.
func (t *tipTable) assemble(self types.NodeID, optimisticFor func(types.NodeID) bool) types.Cut {
	tips := make([]types.TipRef, len(t.cert))
	for i := range tips {
		l := types.NodeID(i)
		tips[i] = t.cutTip(self, l, l != self && optimisticFor(l))
	}
	return types.Cut{Tips: tips}
}

// cutTip returns the tip a cut assembled now would carry for lane l: the
// leader tip for the own lane, else the optimistic or the certified tip.
// The coverage count reads it per lane on every start evaluation, so it
// builds nothing.
func (t *tipTable) cutTip(self, l types.NodeID, optimistic bool) types.TipRef {
	switch {
	case l == self:
		// Leader-tip rule (§5.5.2): the own lane may be referenced
		// uncertified — the proposer only hurts itself by lying.
		if t.ownTip.Position > t.ownCert.Position {
			return t.ownTip
		}
		return t.ownCert
	case optimistic && t.opt[l].Position > t.cert[l].Position:
		return t.opt[l]
	default:
		return t.cert[l]
	}
}

// --- per-shard state ---

// shardState is the data owned by one shard: its gated sends (group
// commit, worker delivery only), its coalesced, not-yet-flushed control
// notices and — on the own-lane shard — the retransmit bookkeeping. Only
// the goroutine running the shard touches it: its worker, or the control
// goroutine when handlers run inline.
type shardState struct {
	n *Node

	gate    gatedContext
	pending []pendingSend

	// Coalesced notices: one laneNotice per lane, merged across the events
	// since the last flush. order fixes a deterministic flush order; next
	// is flushNotices' cursor into it (see there for why it is state and
	// not a loop variable).
	notices  map[types.NodeID]*laneNotice
	order    []types.NodeID
	next     int
	ownDirty bool

	// lastRetxPos tracks the outstanding own car seen at the previous
	// retransmit tick (own-lane shard only): it is re-broadcast only if
	// still stuck a tick later.
	lastRetxPos types.Pos
}

// wrap installs group-commit gating around a worker's ctx for the
// duration of one shard event, as Node.enter does for the control loop.
func (sh *shardState) wrap(ctx runtime.Context) runtime.Context {
	if !sh.n.cfg.GroupCommit {
		return ctx
	}
	sh.gate.inner = ctx
	sh.gate.pending = &sh.pending
	return &sh.gate
}

// note returns (creating if needed) the coalesced notice for a lane.
func (sh *shardState) note(l types.NodeID) *laneNotice {
	if no, ok := sh.notices[l]; ok {
		return no
	}
	no := &laneNotice{lane: l}
	sh.notices[l] = no
	sh.order = append(sh.order, l)
	return no
}

// --- the two deliveries ---

// toControl hands a notice from a shard to the control plane.
func (sh *shardState) toControl(ctx runtime.Context, m types.Message) {
	if sh.n.sharded {
		ctx.Send(sh.n.cfg.Self, m) // short-circuits in every mesh
	} else {
		sh.n.onNotice(ctx, m)
	}
}

// toShard hands a frontierMsg or retxMsg from the control plane to the
// shard that owns its lane.
func (n *Node) toShard(ctx runtime.Context, m types.Message) {
	if n.sharded {
		ctx.Send(n.cfg.Self, m)
		return
	}
	sh := n.shards[n.laneShard(m)]
	sh.handle(ctx, n.cfg.Self, m)
	sh.flushNotices(ctx)
}

// --- runtime.Sharder implementation on Node ---

var _ runtime.Sharder = (*Node)(nil)

// DataShards implements runtime.Sharder.
func (n *Node) DataShards() int { return n.cfg.Shards }

// BatchShard implements runtime.Sharder: client batches go to the shard
// owning this replica's own lane (car production is serial per lane).
func (n *Node) BatchShard() int {
	if !n.sharded {
		return -1
	}
	return n.ownShard()
}

func (n *Node) ownShard() int { return int(n.cfg.Self) % len(n.shards) }

// ShardOf implements runtime.Sharder: data-plane traffic is owned by its
// lane's shard; everything else (consensus, commit catch-up, internal
// control notices) is control.
func (n *Node) ShardOf(_ types.NodeID, m types.Message) int {
	if !n.sharded {
		return -1
	}
	return n.laneShard(m)
}

// laneShard returns the shard that owns a data-plane message's lane, -1
// for a control-plane message.
func (n *Node) laneShard(m types.Message) int {
	w := len(n.shards)
	switch v := m.(type) {
	case *types.Proposal:
		return int(v.Lane) % w
	case *types.Vote:
		return int(v.Lane) % w // votes address the lane owner (us)
	case *types.PoA:
		return int(v.Lane) % w
	case *types.SyncRequest:
		return int(v.Lane) % w // serving reads only the (shared) store
	case *types.SyncReply:
		return int(v.Lane) % w
	case *frontierMsg:
		return int(v.lane) % w
	case *retxMsg:
		return n.ownShard()
	default:
		return -1
	}
}

// OnShardMessage implements runtime.Sharder: one data-plane event on its
// owning shard's worker goroutine.
func (n *Node) OnShardMessage(ctx runtime.Context, shard int, from types.NodeID, m types.Message) {
	sh := n.shards[shard]
	sh.handle(sh.wrap(ctx), from, m)
}

// OnShardBatch implements runtime.Sharder: own-lane car production.
func (n *Node) OnShardBatch(ctx runtime.Context, shard int, b *types.Batch) {
	sh := n.shards[shard]
	sh.addBatch(sh.wrap(ctx), b)
}

// FlushShard implements runtime.Sharder: the per-shard burst barrier.
// Order matters — journal sync first (write-before-externalize), then
// the burst's gated sends, then the coalesced control notices (whose tip
// snapshots are taken now, after every event of the burst applied).
func (n *Node) FlushShard(ctx runtime.Context, shard int) {
	sh := n.shards[shard]
	if n.cfg.GroupCommit {
		// A failed barrier is replica-fatal, exactly as in Flush: this
		// shard's gated sends are dropped, never released.
		if err := n.cfg.Journal.Sync(); err != nil {
			n.fatal(err)
		}
	}
	if n.release(ctx, &sh.pending) {
		sh.flushNotices(ctx)
	}
}

// flushNotices snapshots tips and hands the coalesced notices to the
// control plane.
//
// It is re-entrant. Delivered inline, a notice can drain execution, which
// returns a frontier to this same shard (toShard), whose flush lands here
// again while the outer call is mid-queue. So the queue is consumed
// through the shard's cursor, each notice unlinked before it is handed
// over: the inner call continues where the outer one stands — and picks
// up anything queued since — and the outer call then finds nothing left.
// Every notice is delivered exactly once, in queue order.
func (sh *shardState) flushNotices(ctx runtime.Context) {
	n := sh.n
	for sh.next < len(sh.order) {
		l := sh.order[sh.next]
		sh.next++
		no := sh.notices[l]
		delete(sh.notices, l)
		no.cert = n.lanes.CertifiedTip(l)
		no.opt = n.lanes.OptimisticTip(l)
		if no.hasGap {
			// The gap as it stands now: a sync reply later in the burst may
			// have closed it, and its syncDone is already on its way to the
			// control plane — a stale range arriving behind it would be
			// fetched a second time.
			no.gapFrom, no.gapTo, no.gapAnchor, no.hasGap = n.lanes.BufferedGap(l)
		}
		sh.toControl(ctx, no)
	}
	sh.order, sh.next = sh.order[:0], 0
	if sh.ownDirty {
		sh.ownDirty = false
		sh.toControl(ctx, &ownTipNotice{
			tip:  n.lanes.OptimisticTip(n.cfg.Self),
			cert: n.lanes.CertifiedTip(n.cfg.Self),
		})
	}
}

// --- lane handlers (they touch no control-owned state) ---

// handle runs one data-plane event on its lane's shard.
func (sh *shardState) handle(ctx runtime.Context, from types.NodeID, m types.Message) {
	n := sh.n
	switch msg := m.(type) {
	case *types.Proposal:
		sh.handleProposal(ctx, msg, true)
	case *types.Vote:
		sh.handleVote(ctx, msg)
	case *types.PoA:
		if err := n.lanes.OnPoA(msg); err == nil {
			if msg.Lane == n.cfg.Self {
				sh.ownDirty = true
			} else {
				sh.note(msg.Lane).certAdvanced = true
			}
		}
	case *types.SyncRequest:
		sh.serveSync(ctx, msg)
	case *types.SyncReply:
		sh.handleSyncReply(ctx, from, msg)
	case *frontierMsg:
		// Vote-frontier adoption + fork GC (§A.4). An own-lane frontier
		// rides to the own-lane shard (laneShard keys on the lane), where
		// retiring commit-overtaken outstanding cars (commit overtaking
		// certification after a restart) may unblock fresh proposals —
		// broadcast them like any other production.
		for _, p := range n.lanes.OnCommitted(msg.lane, msg.pos, msg.digest) {
			sh.broadcastCar(ctx, p)
		}
	case *retxMsg:
		sh.retransmit(ctx)
	}
}

// addBatch feeds a sealed client batch into the own lane (§5.1 step 1).
func (sh *shardState) addBatch(ctx runtime.Context, b *types.Batch) {
	if p := sh.n.lanes.AddBatch(b); p != nil {
		sh.broadcastCar(ctx, p)
	}
}

// broadcastCar sends a freshly started own car.
func (sh *shardState) broadcastCar(ctx runtime.Context, p *types.Proposal) {
	sh.n.stats.BatchesProposed.Add(1)
	ctx.Broadcast(p)
	sh.ownDirty = true
}

// handleProposal ingests a car (live broadcast or synced): FIFO votes go
// out directly; consensus-side consequences (fetch cancellation, vote
// retries, execution draining, gap fetches) ride the coalesced notice.
func (sh *shardState) handleProposal(ctx runtime.Context, p *types.Proposal, live bool) {
	n := sh.n
	n.countArrival(p, live)
	if p.Lane == n.cfg.Self {
		// Own-lane data arriving from outside: meaningless on the live path
		// (peers do not re-broadcast our cars), but sync deliveries must be
		// ingested store-only so execution of a committed own-lane chain
		// this replica no longer (amnesia) or never (a lost self-fork)
		// possessed can proceed — see lane.IngestOwn. dataArrived makes the
		// control plane re-drain execution, which is what the data was
		// fetched for.
		if !live && n.lanes.IngestOwn(p) == nil {
			sh.note(p.Lane).dataArrived = true
		}
		return
	}
	votes, err := n.lanes.OnProposal(p)
	for _, v := range votes {
		n.stats.VotesSent.Add(1)
		ctx.Send(p.Lane, v)
	}
	no := sh.note(p.Lane)
	if err == lane.ErrMissingParent && live {
		no.hasGap = true // localized at flush time, like the tips
	}
	if err == nil || err == lane.ErrMissingParent {
		no.dataArrived = true
		if live && p.Position > no.livePos {
			no.livePos = p.Position
		}
	}
}

// countArrival feeds the sync-traffic counters; it must run before the
// proposal is stored.
func (n *Node) countArrival(p *types.Proposal, live bool) {
	if p.Batch == nil {
		return
	}
	if !live {
		n.stats.SyncBytesReceived.Add(p.Batch.Bytes)
	}
	if n.lanes.Store().Has(p.Lane, p.Position, p.Digest()) {
		n.stats.DataBytesRedundant.Add(p.Batch.Bytes)
	}
}

// handleVote processes a vote for an own car.
func (sh *shardState) handleVote(ctx runtime.Context, v *types.Vote) {
	props, poa, err := sh.n.lanes.OnVote(v)
	if err != nil {
		return
	}
	for _, p := range props {
		sh.broadcastCar(ctx, p)
	}
	if poa != nil {
		ctx.Broadcast(poa)
		sh.ownDirty = true
	}
}

// serveSync serves lane history straight off the shard — under workers
// the multi-MB reply encoding this triggers in the mesh runs here too,
// not on the control loop. Reputation consequences hand off to control.
func (sh *shardState) serveSync(ctx runtime.Context, req *types.SyncRequest) {
	n := sh.n
	if n.cfg.Reputation && req.From == req.To && req.Lane != n.cfg.Self {
		// A point request for another lane's tip means a replica could
		// not vote on an optimistic tip we (presumably, as leader)
		// proposed: the lane's standing drops (§B.1).
		sh.note(req.Lane).repPenalties++
	}
	for _, rep := range fetch.Serve(n.lanes.Store(), req) {
		n.stats.SyncRepliesServed.Add(1)
		ctx.Send(req.Requester, rep)
	}
}

// handleSyncReply feeds a sync reply's proposals through the normal lane
// path (the store absorbs them and FIFO voting resumes where possible —
// a late reply to an abandoned request too: ingestion is idempotent and
// execution may be waiting on the data) and forwards the reply envelope
// to the control plane, where the fetch manager reconciles it against its
// outstanding requests and execution resumes. The syncDone goes ahead of
// the lane's coalesced notice on both deliveries — sent here, flushed
// later — so the reply is never flushed from inside this handler.
//
// Chain validation runs FIRST: only chain-valid replies are ever
// ingested, and under workers it is a shard-safety requirement too — a
// hostile reply mixing lanes would otherwise make this worker touch
// peer-lane state owned by another shard. Invalid replies are dropped
// whole; the outstanding fetch retries from its tick.
func (sh *shardState) handleSyncReply(ctx runtime.Context, from types.NodeID, rep *types.SyncReply) {
	if err := fetch.ValidateChain(rep); err != nil {
		return
	}
	for _, p := range rep.Proposals {
		if p.Lane != rep.Lane {
			return // unreachable after ValidateChain; defense in depth
		}
		sh.handleProposal(ctx, p, false)
	}
	sh.toControl(ctx, &syncDone{from: from, rep: rep})
}

// retransmit re-broadcasts the oldest outstanding own car if it is still
// stuck a full tick later: it has likely lost its broadcast or its votes.
func (sh *shardState) retransmit(ctx runtime.Context) {
	n := sh.n
	if p := n.lanes.OldestOutstanding(); p != nil {
		if p.Position == sh.lastRetxPos {
			ctx.Broadcast(p)
		}
		sh.lastRetxPos = p.Position
	} else {
		sh.lastRetxPos = 0
	}
}

// --- control-side notice handlers ---

// onNotice applies one shard → control handoff to control state.
func (n *Node) onNotice(ctx runtime.Context, m types.Message) {
	switch msg := m.(type) {
	case *laneNotice:
		n.onLaneNotice(ctx, msg)
	case *ownTipNotice:
		n.tips.ownTip, n.tips.ownCert = msg.tip, msg.cert
		n.engine.OnTipsAdvanced() // own leader tip advanced
	case *syncDone:
		n.syncIngested(ctx, msg.from, msg.rep)
	}
}

// onLaneNotice applies one lane's shard progress to control state.
func (n *Node) onLaneNotice(ctx runtime.Context, msg *laneNotice) {
	n.tips.updateLane(msg.lane, msg.cert, msg.opt)
	if msg.repPenalties > 0 && n.cfg.Reputation {
		n.reputation[msg.lane] -= repPenalty * msg.repPenalties
		if n.reputation[msg.lane] < 0 {
			n.reputation[msg.lane] = 0
		}
	}
	if msg.livePos > 0 {
		n.fetcher.NoteLive(ctx.Now(), msg.lane, msg.livePos)
	}
	if msg.hasGap {
		// Ask for the hole beneath the lane's buffered live cars, targeting
		// the certifiers of the lowest buffered proposal's parent (at least
		// one is correct and, by FIFO voting, holds the whole history).
		targets := []types.NodeID{msg.lane}
		if msg.gapAnchor.Cert != nil {
			targets = append(msg.gapAnchor.Cert.Signers(), msg.lane)
		}
		n.request(ctx, n.fetcher.Want(ctx.Now(), msg.lane, msg.gapFrom, msg.gapTo, msg.gapAnchor.Digest, targets))
	}
	if msg.dataArrived {
		// Data arrival can unblock pending consensus votes and execution,
		// and new certified tips (carried as ParentPoA) advance coverage.
		n.fetcher.Settle(msg.lane, n.lanes.Store().Has)
		n.engine.OnTipsAdvanced()
		n.engine.RetryPendingVotes() // ignores slots without pending votes
		n.drainExecution(ctx)
	} else if msg.certAdvanced {
		// Standalone PoA on an otherwise idle lane: the certified tip
		// moved, so coverage may have.
		n.engine.OnTipsAdvanced()
	}
}
