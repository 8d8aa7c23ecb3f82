// Sharded data plane (runtime.Sharder implementation): Autobahn's §4
// architecture makes data dissemination embarrassingly parallel per lane,
// and this file exploits that on multi-core replicas. Lane traffic —
// cars, lane votes, PoAs, sync requests and sync payloads — is routed by
// the transport loop to W worker shards (lane i → shard i mod W, so each
// lane's FIFO order is preserved by construction), while consensus,
// certificates, commit notices, ordering and timers stay on the single
// serialized control loop.
//
// Ownership is strict: shard i alone touches the peer-lane views of its
// lanes (and, for the shard owning this replica's own lane, the own-lane
// production state); the control plane alone touches the consensus
// engine, orderer, fetcher and reputation. The only shared mutable
// structures are the proposal store and the journal, both internally
// synchronized. Everything else crosses the boundary by message passing
// over the normal delivery path, as self-addressed MsgInternal notices:
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
// consensus cuts from it — so the consensus engine never reads
// shard-owned lane state. Notices are coalesced per shard burst (one
// laneNotice per lane per FlushShard) to keep the control loop's event
// rate independent of the data rate.
//
// With Config.Shards <= 1 none of this is active and the node behaves
// exactly as the classic single-threaded protocol — the discrete-event
// simulator always runs in that mode.
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
	// tip without any data arriving (idle-lane certification): the
	// consensus engine must still be poked, as the classic path does.
	certAdvanced bool
	// hasGap reports a buffered out-of-order proposal; [gapFrom, gapTo]
	// anchored at gapAnchor is the missing range to fetch, as of the flush.
	hasGap         bool
	gapFrom, gapTo types.Pos
	gapAnchor      types.TipRef
	// repPenalties counts critical-path tip syncs served during the burst
	// (§B.1): the control plane downgrades the lane's reputation once per
	// served sync, exactly as the classic path does.
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

// assemble mirrors lane.State.AssembleCutFunc over the snapshot.
func (t *tipTable) assemble(self types.NodeID, optimisticFor func(types.NodeID) bool) types.Cut {
	tips := make([]types.TipRef, len(t.cert))
	for i := range tips {
		l := types.NodeID(i)
		tips[i] = t.cutTip(self, l, l != self && optimisticFor(l))
	}
	return types.Cut{Tips: tips}
}

// cutTip mirrors lane.State.CutTip over the snapshot.
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

// --- per-shard worker state ---

// shardState is the data owned by one shard worker: its gated sends
// (group commit) and its coalesced, not-yet-flushed control notices.
// Only that worker's goroutine touches it (the classic single-threaded
// fallback in OnMessage runs on the control goroutine, which under an
// unsharded runtime is the only goroutine).
type shardState struct {
	n   *Node
	idx int

	gate    gatedContext
	pending []pendingSend

	// Coalesced per-burst notices: one laneNotice per lane, merged across
	// the burst's events, flushed (and tip snapshots taken) in FlushShard.
	notices  map[types.NodeID]*laneNotice
	order    []types.NodeID // deterministic flush order
	ownDirty bool

	// lastRetxPos tracks the outstanding own car seen at the previous
	// retransmit tick (own-lane shard only).
	lastRetxPos types.Pos
}

// wrap installs group-commit gating around ctx for the duration of one
// shard event handler, mirroring Node.enter for the control loop.
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
	return int(n.cfg.Self) % n.cfg.Shards
}

// ShardOf implements runtime.Sharder: data-plane traffic is owned by its
// lane's shard; everything else (consensus, commit catch-up, internal
// control notices) is control.
func (n *Node) ShardOf(_ types.NodeID, m types.Message) int {
	if !n.sharded {
		return -1
	}
	w := n.cfg.Shards
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
		return n.BatchShard()
	default:
		return -1
	}
}

// OnShardMessage implements runtime.Sharder: one data-plane event on its
// owning shard's worker goroutine.
func (n *Node) OnShardMessage(ctx runtime.Context, shard int, from types.NodeID, m types.Message) {
	sh := n.shards[shard]
	ctx = sh.wrap(ctx)
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
		// An own-lane frontier rides to the own-lane shard (ShardOf keys
		// on the lane), where retiring commit-overtaken outstanding cars
		// may unblock fresh proposals — broadcast them from here, exactly
		// as handleVote does on this shard.
		for _, p := range n.lanes.OnCommitted(msg.lane, msg.pos, msg.digest) {
			n.stats.BatchesProposed.Add(1)
			ctx.Broadcast(p)
			sh.ownDirty = true
		}
	case *retxMsg:
		sh.retransmit(ctx)
	}
}

// OnShardBatch implements runtime.Sharder: own-lane car production.
func (n *Node) OnShardBatch(ctx runtime.Context, shard int, b *types.Batch) {
	sh := n.shards[shard]
	ctx = sh.wrap(ctx)
	if p := n.lanes.AddBatch(b); p != nil {
		n.stats.BatchesProposed.Add(1)
		ctx.Broadcast(p)
		sh.ownDirty = true
	}
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
	if n.halted.Load() {
		n.dropPending(&sh.pending)
		return
	}
	if len(sh.pending) > 0 {
		pend := sh.pending
		sh.pending = sh.pending[:0]
		for i := range pend {
			if pend[i].broadcast {
				ctx.Broadcast(pend[i].msg)
			} else {
				ctx.Send(pend[i].to, pend[i].msg)
			}
			pend[i] = pendingSend{}
		}
	}
	sh.flushNotices(ctx)
}

// flushNotices snapshots tips and hands the burst's coalesced notices to
// the control plane (self-addressed sends short-circuit in every mesh).
func (sh *shardState) flushNotices(ctx runtime.Context) {
	n := sh.n
	for _, l := range sh.order {
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
		ctx.Send(n.cfg.Self, no)
	}
	sh.order = sh.order[:0]
	if sh.ownDirty {
		sh.ownDirty = false
		ctx.Send(n.cfg.Self, &ownTipNotice{
			tip:  n.lanes.OptimisticTip(n.cfg.Self),
			cert: n.lanes.CertifiedTip(n.cfg.Self),
		})
	}
}

// --- shard-side handlers (mirrors of the classic control handlers,
//     minus every touch of control-owned state) ---

// handleProposal ingests a car on its lane's shard: FIFO votes go out
// directly; consensus-side consequences (fetch cancellation, vote
// retries, execution draining, gap fetches) ride the coalesced notice.
func (sh *shardState) handleProposal(ctx runtime.Context, p *types.Proposal, live bool) {
	n := sh.n
	n.countArrival(p, live)
	if p.Lane == n.cfg.Self {
		// Own-lane sync delivery (amnesia catch-up / lost self-fork): it
		// routes to the own-lane shard (ShardOf keys on the lane), so the
		// production state read in flushNotices stays shard-owned; the
		// ingest itself is store-only. dataArrived makes the control plane
		// re-drain execution, which is what the data was fetched for.
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

// handleVote processes a vote for an own car on the own-lane shard.
func (sh *shardState) handleVote(ctx runtime.Context, v *types.Vote) {
	n := sh.n
	props, poa, err := n.lanes.OnVote(v)
	if err != nil {
		return
	}
	for _, p := range props {
		n.stats.BatchesProposed.Add(1)
		ctx.Broadcast(p)
	}
	if poa != nil {
		ctx.Broadcast(poa)
	}
	if len(props) > 0 || poa != nil {
		sh.ownDirty = true
	}
}

// serveSync serves lane history straight off the shard — the multi-MB
// reply encoding this triggers in the mesh runs here too, not on the
// control loop. Reputation consequences hand off to control.
func (sh *shardState) serveSync(ctx runtime.Context, req *types.SyncRequest) {
	n := sh.n
	if n.cfg.Reputation && req.From == req.To && req.Lane != n.cfg.Self {
		sh.note(req.Lane).repPenalties++
	}
	for _, rep := range fetch.Serve(n.lanes.Store(), req) {
		n.stats.SyncRepliesServed.Add(1)
		ctx.Send(req.Requester, rep)
	}
}

// handleSyncReply ingests a sync reply's proposals into lane state on
// the shard (votes, buffering, store) and forwards the reply envelope to
// the control plane, where the fetch manager reconciles it against its
// outstanding requests and execution resumes.
//
// Chain validation runs FIRST, on the shard: beyond matching the
// classic path (which only ever ingested chain-valid replies), it is a
// shard-safety requirement — a hostile reply mixing lanes would
// otherwise make this worker touch peer-lane state owned by another
// shard. Invalid replies are dropped whole; the outstanding fetch
// retries from its tick, exactly as before.
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
	ctx.Send(sh.n.cfg.Self, &syncDone{from: from, rep: rep})
}

// retransmit re-broadcasts the oldest outstanding own car if it is still
// stuck a full tick later (control forwards the timer here because the
// outstanding-car state is shard-owned).
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
		n.wantGapAt(ctx, msg.lane, msg.gapFrom, msg.gapTo, msg.gapAnchor)
	}
	if msg.dataArrived {
		// Data arrival can unblock pending consensus votes and execution,
		// and new certified tips advance coverage — same consequences the
		// classic handler applies inline.
		n.fetcher.Settle(msg.lane, n.lanes.Store().Has)
		n.engine.OnTipsAdvanced()
		n.retryPendingVotes()
		n.drainExecution(ctx)
	} else if msg.certAdvanced {
		// Standalone PoA on an otherwise idle lane: the certified tip
		// moved, so coverage may have (the classic PoA handler pokes the
		// engine unconditionally).
		n.engine.OnTipsAdvanced()
	}
}
