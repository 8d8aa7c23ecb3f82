// Package hotstuff implements the paper's two HotStuff baselines (§6):
//
//   - VanillaHS: chained HotStuff where each proposal carries only the
//     issuing leader's own pending batches — data dissemination coupled to
//     consensus, the design whose blips cause hangovers (Figs. 1, 7, 8).
//   - BatchedHS: replicas stream batches continuously and leaders propose
//     digest references; replicas must fetch missing batches from the
//     leader *before voting* (synchronization on the timeout-critical
//     path), the design whose scaling degrades with n (Fig. 6).
//
// Two leader regimes reproduce the paper's blip scenarios: Rotating
// (pipelined; votes are eagerly forwarded only to the next leader, so one
// failure can trigger two timeouts — the "Dbl" blip of Fig. 7) and Stable
// (votes return to the current leader, who proposes a pipeline of blocks;
// the leader changes only on view change — single-timeout blips).
package hotstuff

import (
	"time"

	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/types"
)

// Variant selects the payload regime.
type Variant uint8

const (
	// Vanilla couples dissemination to consensus (own batches inline).
	Vanilla Variant = iota + 1
	// Batched decouples naively (streamed batches, digest references).
	Batched
)

// LeaderMode selects the leader regime.
type LeaderMode uint8

const (
	// Rotating pipelines views across rotating leaders (votes to next
	// leader).
	Rotating LeaderMode = iota + 1
	// Stable keeps one leader per view; views change only on timeouts.
	Stable
)

const (
	// maxInlineTx bounds a VanillaHS proposal's payload in transactions:
	// two full batches; partially filled delay-sealed batches merge up to
	// the cap, so sparse leader turns at large n are not starved by a
	// batch-count limit.
	maxInlineTx = 2000
	// maxRefs bounds a BatchedHS proposal's references — the paper notes
	// BatchedHS "must enforce a cap on mini-batch references per proposal
	// to avoid excessive synchronization".
	maxRefs = 32
)

// Config parameterizes a HotStuff replica.
type Config struct {
	Committee  types.Committee
	Self       types.NodeID
	Suite      crypto.Suite
	VerifySigs bool
	Variant    Variant
	LeaderMode LeaderMode
	// ViewTimeout is the base progress timer (default 1s, doubling).
	ViewTimeout time.Duration
	// Sink receives execution-ready batches.
	Sink runtime.CommitSink
}

func (c *Config) fill() {
	if c.Variant == 0 {
		c.Variant = Vanilla
	}
	if c.LeaderMode == 0 {
		c.LeaderMode = Rotating
	}
	if c.ViewTimeout == 0 {
		c.ViewTimeout = time.Second
	}
	if c.Sink == nil {
		c.Sink = runtime.NopSink
	}
}

// Timer tags.
const (
	tagViewTimer uint8 = iota + 1
)

// Node is one HotStuff replica.
type Node struct {
	cfg      Config
	signer   crypto.Signer
	verifier crypto.Verifier

	view        uint64 // pacemaker view
	consecutive int    // consecutive timeouts (timeout doubling)
	nextRound   Round  // stable mode: next block round to propose

	highQC      *QC
	lockedRound Round
	lastVoted   Round

	blocks   map[types.Digest]*Block
	genesis  types.Digest
	execHead types.Digest // highest executed block
	execRnd  Round

	votes    map[Round]map[types.NodeID]types.SigShare
	voteDig  map[Round]types.Digest
	newViews map[uint64]map[types.NodeID]*NewView

	// Vanilla payload.
	pendingOwn  []*types.Batch
	inflight    map[uint64]Round // own batch seq -> proposing round
	executedOwn map[uint64]bool  // own batch seqs already executed
	// forwardedOwn retains batches sent to a stable leader until they
	// execute, so leadership changes re-forward what a dead leader ate.
	forwardedOwn []*types.Batch
	// executedAll dedups executed batches by (origin, seq) so re-forwarded
	// duplicates are not proposed twice (Vanilla mode).
	executedAll map[[2]uint64]bool

	// Batched payload.
	batchStore  map[types.Digest]*types.Batch
	unproposed  []BatchRef
	refInflight map[types.Digest]Round
	executedRef map[types.Digest]bool
	// Execution queue of refs committed but awaiting data.
	execQueue []execItem
	// Pending votes blocked on missing batch data.
	pendingVote map[types.Digest]*Block

	stats Stats
	ctx   runtime.Context
}

type execItem struct {
	ref   BatchRef
	round Round
}

// Stats counts protocol events.
type Stats struct {
	BlocksProposed  uint64
	BlocksCommitted uint64
	BatchesExecuted uint64
	TxExecuted      uint64
	Timeouts        uint64
	BatchPulls      uint64
}

var _ runtime.Protocol = (*Node)(nil)

// NewNode builds a HotStuff replica.
func NewNode(cfg Config) *Node {
	cfg.fill()
	verifier := cfg.Suite.Verifier()
	if cfg.VerifySigs {
		// Memoized: a justify QC arrives in its block and again in every
		// NewView that carries it.
		verifier = crypto.NewVerifyCache(verifier, 0)
	}
	return &Node{
		cfg:         cfg,
		signer:      cfg.Suite.Signer(cfg.Self),
		verifier:    verifier,
		view:        1,
		nextRound:   1,
		blocks:      make(map[types.Digest]*Block),
		votes:       make(map[Round]map[types.NodeID]types.SigShare),
		voteDig:     make(map[Round]types.Digest),
		newViews:    make(map[uint64]map[types.NodeID]*NewView),
		inflight:    make(map[uint64]Round),
		executedOwn: make(map[uint64]bool),
		executedAll: make(map[[2]uint64]bool),
		batchStore:  make(map[types.Digest]*types.Batch),
		refInflight: make(map[types.Digest]Round),
		executedRef: make(map[types.Digest]bool),
		pendingVote: make(map[types.Digest]*Block),
	}
}

// Stats returns a counter snapshot.
func (n *Node) Stats() Stats { return n.stats }

// leaderOfView returns the proposer for a view.
func (n *Node) leaderOfView(v uint64) types.NodeID {
	return types.NodeID(v % uint64(n.cfg.Committee.Size()))
}

// voteTarget returns where votes for a block in view v are sent: the next
// leader under rotation (pipelining), the current leader when stable.
func (n *Node) voteTarget(v uint64) types.NodeID {
	if n.cfg.LeaderMode == Rotating {
		return n.leaderOfView(v + 1)
	}
	return n.leaderOfView(v)
}

// Init starts the first view's timer; the first leader proposes
// immediately (nothing to wait for at genesis).
func (n *Node) Init(ctx runtime.Context) {
	n.ctx = ctx
	n.armTimer(ctx)
	if n.leaderOfView(n.view) == n.cfg.Self {
		n.propose(ctx)
	}
}

func (n *Node) armTimer(ctx runtime.Context) {
	shift := n.consecutive
	if shift > 6 {
		shift = 6
	}
	d := n.cfg.ViewTimeout << shift
	ctx.SetTimer(d, runtime.TimerTag{Kind: tagViewTimer, A: n.view})
}

// OnClientBatch queues a sealed batch; BatchedHS also streams it. Under a
// stable leader, VanillaHS non-leaders forward their batches to the leader
// (only proposers disseminate data in this design, and only the leader
// proposes) — the single-broadcast bottleneck the paper describes.
func (n *Node) OnClientBatch(ctx runtime.Context, b *types.Batch) {
	n.ctx = ctx
	switch n.cfg.Variant {
	case Vanilla:
		leader := n.leaderOfView(n.view)
		if n.cfg.LeaderMode == Stable && leader != n.cfg.Self {
			n.forwardedOwn = append(n.forwardedOwn, b)
			ctx.Send(leader, &BatchMsg{Batch: b})
			return
		}
		n.pendingOwn = append(n.pendingOwn, b)
	case Batched:
		d := b.Digest()
		n.batchStore[d] = b
		n.unproposed = append(n.unproposed, BatchRef{Origin: b.Origin, Seq: b.Seq, Digest: d})
		ctx.Broadcast(&BatchMsg{Batch: b})
	}
}

// OnTimer fires the view progress timer.
func (n *Node) OnTimer(ctx runtime.Context, tag runtime.TimerTag) {
	n.ctx = ctx
	if tag.Kind != tagViewTimer || tag.A != n.view {
		return
	}
	n.stats.Timeouts++
	n.consecutive++
	nv := &NewView{Round: Round(n.view), HighQC: n.highQC, Voter: n.cfg.Self}
	nv.Sig = n.signer.Sign(nv.SigningBytes())
	ctx.Broadcast(nv)
	n.enterView(ctx, n.view+1)
	n.collectNewView(ctx, nv)
}

func (n *Node) enterView(ctx runtime.Context, v uint64) {
	if v <= n.view {
		return
	}
	leaderChanged := n.leaderOfView(v) != n.leaderOfView(n.view)
	n.view = v
	n.armTimer(ctx)
	if n.cfg.LeaderMode == Stable && n.leaderOfView(v) == n.cfg.Self {
		// A fresh stable leader proposes immediately from its highQC.
		n.propose(ctx)
	}
	if n.cfg.LeaderMode == Stable && n.cfg.Variant == Vanilla && leaderChanged {
		n.reforward(ctx)
	}
}

// reforward resends unexecuted forwarded batches to the new stable leader
// (the previous leader may have died holding them; clients re-submit in
// real deployments).
func (n *Node) reforward(ctx runtime.Context) {
	leader := n.leaderOfView(n.view)
	if leader == n.cfg.Self {
		for _, b := range n.forwardedOwn {
			if !n.executedOwn[b.Seq] {
				n.pendingOwn = append(n.pendingOwn, b)
			}
		}
		n.forwardedOwn = nil
		return
	}
	kept := n.forwardedOwn[:0]
	for _, b := range n.forwardedOwn {
		if n.executedOwn[b.Seq] {
			continue
		}
		ctx.Send(leader, &BatchMsg{Batch: b})
		kept = append(kept, b)
	}
	n.forwardedOwn = kept
}

// OnMessage dispatches peer messages.
func (n *Node) OnMessage(ctx runtime.Context, from types.NodeID, m types.Message) {
	n.ctx = ctx
	switch msg := m.(type) {
	case *Proposal:
		n.onProposal(ctx, from, msg.Block)
	case *Vote:
		n.onVote(ctx, from, msg)
	case *NewView:
		if from != msg.Voter {
			return
		}
		n.collectNewView(ctx, msg)
	case *BatchMsg:
		if n.cfg.Variant == Vanilla {
			// A forwarded batch under stable leadership: queue it if we
			// lead, else forward another hop (leadership may have moved).
			// Re-forwarded duplicates are filtered by (origin, seq).
			if n.leaderOfView(n.view) == n.cfg.Self {
				if n.executedAll[[2]uint64{uint64(msg.Batch.Origin), msg.Batch.Seq}] {
					return // already committed by a previous leader
				}
				for _, b := range n.pendingOwn {
					if b.Origin == msg.Batch.Origin && b.Seq == msg.Batch.Seq {
						return
					}
				}
				n.pendingOwn = append(n.pendingOwn, msg.Batch)
			} else {
				ctx.Send(n.leaderOfView(n.view), msg)
			}
			return
		}
		n.onBatchData(ctx, msg.Batch)
	case *BatchPull:
		var push BatchPush
		for _, ref := range msg.Refs {
			if b, ok := n.batchStore[ref.Digest]; ok {
				push.Batches = append(push.Batches, b)
			}
		}
		if len(push.Batches) > 0 {
			ctx.Send(msg.Requester, &push)
		}
	case *BatchPush:
		for _, b := range msg.Batches {
			n.onBatchData(ctx, b)
		}
	case *BlockPull:
		n.serveBlocks(ctx, msg)
	}
}

// --- proposing ---

func (n *Node) propose(ctx runtime.Context) {
	parentDig := n.genesisOrHighQCBlock()
	parent := n.blocks[parentDig]
	var round Round
	var justify *QC
	if parent != nil {
		justify = n.highQC
		round = parent.Round + 1
	} else {
		round = 1
	}
	if n.cfg.LeaderMode == Rotating {
		// One block per view; round tracks the view to keep the 3-chain
		// arithmetic aligned with view progression.
		if Round(n.view) > round {
			round = Round(n.view)
		}
	}
	if round < n.nextRound {
		round = n.nextRound
	}
	n.nextRound = round + 1

	blk := &Block{Round: round, Proposer: n.cfg.Self, Justify: justify}
	if parent != nil {
		blk.Parent = parentDig
	}
	switch n.cfg.Variant {
	case Vanilla:
		// Merge per origin up to the tx cap: batch identity (origin, seq)
		// must survive merging for dedup and metrics, and stable leaders
		// queue forwarded batches from several origins. Each proposal may
		// carry one merged batch per origin.
		txs := 0
		groups := make(map[types.NodeID][]*types.Batch)
		var order []types.NodeID
		taken := 0
		for _, b := range n.pendingOwn {
			if txs >= maxInlineTx {
				break
			}
			if _, ok := groups[b.Origin]; !ok {
				order = append(order, b.Origin)
			}
			groups[b.Origin] = append(groups[b.Origin], b)
			txs += int(b.Count)
			taken++
		}
		if taken > 0 {
			n.pendingOwn = n.pendingOwn[taken:]
			for _, origin := range order {
				merged := types.MergeBatches(groups[origin])
				blk.Batches = append(blk.Batches, merged)
				n.inflight[merged.Seq] = round
				n.batchStore[merged.Digest()] = merged
			}
		}
	case Batched:
		take := min(len(n.unproposed), maxRefs)
		blk.Refs = n.unproposed[:take:take]
		n.unproposed = n.unproposed[take:]
		for _, r := range blk.Refs {
			n.refInflight[r.Digest] = round
		}
	}
	blk.Sig = n.signer.Sign(blk.SigningBytes())
	n.stats.BlocksProposed++
	ctx.Broadcast(&Proposal{Block: blk})
	n.onProposal(ctx, n.cfg.Self, blk)
}

func (n *Node) genesisOrHighQCBlock() types.Digest {
	if n.highQC != nil {
		return n.highQC.Block
	}
	return types.ZeroDigest
}

// --- block handling & voting ---

func (n *Node) onProposal(ctx runtime.Context, from types.NodeID, blk *Block) {
	if blk.Proposer != from {
		return
	}
	d := blk.Digest()
	if _, dup := n.blocks[d]; dup {
		return
	}
	// Validate the justify QC and adopt it.
	if blk.Justify != nil {
		if blk.Justify.Block != blk.Parent {
			return
		}
		n.adoptQC(ctx, blk.Justify)
	} else if !blk.Parent.IsZero() {
		return
	}
	n.blocks[d] = blk

	// Track payload references for duplicate suppression and requeueing.
	for _, r := range blk.Refs {
		if _, ok := n.refInflight[r.Digest]; !ok {
			n.refInflight[r.Digest] = blk.Round
		}
		// Drop from our own unproposed queue if another leader beat us.
		for i, u := range n.unproposed {
			if u.Digest == r.Digest {
				n.unproposed = append(n.unproposed[:i], n.unproposed[i+1:]...)
				break
			}
		}
	}
	for _, b := range blk.Batches {
		n.batchStore[b.Digest()] = b
	}

	// Pacemaker: a valid block for a newer view pulls us forward (its
	// justify proves 2f+1 progressed past our view).
	if n.cfg.LeaderMode == Rotating && uint64(blk.Round) > n.view {
		n.view = uint64(blk.Round)
		n.armTimer(ctx)
	}

	n.tryVote(ctx, blk)
	n.drainExecQueue(ctx)
}

// tryVote applies the chained-HotStuff vote rule and the BatchedHS data
// availability rule.
func (n *Node) tryVote(ctx runtime.Context, blk *Block) {
	if blk.Round <= n.lastVoted {
		return
	}
	// Safety: extend the locked branch or justify must outrank the lock.
	if blk.Justify == nil {
		if !blk.Parent.IsZero() {
			return
		}
	} else if blk.Justify.Round < n.lockedRound {
		return
	}
	// BatchedHS: all referenced batches must be locally present before
	// voting (synchronization on the timeout-critical path).
	if n.cfg.Variant == Batched {
		var missing []BatchRef
		for _, r := range blk.Refs {
			if _, ok := n.batchStore[r.Digest]; !ok {
				missing = append(missing, r)
			}
		}
		if len(missing) > 0 {
			n.pendingVote[blk.Digest()] = blk
			n.stats.BatchPulls++
			ctx.Send(blk.Proposer, &BatchPull{Refs: missing, Requester: n.cfg.Self})
			return
		}
	}
	n.lastVoted = blk.Round
	v := &Vote{Round: blk.Round, Block: blk.Digest(), Voter: n.cfg.Self}
	v.Sig = n.signer.Sign(v.SigningBytes())
	target := n.voteTarget(uint64(blk.Round))
	if n.cfg.LeaderMode == Stable {
		target = n.leaderOfView(n.view)
	}
	if target == n.cfg.Self {
		n.collectVote(ctx, v)
	} else {
		ctx.Send(target, v)
	}
}

func (n *Node) onBatchData(ctx runtime.Context, b *types.Batch) {
	d := b.Digest()
	if _, dup := n.batchStore[d]; dup {
		return
	}
	n.batchStore[d] = b
	if b.Origin != n.cfg.Self {
		// Candidate for our own future proposals unless already in chain.
		if _, inflight := n.refInflight[d]; !inflight && !n.executedRef[d] {
			n.unproposed = append(n.unproposed, BatchRef{Origin: b.Origin, Seq: b.Seq, Digest: d})
		}
	}
	// Unblock pending votes and stalled execution.
	for bd, blk := range n.pendingVote {
		ready := true
		for _, r := range blk.Refs {
			if _, ok := n.batchStore[r.Digest]; !ok {
				ready = false
				break
			}
		}
		if ready {
			delete(n.pendingVote, bd)
			n.tryVote(ctx, blk)
		}
	}
	n.drainExecQueue(ctx)
}

// --- votes, QCs, commits ---

func (n *Node) onVote(ctx runtime.Context, from types.NodeID, v *Vote) {
	if from != v.Voter {
		return
	}
	n.collectVote(ctx, v)
}

func (n *Node) collectVote(ctx runtime.Context, v *Vote) {
	if dig, ok := n.voteDig[v.Round]; ok && dig != v.Block {
		return
	}
	n.voteDig[v.Round] = v.Block
	set := n.votes[v.Round]
	if set == nil {
		set = make(map[types.NodeID]types.SigShare)
		n.votes[v.Round] = set
	}
	if _, dup := set[v.Voter]; dup {
		return
	}
	set[v.Voter] = types.SigShare{Signer: v.Voter, Sig: v.Sig}
	if len(set) < n.cfg.Committee.Quorum() {
		return
	}
	qc := &QC{Round: v.Round, Block: v.Block}
	for _, id := range n.cfg.Committee.Nodes() {
		if sh, ok := set[id]; ok {
			qc.Shares = append(qc.Shares, sh)
		}
	}
	delete(n.votes, v.Round)
	n.adoptQC(ctx, qc)
	// Progress: the QC holder proposes the next block. Rotating: we are
	// leader(view+1) and the QC is our ticket. Stable: we are the current
	// leader extending our pipeline.
	switch n.cfg.LeaderMode {
	case Rotating:
		if n.leaderOfView(uint64(qc.Round)+1) == n.cfg.Self {
			n.enterViewQuiet(ctx, uint64(qc.Round)+1)
			n.propose(ctx)
		}
	case Stable:
		if n.leaderOfView(n.view) == n.cfg.Self {
			n.propose(ctx)
		}
	}
}

// enterViewQuiet advances the pacemaker on progress (QC), resetting the
// timeout backoff.
func (n *Node) enterViewQuiet(ctx runtime.Context, v uint64) {
	if v <= n.view {
		return
	}
	n.view = v
	n.consecutive = 0
	n.armTimer(ctx)
}

func (n *Node) adoptQC(ctx runtime.Context, qc *QC) {
	if n.highQC == nil || qc.Round > n.highQC.Round {
		n.highQC = qc
	}
	// Locking (2-chain) and commit (3-chain, consecutive rounds).
	b := n.blocks[qc.Block]
	if b == nil {
		// Parent unknown: pull the chain from any peer later; commits
		// will catch up. (Crash-fault experiments rarely hit this.)
		return
	}
	if p := n.blocks[b.Parent]; p != nil {
		if p.Round > n.lockedRound {
			n.lockedRound = p.Round
		}
		if g := n.blocks[p.Parent]; g != nil {
			if p.Round == b.Round-1 && g.Round == p.Round-1 {
				n.commit(ctx, g)
			}
		}
	}
	// Progress in rotating mode: everyone advances on seeing the QC via
	// the next proposal; the timer resets on commit instead.
	if n.cfg.LeaderMode == Rotating {
		n.enterViewQuiet(ctx, uint64(qc.Round))
	}
}

// commit finalizes blk and all its unexecuted ancestors, oldest first.
func (n *Node) commit(ctx runtime.Context, blk *Block) {
	if blk.Round <= n.execRnd && !n.execHead.IsZero() {
		return
	}
	var chain []*Block
	cur := blk
	for cur != nil && (n.execHead.IsZero() || cur.Round > n.execRnd) {
		chain = append(chain, cur)
		if cur.Parent.IsZero() {
			break
		}
		cur = n.blocks[cur.Parent]
	}
	// Oldest first.
	for i := len(chain) - 1; i >= 0; i-- {
		b := chain[i]
		n.stats.BlocksCommitted++
		for _, batch := range b.Batches {
			n.executeBatch(ctx, batch, b.Round)
		}
		for _, ref := range b.Refs {
			n.execQueue = append(n.execQueue, execItem{ref: ref, round: b.Round})
		}
	}
	n.execHead = blk.Digest()
	n.execRnd = blk.Round
	n.consecutive = 0
	n.armTimer(ctx)
	n.drainExecQueue(ctx)
	n.requeueOrphans(ctx)
}

// drainExecQueue executes committed BatchedHS refs strictly in order,
// stalling (and pulling) when data is missing — the post-commit
// synchronization hangover of naive decoupling.
func (n *Node) drainExecQueue(ctx runtime.Context) {
	for len(n.execQueue) > 0 {
		item := n.execQueue[0]
		if n.executedRef[item.ref.Digest] {
			n.execQueue = n.execQueue[1:]
			continue
		}
		b, ok := n.batchStore[item.ref.Digest]
		if !ok {
			return // head-of-line blocked until the data arrives
		}
		n.executedRef[item.ref.Digest] = true
		n.execQueue = n.execQueue[1:]
		n.executeBatch(ctx, b, item.round)
	}
}

func (n *Node) executeBatch(ctx runtime.Context, b *types.Batch, round Round) {
	key := [2]uint64{uint64(b.Origin), b.Seq}
	if n.executedAll[key] {
		return // duplicate via orphan re-proposal or re-forwarding
	}
	n.executedAll[key] = true
	if b.Origin == n.cfg.Self {
		n.executedOwn[b.Seq] = true
		delete(n.inflight, b.Seq)
	}
	n.stats.BatchesExecuted++
	n.stats.TxExecuted += uint64(b.Count)
	n.cfg.Sink.OnCommit(n.cfg.Self, ctx.Now(), runtime.Committed{
		Lane:     b.Origin,
		Position: types.Pos(b.Seq),
		Slot:     types.Slot(round),
		Batch:    b,
	})
}

// requeueOrphans returns payloads of abandoned blocks to the pending
// queues so they are eventually re-proposed.
func (n *Node) requeueOrphans(ctx runtime.Context) {
	_ = ctx
	if n.cfg.Variant == Vanilla {
		for seq, round := range n.inflight {
			if n.executedOwn[seq] {
				delete(n.inflight, seq)
				continue
			}
			if round+2 < n.execRnd {
				// Proposed long before the executed frontier yet never
				// executed: the block was orphaned. Re-propose.
				delete(n.inflight, seq)
				if b := n.findOwnBatch(seq); b != nil {
					n.pendingOwn = append([]*types.Batch{b}, n.pendingOwn...)
				}
			}
		}
		return
	}
	for dig, round := range n.refInflight {
		if n.executedRef[dig] {
			delete(n.refInflight, dig)
			continue
		}
		if round+2 < n.execRnd {
			delete(n.refInflight, dig)
			if b, ok := n.batchStore[dig]; ok {
				n.unproposed = append([]BatchRef{{Origin: b.Origin, Seq: b.Seq, Digest: dig}}, n.unproposed...)
			}
		}
	}
}

func (n *Node) findOwnBatch(seq uint64) *types.Batch {
	for _, b := range n.batchStore {
		if b.Origin == n.cfg.Self && b.Seq == seq {
			return b
		}
	}
	return nil
}

// --- view changes ---

func (n *Node) collectNewView(ctx runtime.Context, nv *NewView) {
	if nv.HighQC != nil {
		n.adoptQC(ctx, nv.HighQC)
	}
	v := uint64(nv.Round)
	set := n.newViews[v]
	if set == nil {
		set = make(map[types.NodeID]*NewView)
		n.newViews[v] = set
	}
	if _, dup := set[nv.Voter]; dup {
		return
	}
	set[nv.Voter] = nv
	if len(set) < n.cfg.Committee.Quorum() {
		return
	}
	delete(n.newViews, v)
	n.enterView(ctx, v+1)
	if n.leaderOfView(v+1) == n.cfg.Self {
		n.propose(ctx)
	}
}

// serveBlocks answers an ancestor pull with the requested chain (bounded).
func (n *Node) serveBlocks(ctx runtime.Context, pull *BlockPull) {
	cur, ok := n.blocks[pull.From]
	for i := 0; ok && i < 16; i++ {
		ctx.Send(pull.Requester, &Proposal{Block: cur})
		if cur.Parent.IsZero() {
			break
		}
		cur, ok = n.blocks[cur.Parent]
	}
}
