// Package bullshark implements the paper's DAG-BFT baseline (§6): a
// Narwhal-style certified DAG (per-round headers certified by 2f+1 votes,
// each referencing 2f+1 previous-round certificates) with the partially
// synchronous Bullshark commit rule (an anchor every two rounds, committed
// once f+1 next-round headers link to it; committed anchors order their
// causal history deterministically).
//
// Faithful to the systems the paper measures, data synchronization sits on
// the timeout-critical path: replicas vote for a header only once they
// hold all referenced batches and parent certificates, pulling what they
// miss from the header's author. Matching the paper's setup (single
// co-located worker), batches are broadcast directly and reliable
// broadcast at the worker layer is elided.
package bullshark

import (
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/types"
)

const (
	// maxRefsPerHeader bounds batch references per header — the
	// round-paced dissemination that slows post-partition recovery.
	maxRefsPerHeader = 32
	// anchorWait is how long a replica waits for the anchor certificate
	// beyond the 2f+1 quorum before advancing rounds, the
	// partially-synchronous Bullshark timeout.
	anchorWait = 150 * time.Millisecond
)

// Config parameterizes a Bullshark replica.
type Config struct {
	Committee  types.Committee
	Self       types.NodeID
	Suite      crypto.Suite
	VerifySigs bool
	// Sink receives execution-ready batches.
	Sink runtime.CommitSink
}

func (c *Config) fill() {
	if c.Sink == nil {
		c.Sink = runtime.NopSink
	}
}

const (
	tagAnchorWait uint8 = iota + 1
	tagHeaderRetx
)

// headerRetransmit is how often an uncertified header is re-broadcast
// (TCP would retransmit transparently; the simulator models broken links
// as losses, so the protocol resends — required for partition recovery).
const headerRetransmit = 500 * time.Millisecond

// pullThrottle bounds repeated BatchPull/CertPull for one pending header.
const pullThrottle = 300 * time.Millisecond

// Node is one Bullshark replica.
type Node struct {
	cfg      Config
	signer   crypto.Signer
	verifier crypto.Verifier

	round Round // current DAG round (next header to produce)

	headers map[types.Digest]*Header
	certs   map[Round]map[types.NodeID]*Cert
	// votes collected for our own current header
	myHeader   *Header
	myVotes    map[types.NodeID]types.SigShare
	myCertDone bool
	myCert     *Cert
	// lastRetxRound detects rounds stuck across retransmit ticks.
	lastRetxRound Round
	// votedFor tracks the first header voted per (round, author).
	votedFor map[Round]map[types.NodeID]types.Digest

	batchStore map[types.Digest]*types.Batch
	unproposed []BatchRef
	inDAG      map[types.Digest]Round // refs seen in any header

	// Headers whose vote is blocked on missing batches/parents.
	pendingVotes map[types.Digest]*pendingHeader
	// lastCertSync throttles round-range catch-up pulls.
	lastCertSync time.Duration

	// Commit state.
	lastAnchorRound Round
	ordered         map[types.Digest]bool // certs already ordered
	execQueue       []execItem
	executedRef     map[types.Digest]bool

	anchorTimerArmed bool

	stats Stats
}

type execItem struct {
	ref   BatchRef
	round Round
}

type pendingHeader struct {
	h        *Header
	lastPull time.Duration
}

// Stats counts protocol events.
type Stats struct {
	HeadersProposed  uint64
	CertsFormed      uint64
	AnchorsCommitted uint64
	BatchesExecuted  uint64
	TxExecuted       uint64
	BatchPulls       uint64
	CertPulls        uint64
}

var _ runtime.Protocol = (*Node)(nil)

// NewNode builds a Bullshark replica.
func NewNode(cfg Config) *Node {
	cfg.fill()
	verifier := cfg.Suite.Verifier()
	if cfg.VerifySigs {
		// Memoized: a certificate re-arrives in every CertPush that
		// carries it.
		verifier = crypto.NewVerifyCache(verifier, 0)
	}
	return &Node{
		cfg:          cfg,
		signer:       cfg.Suite.Signer(cfg.Self),
		verifier:     verifier,
		round:        1,
		headers:      make(map[types.Digest]*Header),
		certs:        make(map[Round]map[types.NodeID]*Cert),
		votedFor:     make(map[Round]map[types.NodeID]types.Digest),
		batchStore:   make(map[types.Digest]*types.Batch),
		inDAG:        make(map[types.Digest]Round),
		pendingVotes: make(map[types.Digest]*pendingHeader),
		ordered:      make(map[types.Digest]bool),
		executedRef:  make(map[types.Digest]bool),
	}
}

// Stats returns a counter snapshot.
func (n *Node) Stats() Stats { return n.stats }

// Round returns the replica's current DAG round (tests).
func (n *Node) Round() Round { return n.round }

// anchorAuthor returns the anchor (leader) of a wave; wave w covers
// rounds 2w-1 (anchor) and 2w (support).
func (n *Node) anchorAuthor(w uint64) types.NodeID {
	return types.NodeID(w % uint64(n.cfg.Committee.Size()))
}

func anchorRound(w uint64) Round { return Round(2*w - 1) }

func waveOf(r Round) (uint64, bool) {
	if r%2 == 1 {
		return (uint64(r) + 1) / 2, true
	}
	return uint64(r) / 2, false
}

// Init emits the genesis-round header and arms the retransmit loop.
func (n *Node) Init(ctx runtime.Context) {
	n.produceHeader(ctx)
	ctx.SetTimer(headerRetransmit, runtime.TimerTag{Kind: tagHeaderRetx})
}

// OnClientBatch stores and streams a batch, queueing its reference for
// this replica's next header.
func (n *Node) OnClientBatch(ctx runtime.Context, b *types.Batch) {
	d := b.Digest()
	n.batchStore[d] = b
	n.unproposed = append(n.unproposed, BatchRef{Origin: b.Origin, Seq: b.Seq, Digest: d})
	ctx.Broadcast(&BatchMsg{Batch: b})
}

// OnTimer handles the anchor-wait expiry (advance without the anchor) and
// the header retransmit loop.
func (n *Node) OnTimer(ctx runtime.Context, tag runtime.TimerTag) {
	switch tag.Kind {
	case tagAnchorWait:
		if Round(tag.A) != n.round {
			return
		}
		n.anchorTimerArmed = false
		n.tryAdvance(ctx, true)
	case tagHeaderRetx:
		if n.myHeader != nil && !n.myCertDone {
			// Our header never certified: the broadcast or its votes were
			// lost (partition) — repeat it.
			ctx.Broadcast(&HeaderMsg{Header: n.myHeader})
		} else if n.myCert != nil && n.round == n.lastRetxRound {
			// Certified but the round is stuck: peers may be missing our
			// certificate (cert broadcasts lost to a partition are never
			// resent otherwise, deadlocking round advancement).
			ctx.Broadcast(n.myCert)
		}
		n.lastRetxRound = n.round
		ctx.SetTimer(headerRetransmit, runtime.TimerTag{Kind: tagHeaderRetx})
	}
}

// OnMessage dispatches peer messages.
func (n *Node) OnMessage(ctx runtime.Context, from types.NodeID, m types.Message) {
	switch msg := m.(type) {
	case *HeaderMsg:
		n.onHeader(ctx, from, msg.Header)
	case *HeaderVote:
		n.onVote(ctx, from, msg)
	case *Cert:
		n.onCert(ctx, msg)
	case *BatchMsg:
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
	case *CertPull:
		var push CertPush
		appendCert := func(c *Cert) {
			push.Certs = append(push.Certs, c)
			if h, ok := n.headers[c.Header]; ok {
				push.Headers = append(push.Headers, h)
			}
		}
		for _, ref := range msg.Refs {
			if c := n.certOf(ref.Round, ref.Author); c != nil {
				appendCert(c)
			}
		}
		if msg.ToRound >= msg.FromRound && msg.ToRound > 0 {
			to := msg.ToRound
			if to > msg.FromRound+64 {
				to = msg.FromRound + 64 // bounded catch-up per request
			}
			for r := msg.FromRound; r <= to; r++ {
				for _, id := range n.cfg.Committee.Nodes() {
					if c := n.certOf(r, id); c != nil {
						appendCert(c)
					}
				}
			}
		}
		if len(push.Certs) > 0 {
			ctx.Send(msg.Requester, &push)
		}
	case *CertPush:
		for _, h := range msg.Headers {
			d := h.Digest()
			if _, dup := n.headers[d]; !dup {
				n.headers[d] = h
				n.noteHeaderRefs(h)
			}
		}
		for _, c := range msg.Certs {
			n.onCert(ctx, c)
		}
	}
}

func (n *Node) certOf(r Round, author types.NodeID) *Cert {
	if byAuthor, ok := n.certs[r]; ok {
		return byAuthor[author]
	}
	return nil
}

// --- header production & round advancement ---

func (n *Node) produceHeader(ctx runtime.Context) {
	take := min(len(n.unproposed), maxRefsPerHeader)
	h := &Header{
		Author: n.cfg.Self,
		Round:  n.round,
		Refs:   n.unproposed[:take:take],
	}
	n.unproposed = n.unproposed[take:]
	if n.round > 1 {
		for _, id := range n.cfg.Committee.Nodes() {
			if c := n.certOf(n.round-1, id); c != nil {
				h.Parents = append(h.Parents, c.Ref())
			}
		}
	}
	h.Sig = n.signer.Sign(h.SigningBytes())
	n.myHeader = h
	n.myVotes = make(map[types.NodeID]types.SigShare)
	n.myCertDone = false
	n.stats.HeadersProposed++
	d := h.Digest()
	n.headers[d] = h
	n.noteHeaderRefs(h)
	ctx.Broadcast(&HeaderMsg{Header: h})
	// Self-vote.
	v := &HeaderVote{Author: h.Author, Round: h.Round, Header: d, Voter: n.cfg.Self}
	v.Sig = n.signer.Sign(v.SigningBytes())
	n.collectVote(ctx, v)
}

func (n *Node) noteHeaderRefs(h *Header) {
	for _, r := range h.Refs {
		if _, ok := n.inDAG[r.Digest]; !ok {
			n.inDAG[r.Digest] = h.Round
		}
		for i, u := range n.unproposed {
			if u.Digest == r.Digest {
				n.unproposed = append(n.unproposed[:i], n.unproposed[i+1:]...)
				break
			}
		}
	}
}

// tryAdvance moves to the next round once 2f+1 certificates of the
// current round exist — waiting briefly for the anchor's certificate in
// anchor rounds (the partially-synchronous commit timeout). A straggler
// holding certificate quorums for several rounds (after catch-up sync)
// jumps forward without anchor waits.
func (n *Node) tryAdvance(ctx runtime.Context, timedOut bool) {
	for {
		byAuthor := n.certs[n.round]
		if len(byAuthor) < n.cfg.Committee.Quorum() {
			return
		}
		behind := len(n.certs[n.round+1]) > 0
		if !timedOut && !behind {
			// Wait for the anchor cert when closing an anchor round at
			// the live frontier.
			w, isAnchor := waveOf(n.round)
			if isAnchor {
				if _, ok := byAuthor[n.anchorAuthor(w)]; !ok {
					if !n.anchorTimerArmed {
						n.anchorTimerArmed = true
						ctx.SetTimer(anchorWait, runtime.TimerTag{Kind: tagAnchorWait, A: uint64(n.round)})
					}
					return
				}
			}
		}
		n.anchorTimerArmed = false
		timedOut = false
		n.round++
		n.produceHeader(ctx)
	}
}

// --- header votes & certificates ---

func (n *Node) onHeader(ctx runtime.Context, from types.NodeID, h *Header) {
	if h.Author != from || !n.cfg.Committee.Valid(h.Author) {
		return
	}
	d := h.Digest()
	if _, dup := n.headers[d]; dup {
		// Retransmitted header: if we already voted for it, our earlier
		// vote may have been lost (partition) — resend idempotently.
		if prev, voted := n.votedFor[h.Round][h.Author]; voted && prev == d && h.Author != n.cfg.Self {
			v := &HeaderVote{Author: h.Author, Round: h.Round, Header: d, Voter: n.cfg.Self}
			v.Sig = n.signer.Sign(v.SigningBytes())
			ctx.Send(h.Author, v)
		}
		return
	}
	if h.Round > 1 && len(h.Parents) < n.cfg.Committee.Quorum() {
		return
	}
	n.headers[d] = h
	n.noteHeaderRefs(h)
	n.tryVoteHeader(ctx, h)
}

// tryVoteHeader votes once per (round, author), only with all referenced
// batches and parent certificates locally present (data synchronization on
// the timeout-critical path, as in the measured systems).
func (n *Node) tryVoteHeader(ctx runtime.Context, h *Header) {
	byAuthor := n.votedFor[h.Round]
	if byAuthor == nil {
		byAuthor = make(map[types.NodeID]types.Digest)
		n.votedFor[h.Round] = byAuthor
	}
	d := h.Digest()
	if prev, voted := byAuthor[h.Author]; voted {
		if prev != d {
			return // equivocation: never vote twice per (round, author)
		}
		return
	}
	var missingBatches []BatchRef
	for _, r := range h.Refs {
		if _, ok := n.batchStore[r.Digest]; !ok {
			missingBatches = append(missingBatches, r)
		}
	}
	var missingCerts []CertRef
	for _, p := range h.Parents {
		if c := n.certOf(p.Round, p.Author); c == nil {
			missingCerts = append(missingCerts, p)
		}
	}
	if len(missingBatches) > 0 || len(missingCerts) > 0 {
		ph := n.pendingVotes[d]
		if ph == nil {
			// Grace period before the first pull: referenced batches are
			// usually already in flight (the broadcast races the header),
			// and eager pulls duplicate bulk traffic into an already-busy
			// ingest pipeline.
			ph = &pendingHeader{h: h, lastPull: ctx.Now()}
			n.pendingVotes[d] = ph
			return
		}
		if ctx.Now()-ph.lastPull >= pullThrottle {
			ph.lastPull = ctx.Now()
			if len(missingBatches) > 0 {
				n.stats.BatchPulls++
				ctx.Send(h.Author, &BatchPull{Refs: missingBatches, Requester: n.cfg.Self})
			}
			if len(missingCerts) > 0 {
				n.stats.CertPulls++
				ctx.Send(h.Author, &CertPull{Refs: missingCerts, Requester: n.cfg.Self})
			}
		}
		return
	}
	delete(n.pendingVotes, d)
	byAuthor[h.Author] = d
	v := &HeaderVote{Author: h.Author, Round: h.Round, Header: d, Voter: n.cfg.Self}
	v.Sig = n.signer.Sign(v.SigningBytes())
	if h.Author == n.cfg.Self {
		n.collectVote(ctx, v)
	} else {
		ctx.Send(h.Author, v)
	}
}

func (n *Node) retryPending(ctx runtime.Context) {
	for _, ph := range n.pendingVotes {
		n.tryVoteHeader(ctx, ph.h)
	}
}

func (n *Node) onBatchData(ctx runtime.Context, b *types.Batch) {
	d := b.Digest()
	if _, dup := n.batchStore[d]; dup {
		return
	}
	n.batchStore[d] = b
	if _, inDag := n.inDAG[d]; !inDag && !n.executedRef[d] && b.Origin != n.cfg.Self {
		// Not our batch to propose: Narwhal primaries only reference their
		// own worker's batches; nothing to queue.
		_ = d
	}
	n.retryPending(ctx)
	n.drainExecQueue(ctx)
}

func (n *Node) onVote(ctx runtime.Context, from types.NodeID, v *HeaderVote) {
	if from != v.Voter {
		return
	}
	n.collectVote(ctx, v)
}

func (n *Node) collectVote(ctx runtime.Context, v *HeaderVote) {
	if n.myHeader == nil || n.myCertDone || v.Round != n.myHeader.Round || v.Header != n.myHeader.Digest() {
		return
	}
	if _, dup := n.myVotes[v.Voter]; dup {
		return
	}
	n.myVotes[v.Voter] = types.SigShare{Signer: v.Voter, Sig: v.Sig}
	if len(n.myVotes) < n.cfg.Committee.Quorum() {
		return
	}
	c := &Cert{Author: n.cfg.Self, Round: v.Round, Header: v.Header}
	for _, id := range n.cfg.Committee.Nodes() {
		if sh, ok := n.myVotes[id]; ok {
			c.Shares = append(c.Shares, sh)
		}
	}
	n.stats.CertsFormed++
	n.myCertDone = true
	n.myCert = c
	ctx.Broadcast(c)
	n.onCert(ctx, c)
}

func (n *Node) onCert(ctx runtime.Context, c *Cert) {
	if !n.cfg.Committee.Valid(c.Author) || c.Round == 0 {
		return
	}
	byAuthor := n.certs[c.Round]
	if byAuthor == nil {
		byAuthor = make(map[types.NodeID]*Cert)
		n.certs[c.Round] = byAuthor
	}
	if _, dup := byAuthor[c.Author]; dup {
		return
	}
	byAuthor[c.Author] = c
	n.retryPending(ctx) // a parent cert may unblock header votes
	n.tryCommit(ctx, c)
	// Straggler catch-up: a cert far ahead of our round means we missed
	// intermediate rounds (crash/partition); pull them so we can rejoin.
	if c.Round > n.round && ctx.Now()-n.lastCertSync >= pullThrottle {
		n.lastCertSync = ctx.Now()
		n.stats.CertPulls++
		ctx.Send(c.Author, &CertPull{FromRound: n.round, ToRound: c.Round, Requester: n.cfg.Self})
	}
	n.tryAdvance(ctx, false)
}

// --- Bullshark commit rule ---

// tryCommit fires when support-round certs arrive: anchor A of wave w
// (round 2w-1) commits once f+1 certs of round 2w have A among their
// parents.
func (n *Node) tryCommit(ctx runtime.Context, c *Cert) {
	w, isAnchor := waveOf(c.Round)
	if isAnchor {
		return
	}
	ar := anchorRound(w)
	if ar <= n.lastAnchorRound {
		return
	}
	anchor := n.certOf(ar, n.anchorAuthor(w))
	if anchor == nil {
		return
	}
	support := 0
	for _, sc := range n.certs[c.Round] {
		h := n.headers[sc.Header]
		if h == nil {
			continue
		}
		for _, p := range h.Parents {
			if p.Author == anchor.Author && p.Round == ar && p.Header == anchor.Header {
				support++
				break
			}
		}
	}
	if support < n.cfg.Committee.PoAQuorum() { // f+1
		return
	}
	n.commitAnchor(ctx, anchor, w)
}

// commitAnchor commits the anchor of wave w, first committing any earlier
// uncommitted anchors reachable from it (wave order), then ordering each
// anchor's yet-unordered causal history by (round, author).
func (n *Node) commitAnchor(ctx runtime.Context, anchor *Cert, w uint64) {
	// Gather earlier reachable anchors.
	type pending struct {
		cert *Cert
		wave uint64
	}
	chain := []pending{{anchor, w}}
	cur := anchor
	for v := w - 1; v >= 1; v-- {
		ar := anchorRound(v)
		if ar <= n.lastAnchorRound {
			break
		}
		prev := n.certOf(ar, n.anchorAuthor(v))
		if prev == nil || !n.reachable(cur, prev) {
			continue
		}
		chain = append(chain, pending{prev, v})
		cur = prev
	}
	// Oldest wave first.
	sort.Slice(chain, func(i, j int) bool { return chain[i].wave < chain[j].wave })
	for _, p := range chain {
		n.orderHistory(ctx, p.cert)
		n.stats.AnchorsCommitted++
	}
	n.lastAnchorRound = anchorRound(w)
	n.drainExecQueue(ctx)
}

// reachable reports whether `to` is in `from`'s causal closure.
func (n *Node) reachable(from, to *Cert) bool {
	seen := make(map[types.Digest]bool)
	stack := []*Cert{from}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.Author == to.Author && c.Round == to.Round && c.Header == to.Header {
			return true
		}
		if c.Round <= to.Round {
			continue
		}
		h := n.headers[c.Header]
		if h == nil || seen[c.Header] {
			continue
		}
		seen[c.Header] = true
		for _, p := range h.Parents {
			if pc := n.certOf(p.Round, p.Author); pc != nil {
				stack = append(stack, pc)
			}
		}
	}
	return false
}

// orderHistory appends the anchor's unordered causal history to the
// execution queue, deterministically sorted by (round, author).
func (n *Node) orderHistory(ctx runtime.Context, anchor *Cert) {
	var collected []*Cert
	stack := []*Cert{anchor}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.ordered[c.Header] {
			continue
		}
		n.ordered[c.Header] = true
		collected = append(collected, c)
		if h := n.headers[c.Header]; h != nil {
			for _, p := range h.Parents {
				if pc := n.certOf(p.Round, p.Author); pc != nil && !n.ordered[pc.Header] {
					stack = append(stack, pc)
				}
			}
		}
	}
	sort.Slice(collected, func(i, j int) bool {
		if collected[i].Round != collected[j].Round {
			return collected[i].Round < collected[j].Round
		}
		return collected[i].Author < collected[j].Author
	})
	for _, c := range collected {
		h := n.headers[c.Header]
		if h == nil {
			continue
		}
		for _, r := range h.Refs {
			n.execQueue = append(n.execQueue, execItem{ref: r, round: c.Round})
		}
	}
}

// drainExecQueue executes ordered batches strictly in order, stalling on
// missing data (pulled via retryPending paths).
func (n *Node) drainExecQueue(ctx runtime.Context) {
	for len(n.execQueue) > 0 {
		item := n.execQueue[0]
		if n.executedRef[item.ref.Digest] {
			n.execQueue = n.execQueue[1:]
			continue
		}
		b, ok := n.batchStore[item.ref.Digest]
		if !ok {
			// Pull from the batch origin; execution resumes on arrival.
			n.stats.BatchPulls++
			ctx.Send(item.ref.Origin, &BatchPull{Refs: []BatchRef{item.ref}, Requester: n.cfg.Self})
			return
		}
		n.executedRef[item.ref.Digest] = true
		n.execQueue = n.execQueue[1:]
		n.stats.BatchesExecuted++
		n.stats.TxExecuted += uint64(b.Count)
		n.cfg.Sink.OnCommit(n.cfg.Self, ctx.Now(), runtime.Committed{
			Lane:     b.Origin,
			Position: types.Pos(b.Seq),
			Slot:     types.Slot(item.round),
			Batch:    b,
		})
	}
}

// DebugState exposes internals for tests.
func (n *Node) DebugState() (round Round, certDone bool, myVotes, pendingVotes, votedForRound int) {
	vf := 0
	if m, ok := n.votedFor[n.round]; ok {
		vf = len(m)
	}
	return n.round, n.myCertDone, len(n.myVotes), len(n.pendingVotes), vf
}
