// Package lane implements Autobahn's data dissemination layer (§5.1):
// every replica owns a lane — a chain of cars (Propose/Vote exchanges) —
// growing at its own pace, independent of consensus. f+1 votes form a
// Proof of Availability (PoA); chaining plus FIFO voting make a certified
// tip transitively prove the availability of the lane's entire history,
// which is what gives the consensus layer instant referencing,
// non-blocking sync and timely sync.
//
// The package is a pure state machine: methods consume protocol inputs
// and return the messages to emit, so the same code runs under the
// discrete-event simulator, the TCP runtime, and direct unit tests.
package lane

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/crypto"
	"repro/internal/types"
)

// Journal records the lane layer's safety-critical outputs before they
// are externalized: own-lane proposals (a restarted replica must never
// equivocate at a position it already proposed) and FIFO votes (it must
// never vote for a different digest at a voted position). core.Journal
// adapts this to the replica-wide durable journal; the default is a
// no-op.
type Journal interface {
	// OwnProposal records a newly produced own-lane proposal.
	OwnProposal(p *types.Proposal)
	// Vote records a FIFO vote cast for a peer-lane proposal.
	Vote(v *types.Vote)
}

type nopJournal struct{}

func (nopJournal) OwnProposal(*types.Proposal) {}
func (nopJournal) Vote(*types.Vote)            {}

// Config parameterizes a replica's lane state. The state checks no
// signature: every proposal, vote and PoA it is handed has passed
// PreVerifier (see preverify.go) at the runtime's ingress.
type Config struct {
	Committee types.Committee
	Self      types.NodeID
	Signer    crypto.Signer
	// Journal durably records proposals and votes before they leave the
	// replica (nil = no persistence).
	Journal Journal
}

const (
	// maxBuffered bounds out-of-order proposals buffered per lane
	// (Byzantine flooding protection; §A.4 bounded wastage).
	maxBuffered = 1024
	// maxCarBytes caps one car's merged payload. Without a cap, a lane
	// stalled behind congested voters merges its backlog into ever-larger
	// cars whose processing cost congests voters further — a feedback
	// loop that can melt the whole cluster under a blip at high load. The
	// remainder stays pending and rides the following cars.
	maxCarBytes = 4 << 20
)

func (c *Config) fill() {
	if c.Journal == nil {
		c.Journal = nopJournal{}
	}
}

// State is one replica's view of all n lanes plus the production state of
// its own lane.
type State struct {
	cfg   Config
	store *Store

	// Own lane production.
	nextPos     types.Pos
	nextSeq     uint64
	outstanding []*types.Proposal // un-certified own proposals, oldest first
	votes       map[types.Pos]map[types.NodeID]types.SigShare
	ownTip      types.TipRef // latest own proposal (possibly uncertified)
	ownCert     types.TipRef // latest certified own tip (PoA complete)
	pending     []*types.Batch
	// ownCommitted is the own lane's committed frontier — the depth
	// gauge's lower bound (certification alone does not retire a car's
	// client-visible backlog; only the commit does).
	ownCommitted types.Pos

	// depth mirrors the own lane's end-to-end backlog atomically: batches
	// waiting for a car plus cars proposed but not yet committed
	// (certified cars awaiting a cut included — under overload that is
	// where the queue lives). Admission control (internal/gateway) reads
	// it from client-facing goroutines while the state machine runs on
	// its event loop, so it cannot read the production state directly.
	depth atomic.Int64

	// Peer lane views (indexed by lane owner; own entry tracks commit GC).
	peers []*peerView
}

// Depth returns the own lane's end-to-end backlog: batches waiting for
// a car plus cars proposed but not yet committed. A single atomic load,
// safe from any goroutine — the gateway's overload signal for this lane.
func (s *State) Depth() int { return int(s.depth.Load()) }

func (s *State) updateDepth() {
	uncommitted := int64(s.nextPos-1) - int64(s.ownCommitted)
	if uncommitted < 0 {
		uncommitted = 0
	}
	s.depth.Store(int64(len(s.pending)) + uncommitted)
}

type peerView struct {
	votedPos    types.Pos
	votedDigest map[types.Pos]types.Digest
	buffered    map[types.Pos]*types.Proposal
	certTip     types.TipRef // highest certified tip observed (PoA known)
	optTip      types.TipRef // highest in-order received proposal
	committed   types.Pos    // last committed position (GC frontier)
}

// NewState builds lane state for one replica.
func NewState(cfg Config) *State {
	cfg.fill()
	peers := make([]*peerView, cfg.Committee.Size())
	for i := range peers {
		peers[i] = &peerView{
			votedDigest: make(map[types.Pos]types.Digest),
			buffered:    make(map[types.Pos]*types.Proposal),
			certTip:     types.TipRef{Lane: types.NodeID(i)},
			optTip:      types.TipRef{Lane: types.NodeID(i)},
		}
	}
	return &State{
		cfg:     cfg,
		store:   NewStore(),
		nextPos: 1,
		votes:   make(map[types.Pos]map[types.NodeID]types.SigShare),
		ownTip:  types.TipRef{Lane: cfg.Self},
		ownCert: types.TipRef{Lane: cfg.Self},
		peers:   peers,
	}
}

// Store exposes the proposal store (ordering and sync serving read it).
func (s *State) Store() *Store { return s.store }

// --- own lane production ---

// AddBatch queues a sealed batch; if the lane can start a new car now it
// returns the proposal to broadcast (nil otherwise).
func (s *State) AddBatch(b *types.Batch) *types.Proposal {
	s.pending = append(s.pending, b)
	p := s.tryPropose()
	s.updateDepth()
	return p
}

// PendingBatches returns the number of batches waiting for a car.
func (s *State) PendingBatches() int { return len(s.pending) }

// OldestOutstanding returns the oldest own car still awaiting its PoA
// (nil if none). The node rebroadcasts it if it lingers: the original
// broadcast or its votes may have been lost to a crash or partition.
func (s *State) OldestOutstanding() *types.Proposal {
	if len(s.outstanding) == 0 {
		return nil
	}
	return s.outstanding[0]
}

func (s *State) tryPropose() *types.Proposal {
	// One car in flight, as in the paper's prototype (§5.5.1): a new car
	// starts only once the previous car's PoA completed. (A restart can
	// restore several outstanding cars; a new one waits until each has
	// certified or committed.)
	if len(s.pending) == 0 || len(s.outstanding) > 0 {
		return nil
	}
	// Mini-batching (§6): a car carries the pending batches (up to the
	// size cap), so lane throughput is not capped at one mempool batch
	// per PoA round trip and a post-blip backlog drains in a few cars.
	take := len(s.pending)
	var sz uint64
	for i, b := range s.pending {
		sz += b.Bytes
		if sz > maxCarBytes && i > 0 {
			take = i
			break
		}
	}
	batch := types.MergeBatches(s.pending[:take])
	s.pending = s.pending[take:]

	var parent types.Digest
	var parentPoA *types.PoA
	if s.nextPos > 1 {
		parent = s.ownTip.Digest
		if s.ownCert.Position == s.nextPos-1 {
			parentPoA = s.ownCert.Cert
		}
	}
	p := &types.Proposal{
		Lane:      s.cfg.Self,
		Position:  s.nextPos,
		Parent:    parent,
		ParentPoA: parentPoA,
		Batch:     batch,
	}
	p.Sig = s.cfg.Signer.Sign(p.SigningBytes())
	d := p.Digest()

	// The proposer's own vote counts toward the PoA (it holds the data).
	self := types.Vote{Lane: s.cfg.Self, Position: p.Position, Digest: d, Voter: s.cfg.Self}
	share := types.SigShare{Signer: s.cfg.Self, Sig: s.cfg.Signer.Sign(self.SigningBytes())}
	s.votes[p.Position] = map[types.NodeID]types.SigShare{s.cfg.Self: share}

	s.outstanding = append(s.outstanding, p)
	s.ownTip = types.TipRef{Lane: s.cfg.Self, Position: p.Position, Digest: d}
	s.nextPos++
	s.store.Put(p)
	s.cfg.Journal.OwnProposal(p)
	return p
}

// OnVote processes a vote for one of this replica's own proposals. When
// votes complete PoAs it returns the new proposals to broadcast (each
// completed PoA rides in its successor's ParentPoA field) and — if the
// newest PoA has no successor batch yet — that PoA to broadcast standalone
// so peers still learn the new certified tip (§5.1 step 3). Errors
// indicate invalid votes (ignored inputs).
func (s *State) OnVote(v *types.Vote) ([]*types.Proposal, *types.PoA, error) {
	if v.Lane != s.cfg.Self {
		return nil, nil, fmt.Errorf("lane: vote for %s routed to %s", v.Lane, s.cfg.Self)
	}
	idx := -1
	for i, p := range s.outstanding {
		if p.Position == v.Position {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, nil, nil // vote for an already-certified car: benign
	}
	p := s.outstanding[idx]
	if v.Digest != p.Digest() {
		return nil, nil, fmt.Errorf("lane: vote digest mismatch at pos %d", v.Position)
	}
	if !s.cfg.Committee.Valid(v.Voter) {
		return nil, nil, fmt.Errorf("lane: vote from unknown replica %s", v.Voter)
	}
	set := s.votes[v.Position]
	if _, dup := set[v.Voter]; dup {
		return nil, nil, nil
	}
	set[v.Voter] = types.SigShare{Signer: v.Voter, Sig: v.Sig}

	// Certify from the oldest outstanding car forward; with several
	// outstanding cars (restored after a restart) one vote can unblock a
	// cascade of completions.
	var props []*types.Proposal
	var lastPoA *types.PoA
	for len(s.outstanding) > 0 {
		head := s.outstanding[0]
		headSet := s.votes[head.Position]
		if len(headSet) < s.cfg.Committee.PoAQuorum() {
			break
		}
		shares := make([]types.SigShare, 0, len(headSet))
		for _, sh := range headSet {
			shares = append(shares, sh)
		}
		sortShares(shares)
		poa := &types.PoA{Lane: s.cfg.Self, Position: head.Position, Digest: head.Digest(), Shares: shares}
		delete(s.votes, head.Position)
		s.outstanding = s.outstanding[1:]
		s.ownCert = types.TipRef{Lane: s.cfg.Self, Position: poa.Position, Digest: poa.Digest, Cert: poa}
		lastPoA = poa
		if next := s.tryPropose(); next != nil {
			props = append(props, next)
			lastPoA = nil // the PoA travels inside next's ParentPoA
		}
	}
	s.updateDepth()
	return props, lastPoA, nil
}

// --- peer lanes ---

// ErrMissingParent marks proposals buffered for want of their parent.
var ErrMissingParent = errors.New("lane: missing parent, proposal buffered")

// OnProposal processes a data proposal from a peer lane (live broadcast or
// sync delivery). It returns the votes to send to the lane owner: possibly
// several, when the proposal fills a gap and unblocks buffered successors.
// ErrMissingParent reports buffering (the caller may schedule a sync).
func (s *State) OnProposal(p *types.Proposal) ([]*types.Vote, error) {
	if !s.cfg.Committee.Valid(p.Lane) {
		return nil, fmt.Errorf("lane: proposal for unknown lane %s", p.Lane)
	}
	if p.Lane == s.cfg.Self {
		return nil, fmt.Errorf("lane: own proposal fed back")
	}
	if p.Position == 0 {
		return nil, fmt.Errorf("lane: proposal at position 0")
	}
	if err := p.Batch.Validate(); err != nil {
		return nil, err
	}
	pv := s.peers[p.Lane]

	// Record the parent PoA as the lane's latest certified tip (§5.1 step 2).
	if p.ParentPoA != nil && p.ParentPoA.Position > pv.certTip.Position {
		pv.certTip = types.TipRef{
			Lane: p.Lane, Position: p.ParentPoA.Position,
			Digest: p.ParentPoA.Digest, Cert: p.ParentPoA,
		}
	}
	s.store.Put(p)

	if p.Position <= pv.votedPos || p.Position <= pv.committed {
		// Duplicate or fork sibling at an old position. If this is a
		// retransmission of exactly what we voted for, re-emit the vote:
		// the original may have been lost to a crash or partition and
		// votes are idempotent (the proposer de-duplicates by signer).
		if d, ok := pv.votedDigest[p.Position]; ok && d == p.Digest() {
			v := &types.Vote{Lane: p.Lane, Position: p.Position, Digest: d, Voter: s.cfg.Self}
			v.Sig = s.cfg.Signer.Sign(v.SigningBytes())
			return []*types.Vote{v}, nil
		}
		return nil, nil
	}
	if p.Position > pv.votedPos+1 {
		// Out of order: buffer (bounded) and wait for the gap to fill.
		if len(pv.buffered) < maxBuffered {
			if _, exists := pv.buffered[p.Position]; !exists {
				pv.buffered[p.Position] = p
			}
		}
		return nil, ErrMissingParent
	}
	return s.voteChain(pv, p), nil
}

// voteChain votes for p and for any buffered successors it unblocks.
func (s *State) voteChain(pv *peerView, p *types.Proposal) []*types.Vote {
	var out []*types.Vote
	for p != nil {
		if !s.fifoOK(pv, p) {
			// Fork at the head position: store only, stop the chain.
			break
		}
		d := p.Digest()
		v := &types.Vote{Lane: p.Lane, Position: p.Position, Digest: d, Voter: s.cfg.Self}
		v.Sig = s.cfg.Signer.Sign(v.SigningBytes())
		s.cfg.Journal.Vote(v)
		out = append(out, v)
		pv.votedPos = p.Position
		pv.votedDigest[p.Position] = d
		pv.optTip = types.TipRef{Lane: p.Lane, Position: p.Position, Digest: d}
		next, ok := pv.buffered[p.Position+1]
		if !ok {
			break
		}
		delete(pv.buffered, p.Position+1)
		p = next
	}
	return out
}

// fifoOK enforces in-order voting: the proposal's parent must be exactly
// what this replica voted for (or the committed chain) at position-1.
func (s *State) fifoOK(pv *peerView, p *types.Proposal) bool {
	if p.Position == 1 {
		return p.Parent.IsZero()
	}
	prev, ok := pv.votedDigest[p.Position-1]
	if !ok {
		return false
	}
	return prev == p.Parent
}

// IngestOwn stores an own-lane proposal learned back from peers (sync
// delivery only). A replica normally never re-ingests its own lane —
// everything it produces is stored at production time — but two recovery
// cases must accept committed own-lane data from outside: an amnesiac
// restart (the journal was lost, yet pre-crash cars committed and must be
// re-fetched to execute), and a self-equivocated fork losing the commit
// race to the copy sent elsewhere (§A.4 — only a Byzantine replica can
// be in this position, but its execution wedging forever on its own lie
// would make every local commit observer stall with it). Production
// state (positions, outstanding cars, votes, tips) is untouched: this is
// store-only, for execution.
func (s *State) IngestOwn(p *types.Proposal) error {
	if p.Lane != s.cfg.Self {
		return fmt.Errorf("lane: IngestOwn of lane %s at %s", p.Lane, s.cfg.Self)
	}
	if p.Position == 0 {
		return fmt.Errorf("lane: proposal at position 0")
	}
	if err := p.Batch.Validate(); err != nil {
		return err
	}
	s.store.Put(p)
	return nil
}

// OnPoA ingests a standalone PoA broadcast (flushed when a lane goes
// idle). The data need not be present locally — certified tips are
// usable for cuts without it.
func (s *State) OnPoA(poa *types.PoA) error {
	if !s.cfg.Committee.Valid(poa.Lane) {
		return fmt.Errorf("lane: PoA for unknown lane %s", poa.Lane)
	}
	if poa.Lane == s.cfg.Self {
		if poa.Position > s.ownCert.Position {
			s.ownCert = types.TipRef{Lane: poa.Lane, Position: poa.Position, Digest: poa.Digest, Cert: poa}
		}
		return nil
	}
	pv := s.peers[poa.Lane]
	if poa.Position > pv.certTip.Position {
		pv.certTip = types.TipRef{Lane: poa.Lane, Position: poa.Position, Digest: poa.Digest, Cert: poa}
	}
	return nil
}

// --- tips, availability ---

// CertifiedTip returns the highest certified tip known for a lane.
func (s *State) CertifiedTip(l types.NodeID) types.TipRef {
	if l == s.cfg.Self {
		return s.ownCert
	}
	return s.peers[l].certTip
}

// OptimisticTip returns the highest in-order received proposal of a lane
// (used by the §5.5.2 optimistic-tips optimization). Falls back to the
// certified tip when nothing newer was received.
func (s *State) OptimisticTip(l types.NodeID) types.TipRef {
	if l == s.cfg.Self {
		return s.ownTip
	}
	pv := s.peers[l]
	if pv.optTip.Position > pv.certTip.Position {
		return pv.optTip
	}
	return pv.certTip
}

// HasProposal reports whether the replica locally possesses the proposal
// identified by a tip reference (vacuously true for genesis tips).
func (s *State) HasProposal(t types.TipRef) bool {
	if t.Empty() {
		return true
	}
	return s.store.Has(t.Lane, t.Position, t.Digest)
}

// VotedPos returns the highest contiguous voted position for a peer lane
// (own lane: highest proposed position).
func (s *State) VotedPos(l types.NodeID) types.Pos {
	if l == s.cfg.Self {
		return s.nextPos - 1
	}
	return s.peers[l].votedPos
}

// BufferedGap reports, for a peer lane, the lowest buffered out-of-order
// proposal and whether a gap currently exists (used to schedule syncs).
func (s *State) BufferedGap(l types.NodeID) (from, to types.Pos, tip types.TipRef, ok bool) {
	if l == s.cfg.Self {
		return 0, 0, types.TipRef{}, false
	}
	pv := s.peers[l]
	if len(pv.buffered) == 0 {
		return 0, 0, types.TipRef{}, false
	}
	lowest := types.Pos(0)
	var lowProp *types.Proposal
	for pos, p := range pv.buffered {
		if lowest == 0 || pos < lowest {
			lowest = pos
			lowProp = p
		}
	}
	// The gap spans (votedPos, lowest-1]; the buffered proposal's parent
	// link anchors the chain we must fetch.
	start := maxPos(pv.votedPos, pv.committed) + 1
	if lowest-1 < start {
		return 0, 0, types.TipRef{}, false
	}
	anchor := types.TipRef{Lane: l, Position: lowest - 1, Digest: lowProp.Parent, Cert: lowProp.ParentPoA}
	return start, lowest - 1, anchor, true
}

// OnCommitted informs the lane layer that `lane` committed through
// (pos, digest): the voting frontier adopts the committed chain (so FIFO
// voting continues from it even across forks healed by sync), buffered
// and fork state below it is garbage collected (§A.4).
//
// For the own lane, a commit can overtake local PoA assembly: a restarted
// replica's pre-crash cars commit from PoAs its peers already held, while
// the peers have GC'd their vote bookkeeping below the committed frontier
// and will never re-vote for a retransmission (OnProposal's duplicate
// branch finds no recorded digest). Waiting for those PoAs would wedge
// the outstanding window — and with it car production — forever. A commit
// subsumes certification, so committed cars retire from the pipeline
// here, and any cars that unblocks are returned for broadcast (nil in
// the steady state, where certification always runs ahead of commit).
func (s *State) OnCommitted(lane types.NodeID, pos types.Pos, digest types.Digest) []*types.Proposal {
	if pos == 0 {
		return nil
	}
	if lane == s.cfg.Self {
		if pos > s.ownCommitted {
			s.ownCommitted = pos
		}
		// Proposals themselves are retained for sync serving (see below);
		// only the outstanding window and its vote shares are reclaimed.
		var props []*types.Proposal
		for len(s.outstanding) > 0 && s.outstanding[0].Position <= pos {
			delete(s.votes, s.outstanding[0].Position)
			s.outstanding = s.outstanding[1:]
			if next := s.tryPropose(); next != nil {
				props = append(props, next)
			}
		}
		s.updateDepth()
		return props
	}
	pv := s.peers[lane]
	if pos <= pv.committed {
		return nil
	}
	pv.committed = pos
	if pv.votedPos < pos {
		pv.votedPos = pos
	}
	pv.votedDigest[pos] = digest
	for p := range pv.votedDigest {
		if p < pos {
			delete(pv.votedDigest, p)
		}
	}
	for p := range pv.buffered {
		if p <= pos {
			delete(pv.buffered, p)
		}
	}
	// Note: certTip is NOT advanced to the committed frontier — it must
	// always carry a real PoA (a cert-less "certified" tip would poison
	// the next cut). A certTip lagging the committed frontier is harmless:
	// ordering ignores stale tips and coverage counts them as old.
	if pv.optTip.Position < pos {
		pv.optTip = types.TipRef{Lane: lane, Position: pos, Digest: digest}
	}
	// Committed proposals stay in the store: a replica returning from a
	// partition fetches history beneath the live frontier from its peers'
	// stores. Only vote bookkeeping and fork siblings below the frontier
	// are reclaimed here (§A.4). The store is truncated by the replica
	// (core), on one of two lines: with execution on, a snapshot margin
	// beneath each checkpoint's frontier; with execution off, the cars of
	// the last consensus.RetainSlots slots.
	return nil
}

// Restore rebuilds the lane state of a restarted replica from its
// journal: own-lane production resumes after the last journaled proposal
// (so the lane can never equivocate at a pre-crash position), and peer
// vote frontiers adopt the journaled FIFO votes (so the replica can never
// vote for a different digest at a pre-crash position — only re-emit the
// identical vote on retransmission). Must be called before any protocol
// input, with own proposals in ascending position order. ownCommitted is
// the own lane's executed frontier: proposals at or below it were
// committed pre-crash and are not re-certified (peers have GC'd their
// vote state below their committed frontiers), only retained for sync
// serving.
func (s *State) Restore(own []*types.Proposal, ownCommitted types.Pos, votes map[types.NodeID]map[types.Pos]types.Digest) {
	for _, p := range own {
		if p.Lane != s.cfg.Self || p.Position < s.nextPos {
			continue
		}
		s.store.Put(p)
		d := p.Digest()
		s.ownTip = types.TipRef{Lane: s.cfg.Self, Position: p.Position, Digest: d}
		s.nextPos = p.Position + 1
		if p.Position <= ownCommitted {
			continue
		}
		// Still uncertified: rejoin the outstanding pipeline (the car-retx
		// timer re-broadcasts it; peers re-emit their idempotent votes).
		self := types.Vote{Lane: s.cfg.Self, Position: p.Position, Digest: d, Voter: s.cfg.Self}
		share := types.SigShare{Signer: s.cfg.Self, Sig: s.cfg.Signer.Sign(self.SigningBytes())}
		s.votes[p.Position] = map[types.NodeID]types.SigShare{s.cfg.Self: share}
		s.outstanding = append(s.outstanding, p)
	}
	if ownCommitted > s.ownCommitted {
		s.ownCommitted = ownCommitted
	}
	s.updateDepth()
	lanes := make([]types.NodeID, 0, len(votes))
	for l := range votes {
		lanes = append(lanes, l)
	}
	sortLanes(lanes)
	for _, l := range lanes {
		m := votes[l]
		if !s.cfg.Committee.Valid(l) || l == s.cfg.Self {
			continue
		}
		pv := s.peers[l]
		for pos, d := range m {
			pv.votedDigest[pos] = d
			if pos > pv.votedPos {
				// FIFO voting journals every vote in order, so the highest
				// journaled position is the contiguous frontier.
				pv.votedPos = pos
			}
		}
		// certTip/optTip restart at genesis: certified tips must carry a
		// real PoA, and both rebuild from live traffic (ParentPoA, OnPoA).
	}
}

func maxPos(a, b types.Pos) types.Pos {
	if a > b {
		return a
	}
	return b
}

func sortLanes(lanes []types.NodeID) {
	// insertion sort: committee sizes are small
	for i := 1; i < len(lanes); i++ {
		for j := i; j > 0 && lanes[j] < lanes[j-1]; j-- {
			lanes[j], lanes[j-1] = lanes[j-1], lanes[j]
		}
	}
}

func sortShares(shares []types.SigShare) {
	// insertion sort by signer: share sets are tiny (f+1)
	for i := 1; i < len(shares); i++ {
		for j := i; j > 0 && shares[j].Signer < shares[j-1].Signer; j-- {
			shares[j], shares[j-1] = shares[j-1], shares[j]
		}
	}
}
