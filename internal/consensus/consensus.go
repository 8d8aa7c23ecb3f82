// Package consensus implements Autobahn's consensus layer (§5.2–§5.4): a
// slot-based, PBFT-style two-phase agreement protocol over lane cuts, with
// a single-round fast path in gracious intervals, classical view changes
// with timeout certificates, and parallel multi-slot agreement bounded by
// k concurrent instances.
//
// The engine is a deterministic state machine: all network and timer
// effects flow through the Env interface, and lane state is read through
// the Provider interface, so the package is testable in isolation and
// identical under simulation and real transport.
package consensus

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// TimerKind discriminates engine timers.
type TimerKind uint8

const (
	// TimerView is the per-(slot, view) progress timer (§5.3).
	TimerView TimerKind = iota + 1
	// TimerFast is the leader's short wait for n votes beyond 2f+1 (§5.2.1).
	TimerFast
	// TimerCoverage relaxes the lane-coverage rule for a slot so tails
	// flush under low load (§5.2.3 is best-effort; see DESIGN.md).
	TimerCoverage
)

// Timer is a request by the engine for a one-shot timer.
type Timer struct {
	Kind  TimerKind
	Slot  types.Slot
	View  types.View
	Delay time.Duration
}

// Env is the effect interface the engine drives.
type Env interface {
	// Send transmits m to a single replica.
	Send(to types.NodeID, m types.Message)
	// Broadcast transmits m to all other replicas.
	Broadcast(m types.Message)
	// SetTimer schedules OnTimer(t) after t.Delay; same (Kind, Slot, View)
	// replaces any pending timer.
	SetTimer(t Timer)
	// Decide reports a committed slot. Decisions may arrive out of slot
	// order; the ordering layer executes them in order.
	Decide(s types.Slot, p *types.ConsensusProposal, qc *types.CommitQC)
	// FetchTipData asks the node to retrieve the data proposals for
	// uncertified tips from the (s, v) leader; the node must call
	// TipDataArrived(s, v) once they are locally available (§5.5.2).
	FetchTipData(leader types.NodeID, tips []types.TipRef, s types.Slot, v types.View)
	// Now returns the current time.
	Now() time.Duration
}

// Provider exposes the lane layer to consensus.
type Provider interface {
	// AssembleCut returns the replica's current cut (§5.2).
	AssembleCut(optimistic bool) types.Cut
	// HasTipData reports local possession of a tip's data proposal.
	HasTipData(t types.TipRef) bool
	// NewTipCount reports how many lanes have a proposable tip strictly
	// beyond base (the lane-coverage measure).
	NewTipCount(base []types.Pos) int
	// NextExec returns the next slot awaiting execution (the ordering
	// layer's frontier). Slots below it are fully settled; messages for
	// them are stale and must not resurrect engine state.
	NextExec() types.Slot
}

// Journal records the engine's safety-critical outputs before they are
// externalized, so a restarted replica can never contradict a pre-crash
// vote (see Restore). core.Journal adapts this to the replica-wide
// durable journal; the default is a no-op.
type Journal interface {
	// PrepVote records a prepare-phase vote (weak or strong).
	PrepVote(v *types.PrepVote)
	// ConfirmAck records a confirm-phase ack.
	ConfirmAck(a *types.ConfirmAck)
	// Timeout records a view-change complaint.
	Timeout(t *types.Timeout)
	// Commit records a decided slot's certificate and proposal.
	Commit(n *types.CommitNotice)
}

type nopJournal struct{}

func (nopJournal) PrepVote(*types.PrepVote)     {}
func (nopJournal) ConfirmAck(*types.ConfirmAck) {}
func (nopJournal) Timeout(*types.Timeout)       {}
func (nopJournal) Commit(*types.CommitNotice)   {}

// Signer abstracts message signing (satisfied by crypto.Signer).
type Signer interface {
	Sign(msg []byte) []byte
	ID() types.NodeID
}

// Config parameterizes the engine. Zero values take the documented
// defaults (fill). The engine checks no signature: every message it is
// handed has passed PreVerifier (see preverify.go) at the runtime's
// ingress.
type Config struct {
	Committee types.Committee
	Self      types.NodeID
	Signer    Signer

	// FastPath enables the single-round commit on n votes (§5.2.1).
	FastPath bool
	// OptimisticTips lets leaders propose uncertified tips (§5.5.2).
	OptimisticTips bool
	// WeakVotes enables the §5.5.2 voting refinement: a replica missing an
	// optimistic tip's data casts a "weak" vote (agreement only) at once
	// and a "strong" vote (agreement + availability) when the data lands.
	// A PrepareQC then needs 2f+1 votes of which f+1 strong; the fast path
	// still requires n strong votes. Requires OptimisticTips.
	WeakVotes bool
	// ViewTimeout is the ceiling of the adaptive view timer (default 1s,
	// the paper's §6 setting): the base timeout follows this replica's
	// decide latency (pacemaker.go) and never exceeds it; view v waits
	// base * 2^v (doubling, capped).
	ViewTimeout time.Duration
	// MaxParallel is k, the bound on concurrent slot instances (§5.4;
	// default 4).
	MaxParallel int
	// Journal durably records votes, acks, timeouts and commits before
	// they are externalized (nil = no persistence).
	Journal Journal
}

// Engine timing, fixed at the paper's evaluation setup (§6).
const (
	// fastPathWait is how long the leader waits beyond 2f+1 votes for the
	// full n.
	fastPathWait = 20 * time.Millisecond
	// coverageDelay relaxes coverage for a slot after this long so data
	// tails commit under low load.
	coverageDelay = 50 * time.Millisecond
	// minProposalGap paces consecutive proposals by the same leader.
	minProposalGap = 5 * time.Millisecond
)

// coverage is the lane-coverage threshold: n-f new tips (§5.2.3).
func (c *Config) coverage() int { return c.Committee.Size() - c.Committee.F() }

func (c *Config) fill() {
	if c.ViewTimeout == 0 {
		c.ViewTimeout = time.Second
	}
	if c.MaxParallel == 0 {
		c.MaxParallel = 4
	}
	if c.Journal == nil {
		c.Journal = nopJournal{}
	}
}

// slotState tracks one consensus slot instance.
type slotState struct {
	slot types.Slot
	view types.View // current view

	sawParentPrepare bool
	parentCutPos     []types.Pos // tip positions of the first observed Prepare_{s-1}
	coverageRelaxed  bool
	coverageTimerSet bool
	timerRunning     bool
	view0Armed       bool          // this replica armed the view-0 timer
	view0At          time.Duration // when it did (the pacemaker's sample start)
	proposed         bool          // leader: proposed in current view

	// Replica-side per-slot agreement state (the cheat-sheet's prop/conf).
	highProp  *types.ConsensusProposal // highest-view proposal voted for
	highQC    *types.PrepareQC         // highest-view PrepareQC stored
	votedPrep map[types.View]bool      // cast a strong vote
	votedWeak map[types.View]bool      // cast a weak vote (§5.5.2)
	votedAck  map[types.View]bool
	mutinied  map[types.View]bool // sent Timeout; ignore Prepare/Confirm in view
	// Pending vote blocked on optimistic tip data.
	pendingVote *types.Prepare

	// Leader-side aggregation.
	prepVotes  map[types.View]map[types.NodeID]prepVote
	acks       map[types.View]map[types.NodeID]types.SigShare
	myPrepare  map[types.View]*types.Prepare
	sentConfrm map[types.View]bool
	fastArmed  bool

	// Timeout aggregation (per target view being complained about).
	timeouts map[types.View]map[types.NodeID]*types.Timeout

	// Outcome.
	decided   bool
	commitQC  *types.CommitQC
	committed *types.ConsensusProposal

	// Buffered higher-view Prepares awaiting view entry.
	prepBuffer map[types.View]*types.Prepare
}

type prepVote struct {
	share  types.SigShare
	strong bool
}

// Engine is one replica's consensus state across all slots.
type Engine struct {
	cfg      Config
	env      Env
	provider Provider

	slots      map[types.Slot]*slotState
	frontier   types.Slot // highest slot we have begun tracking
	maxDecided types.Slot // highest slot ever decided locally
	lastDecide map[types.Slot]*types.CommitQC
	// contiguous committed prefix (for ticket GC only; ordering is
	// handled by the order package).
	maxStarted  types.Slot
	lastPropose time.Duration
	// committed tip positions of the most recent decided slot, used as a
	// coverage fallback base.
	lastCommitPos []types.Pos

	// View-0 proposals by start cause (see StartCounts); atomic because
	// operators poll them from outside the event loop.
	startsCovered, startsLowered, startsBackstop atomic.Uint64

	// pace is the adaptive view timer (pacemaker.go).
	pace pacemaker
}

// NewEngine builds a consensus engine.
func NewEngine(cfg Config, env Env, provider Provider) *Engine {
	cfg.fill()
	e := &Engine{
		cfg:           cfg,
		env:           env,
		provider:      provider,
		slots:         make(map[types.Slot]*slotState),
		lastDecide:    make(map[types.Slot]*types.CommitQC),
		lastCommitPos: make([]types.Pos, cfg.Committee.Size()),
		lastPropose:   -time.Hour,
	}
	e.pace.init(cfg.ViewTimeout)
	return e
}

// Init bootstraps slot 1 (its parent-prepare precondition is vacuous).
func (e *Engine) Init() {
	st := e.slot(1)
	st.sawParentPrepare = true
	e.evalStart(1)
}

func (e *Engine) slot(s types.Slot) *slotState {
	st, ok := e.slots[s]
	if !ok {
		st = &slotState{
			slot:       s,
			votedPrep:  make(map[types.View]bool),
			votedWeak:  make(map[types.View]bool),
			votedAck:   make(map[types.View]bool),
			mutinied:   make(map[types.View]bool),
			prepVotes:  make(map[types.View]map[types.NodeID]prepVote),
			acks:       make(map[types.View]map[types.NodeID]types.SigShare),
			myPrepare:  make(map[types.View]*types.Prepare),
			sentConfrm: make(map[types.View]bool),
			timeouts:   make(map[types.View]map[types.NodeID]*types.Timeout),
			prepBuffer: make(map[types.View]*types.Prepare),
		}
		e.slots[s] = st
		if s > e.frontier {
			e.frontier = s
		}
	}
	return st
}

// inWindow reports whether s lies inside the active consensus window
// [nextExec, maxStarted + MaxParallel]: at or above the execution
// frontier, and no further ahead of the highest legitimately started slot
// than the §5.4 parallelism bound allows. Messages outside it must not
// allocate slot state — one Byzantine PrepVote for a far-future slot
// would otherwise corrupt `frontier` (making gcSlots delete live slots)
// and grow memory without bound.
func (e *Engine) inWindow(s types.Slot) bool {
	return s >= e.provider.NextExec() && s <= e.maxStarted+types.Slot(e.cfg.MaxParallel)
}

// slotIfActive returns existing state for s, or allocates it only when s
// is inside the active window (nil otherwise). Every handler driven by
// unvalidated peer slot numbers goes through here; self-certifying inputs
// (CommitNotices, whose QCs are verified) and self-armed paths use slot()
// directly.
func (e *Engine) slotIfActive(s types.Slot) *slotState {
	if st, ok := e.slots[s]; ok {
		return st
	}
	if s == 0 || !e.inWindow(s) {
		return nil
	}
	return e.slot(s)
}

// observeStarted advances the started-slot high-water mark that anchors
// the active window's upper bound.
func (e *Engine) observeStarted(s types.Slot) {
	if s > e.maxStarted {
		e.maxStarted = s
	}
}

// Decided reports whether slot s has committed locally.
func (e *Engine) Decided(s types.Slot) bool {
	st, ok := e.slots[s]
	return ok && st.decided
}

// CommitQCFor returns the commit certificate for a decided slot (nil if
// not decided or already garbage collected).
func (e *Engine) CommitQCFor(s types.Slot) *types.CommitQC { return e.lastDecide[s] }

// CommittedProposal returns the committed proposal for a decided slot.
func (e *Engine) CommittedProposal(s types.Slot) *types.ConsensusProposal {
	if st, ok := e.slots[s]; ok {
		return st.committed
	}
	return nil
}

// CurrentView returns the replica's current view for slot s.
func (e *Engine) CurrentView(s types.Slot) types.View {
	if st, ok := e.slots[s]; ok {
		return st.view
	}
	return 0
}

// DebugSlot returns internal counters for tests: current view, timeout
// counts per view, whether decided, and whether a timer is armed.
func (e *Engine) DebugSlot(s types.Slot) (view types.View, timeouts map[types.View]int, decided, timerRunning bool, sawParent bool) {
	st, ok := e.slots[s]
	if !ok {
		return 0, nil, false, false, false
	}
	timeouts = make(map[types.View]int)
	for v, set := range st.timeouts {
		timeouts[v] = len(set)
	}
	return st.view, timeouts, st.decided, st.timerRunning, st.sawParentPrepare
}

// Frontier returns the highest slot the engine tracks.
func (e *Engine) Frontier() types.Slot { return e.frontier }

// MaxDecided returns the highest slot this replica has ever decided (0
// if none). Unlike Decided it is not subject to slot-state GC, so the
// execution layer can detect "a later slot decided while my frontier
// slot's commit certificate never arrived" however wide the gap is.
func (e *Engine) MaxDecided() types.Slot { return e.maxDecided }

// StartCounts tallies this replica's view-0 proposals by what let the
// slot start: Covered met the n-f coverage threshold, Lowered met
// a threshold that idle lanes had lowered (coverageNeed), Backstop was
// released by the coverageDelay timer with neither met. A backstop share
// near 1 under load means every slot waits out the timer: the threshold
// does not fit the load.
type StartCounts struct {
	Covered, Lowered, Backstop uint64
}

// StartCounts returns the start-cause tallies; safe from any goroutine.
func (e *Engine) StartCounts() StartCounts {
	return StartCounts{
		Covered:  e.startsCovered.Load(),
		Lowered:  e.startsLowered.Load(),
		Backstop: e.startsBackstop.Load(),
	}
}

// BaseViewTimeout returns the adaptive view timer's current base: what
// view 0 of the next slot waits (pacemaker.go); safe from any goroutine.
func (e *Engine) BaseViewTimeout() time.Duration { return e.pace.timeout(0) }

// Restore re-marks this replica's pre-crash consensus votes from a
// journal snapshot so the restarted replica can never contradict them:
// views with a journaled PrepVote or ConfirmAck are treated as already
// voted (both weak and strong — the voted digest is not reconstructed,
// so the conservative stance also covers leader equivocation across the
// crash), journaled Timeouts re-enter their mutiny, and each slot
// re-enters the highest view any journaled record attests. Must be
// called before Init; decided slots are replayed separately through
// OnCommitNotice.
func (e *Engine) Restore(prepVotes []*types.PrepVote, acks []*types.ConfirmAck, timeouts []*types.Timeout) {
	touch := func(s types.Slot, v types.View) *slotState {
		st := e.slot(s)
		if v > st.view {
			st.view = v
		}
		e.observeStarted(s)
		return st
	}
	for _, pv := range prepVotes {
		st := touch(pv.Slot, pv.View)
		st.votedPrep[pv.View] = true
		st.votedWeak[pv.View] = true
	}
	for _, a := range acks {
		st := touch(a.Slot, a.View)
		st.votedAck[a.View] = true
	}
	for _, t := range timeouts {
		st := touch(t.Slot, t.View)
		st.mutinied[t.View] = true
	}
}

// --- slot start & proposing (§5.2.3, §5.4) ---

// ticketFor returns the ticket a view-0 leader must carry for slot s,
// and whether the k-bound allows starting s at all.
func (e *Engine) ticketFor(s types.Slot) (types.Ticket, bool) {
	k := types.Slot(e.cfg.MaxParallel)
	if s <= k {
		return types.Ticket{Kind: types.TicketCommit}, true // genesis window
	}
	qc := e.lastDecide[s-k]
	if qc == nil {
		return types.Ticket{}, false
	}
	return types.Ticket{Kind: types.TicketCommit, Commit: qc}, true
}

// coverageBase returns the tip-position frontier coverage is measured
// against: the cut of the first observed Prepare_{s-1}, else the latest
// committed cut.
func (e *Engine) coverageBase(st *slotState) []types.Pos {
	if st.parentCutPos != nil {
		return st.parentCutPos
	}
	return e.lastCommitPos
}

// evalStart checks whether slot s can begin: timer arming for everyone,
// proposing for the view-0 leader.
func (e *Engine) evalStart(s types.Slot) {
	st := e.slot(s)
	if st.decided || !st.sawParentPrepare {
		return
	}
	if _, ticketOK := e.ticketFor(s); !ticketOK {
		return
	}
	newTips := e.provider.NewTipCount(e.coverageBase(st))
	need := e.coverageNeed(st)
	covered := newTips >= need
	if !covered && !(st.coverageRelaxed && newTips >= 1) {
		if !st.coverageTimerSet {
			st.coverageTimerSet = true
			e.env.SetTimer(Timer{Kind: TimerCoverage, Slot: s, Delay: coverageDelay})
		}
		return
	}
	// Arm the view-0 progress timer (all replicas).
	if !st.timerRunning && st.view == 0 {
		st.timerRunning = true
		st.view0Armed, st.view0At = true, e.env.Now()
		e.env.SetTimer(Timer{Kind: TimerView, Slot: s, View: 0, Delay: e.pace.timeout(0)})
	}
	// Propose if we lead view 0.
	if st.view == 0 && !st.proposed && e.cfg.Committee.Leader(s, 0) == e.cfg.Self && e.propose(st) {
		switch {
		case !covered:
			e.startsBackstop.Add(1)
		case need < e.cfg.coverage():
			e.startsLowered.Add(1)
		default:
			e.startsCovered.Add(1)
		}
	}
}

// coverageNeed is how many lanes must show a tip beyond the coverage base
// before slot st starts without waiting for the coverageDelay backstop:
// min(coverage, A), floor 1, where A counts the lanes that advanced inside
// the slot's parallel window — from the cut committed at s-k (the slot's
// own ticket, so it is always known here) to the parent's cut. A lane that
// did not move across those k-1 cuts is idle, and waiting for it can only
// end in the backstop (DESIGN.md §1.15). A tip at or below the ticket's is
// stale, not an advance. The genesis window, a slot whose parent cut was
// never observed and k < 3 keep the n-f threshold: a window of one
// cut cannot climb back once a single relaxed slot has lowered it.
func (e *Engine) coverageNeed(st *slotState) int {
	need := e.cfg.coverage()
	k := types.Slot(e.cfg.MaxParallel)
	if k < 3 || st.slot <= k || st.parentCutPos == nil {
		return need
	}
	ticket, ok := e.slots[st.slot-k]
	if !ok || ticket.committed == nil {
		return need
	}
	active := 0
	for i, t := range ticket.committed.Cut.Tips {
		if i < len(st.parentCutPos) && st.parentCutPos[i] > t.Position {
			active++
		}
	}
	if active < need {
		need = active
	}
	if need < 1 {
		need = 1
	}
	return need
}

// propose broadcasts this replica's view-0 proposal for st; false when
// pacing deferred it (a timer retries).
func (e *Engine) propose(st *slotState) bool {
	now := e.env.Now()
	if now < e.lastPropose+minProposalGap {
		// Pace proposals: retry when the gap elapses.
		e.env.SetTimer(Timer{Kind: TimerCoverage, Slot: st.slot, Delay: e.lastPropose + minProposalGap - now})
		return false
	}
	ticket, ok := e.ticketFor(st.slot)
	if !ok {
		return false
	}
	cut := e.provider.AssembleCut(e.cfg.OptimisticTips)
	prop := types.ConsensusProposal{Slot: st.slot, View: 0, Cut: cut}
	prep := &types.Prepare{Leader: e.cfg.Self, Proposal: prop, Ticket: ticket}
	prep.Sig = e.cfg.Signer.Sign(prep.SigningBytes())
	st.proposed = true
	st.myPrepare[0] = prep
	e.lastPropose = now
	e.env.Broadcast(prep)
	e.processPrepare(e.cfg.Self, prep) // leader self-processes (stores + votes)
	return true
}

// OnTipsAdvanced re-evaluates start conditions when the lane layer gains
// new certified tips (called by the node on PoA/proposal arrival).
func (e *Engine) OnTipsAdvanced() {
	// Only the frontier slots can be waiting on coverage.
	for s := e.frontier; s > 0 && s+types.Slot(e.cfg.MaxParallel) > e.frontier; s-- {
		e.evalStart(s)
	}
}

// --- Prepare phase (§5.2.1 P1) ---

// OnPrepare handles a leader's Prepare message.
func (e *Engine) OnPrepare(from types.NodeID, prep *types.Prepare) {
	e.processPrepare(from, prep)
}

func (e *Engine) processPrepare(from types.NodeID, prep *types.Prepare) {
	s, v := prep.Proposal.Slot, prep.Proposal.View
	if !e.validPrepare(from, prep) {
		return
	}
	// A structurally valid Prepare carries its own start license (commit
	// ticket or TC), so it legitimately extends the active window.
	e.observeStarted(s)
	st := e.slot(s)

	// The first Prepare for s arms slot s+1 (§5.4).
	e.observeParentPrepare(s, prep)

	if st.decided {
		return
	}
	if v > st.view {
		// Not yet in view v: buffer and reprocess on entry (§5.3).
		st.prepBuffer[v] = prep
		return
	}
	if v < st.view || st.mutinied[v] {
		return
	}

	// Store the proposal (highProp) for potential view changes.
	if st.highProp == nil || prep.Proposal.View > st.highProp.View {
		p := prep.Proposal
		st.highProp = &p
	}

	e.tryPrepVote(st, prep)
}

// observeParentPrepare records the first Prepare for s and starts s+1.
func (e *Engine) observeParentPrepare(s types.Slot, prep *types.Prepare) {
	next := e.slot(s + 1)
	if !next.sawParentPrepare {
		next.sawParentPrepare = true
		next.parentCutPos = cutPositions(prep.Proposal.Cut)
		e.evalStart(s + 1)
	}
}

func cutPositions(c types.Cut) []types.Pos {
	out := make([]types.Pos, len(c.Tips))
	for i, t := range c.Tips {
		out[i] = t.Position
	}
	return out
}

// tryPrepVote votes for a Prepare if the availability rule allows it;
// otherwise it records the pending vote and requests the missing tip data
// from the leader (§5.5.2 — the only critical-path sync, constant size).
func (e *Engine) tryPrepVote(st *slotState, prep *types.Prepare) {
	s, v := prep.Proposal.Slot, prep.Proposal.View
	if st.votedPrep[v] || st.mutinied[v] {
		return
	}
	// Reproposals carrying a TC-selected winner are implicitly certified
	// (f+1 replicas voted for them); vote without an availability check.
	winnerReproposal := v > 0 && prep.Ticket.Kind == types.TicketTC &&
		prep.Ticket.TC != nil && prep.Ticket.TC.WinningProposal(e.cfg.Committee) != nil

	if !winnerReproposal {
		var missing []types.TipRef
		for _, t := range prep.Proposal.Cut.Tips {
			if !t.Certified() && !t.Empty() && !e.provider.HasTipData(t) {
				missing = append(missing, t)
			}
		}
		if len(missing) > 0 {
			st.pendingVote = prep
			e.env.FetchTipData(prep.Leader, missing, s, v)
			if e.cfg.WeakVotes && !st.votedWeak[v] {
				// §5.5.2 refinement: assert agreement now, availability
				// later. The strong vote follows once the data lands.
				st.votedWeak[v] = true
				e.sendPrepVote(st, prep, false)
			}
			return
		}
	}
	st.pendingVote = nil
	st.votedPrep[v] = true
	e.sendPrepVote(st, prep, true)
}

// sendPrepVote signs and routes one PrepVote of the given strength.
func (e *Engine) sendPrepVote(st *slotState, prep *types.Prepare, strong bool) {
	vote := &types.PrepVote{
		Slot:   prep.Proposal.Slot,
		View:   prep.Proposal.View,
		Digest: prep.Proposal.Digest(),
		Voter:  e.cfg.Self,
		Strong: strong,
	}
	vote.Sig = e.cfg.Signer.Sign(vote.SigningBytes())
	// Durably record the vote before it can influence anyone — including
	// this replica's own leader aggregation, whose QCs externalize it.
	e.cfg.Journal.PrepVote(vote)
	if prep.Leader == e.cfg.Self {
		e.collectPrepVote(st, vote)
	} else {
		e.env.Send(prep.Leader, vote)
	}
}

// TipDataArrived retries a vote blocked on optimistic tip data.
func (e *Engine) TipDataArrived(s types.Slot, v types.View) {
	st, ok := e.slots[s]
	if !ok || st.decided || st.pendingVote == nil {
		return
	}
	pv := st.pendingVote
	if pv.Proposal.View != v || v != st.view {
		return
	}
	e.tryPrepVote(st, pv)
}

// RetryPendingVotes re-attempts every vote blocked on tip data. The node
// calls this whenever lane data arrives through the live path (which can
// race with — and cancel — the explicit tip fetch). Slots are visited in
// ascending order — never map order: retries emit votes (sends), and
// send order must be a deterministic function of the event history for
// fixed-seed simulations to stay reproducible.
func (e *Engine) RetryPendingVotes() {
	slots := make([]types.Slot, 0, len(e.slots))
	for s, st := range e.slots {
		if st.pendingVote != nil && !st.decided && st.pendingVote.Proposal.View == st.view {
			slots = append(slots, s)
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	for _, s := range slots {
		st := e.slots[s]
		if st.pendingVote != nil && !st.decided && st.pendingVote.Proposal.View == st.view {
			e.tryPrepVote(st, st.pendingVote)
		}
	}
}

// HasPendingVote reports whether (s, v) is still blocked on tip data
// (the node uses this to drop deferred tip fetches that became moot).
func (e *Engine) HasPendingVote(s types.Slot, v types.View) bool {
	st, ok := e.slots[s]
	return ok && !st.decided && st.pendingVote != nil && st.pendingVote.Proposal.View == v && st.view == v
}

// OnPrepVote aggregates votes at the leader.
func (e *Engine) OnPrepVote(from types.NodeID, vote *types.PrepVote) {
	if from != vote.Voter || !e.cfg.Committee.Valid(from) {
		return
	}
	st := e.slotIfActive(vote.Slot)
	if st == nil {
		return // outside the active window: never allocate for votes
	}
	e.collectPrepVote(st, vote)
}

func (e *Engine) collectPrepVote(st *slotState, vote *types.PrepVote) {
	v := vote.View
	my := st.myPrepare[v]
	if my == nil || st.decided {
		return // not leading this view (or already done)
	}
	if vote.Digest != my.Proposal.Digest() {
		return
	}
	set := st.prepVotes[v]
	if set == nil {
		set = make(map[types.NodeID]prepVote)
		st.prepVotes[v] = set
	}
	if prev, dup := set[vote.Voter]; dup {
		if prev.strong || !vote.Strong {
			return // only a weak→strong upgrade is new information
		}
	}
	set[vote.Voter] = prepVote{
		share:  types.SigShare{Signer: vote.Voter, Sig: vote.Sig},
		strong: vote.Strong,
	}
	e.leaderCheckQuorum(st, v)
}

// leaderCheckQuorum drives the fast/slow path decision (§5.2.1).
func (e *Engine) leaderCheckQuorum(st *slotState, v types.View) {
	set := st.prepVotes[v]
	n := e.cfg.Committee.FastQuorum()
	q := e.cfg.Committee.Quorum()
	strong := 0
	for _, pv := range set {
		if pv.strong {
			strong++
		}
	}
	if e.cfg.FastPath && strong >= n {
		e.fastCommit(st, v)
		return
	}
	// With the weak-vote refinement a PrepareQC requires f+1 strong votes
	// among the 2f+1 (availability); without it every vote is strong.
	if e.cfg.WeakVotes && strong < e.cfg.Committee.PoAQuorum() {
		return
	}
	if len(set) >= q {
		if e.cfg.FastPath && !st.fastArmed && !st.sentConfrm[v] {
			// Wait a beat for the full n (§5.2.1 Fast Path).
			st.fastArmed = true
			e.env.SetTimer(Timer{Kind: TimerFast, Slot: st.slot, View: v, Delay: fastPathWait})
			return
		}
		if !e.cfg.FastPath && !st.sentConfrm[v] {
			e.sendConfirm(st, v)
		}
	}
}

func (e *Engine) buildPrepareQC(st *slotState, v types.View) *types.PrepareQC {
	my := st.myPrepare[v]
	set := st.prepVotes[v]
	qc := &types.PrepareQC{Slot: st.slot, View: v, Digest: my.Proposal.Digest()}
	for _, id := range e.cfg.Committee.Nodes() {
		if pv, ok := set[id]; ok {
			qc.Shares = append(qc.Shares, pv.share)
			qc.StrongMask = append(qc.StrongMask, pv.strong)
		}
	}
	return qc
}

func (e *Engine) fastCommit(st *slotState, v types.View) {
	my := st.myPrepare[v]
	set := st.prepVotes[v]
	qc := &types.CommitQC{Slot: st.slot, View: v, Digest: my.Proposal.Digest(), Fast: true}
	for _, id := range e.cfg.Committee.Nodes() {
		if pv, ok := set[id]; ok && pv.strong {
			qc.Shares = append(qc.Shares, pv.share)
		}
	}
	e.deliverCommit(st, qc, &my.Proposal, true)
}

// OnTimer dispatches engine timers.
func (e *Engine) OnTimer(t Timer) {
	st, ok := e.slots[t.Slot]
	switch t.Kind {
	case TimerCoverage:
		st2 := e.slotIfActive(t.Slot)
		if st2 == nil {
			return // slot settled (or never started) since the timer armed
		}
		st2.coverageRelaxed = true
		e.evalStart(t.Slot)
	case TimerFast:
		if !ok || st.decided || st.sentConfrm[t.View] || st.myPrepare[t.View] == nil {
			return
		}
		if len(st.prepVotes[t.View]) >= e.cfg.Committee.Quorum() {
			e.sendConfirm(st, t.View)
		}
	case TimerView:
		if !ok || st.decided || t.View != st.view {
			return
		}
		// First expiry starts the mutiny; subsequent expiries re-broadcast
		// the Timeout so complaints survive partitions (a TC needs 2f+1
		// replicas connected — complaints sent into a partition are lost
		// and must be repeated once connectivity returns).
		e.startMutiny(st, t.View)
	}
}

// --- Confirm phase (§5.2.1 P2) ---

func (e *Engine) sendConfirm(st *slotState, v types.View) {
	st.sentConfrm[v] = true
	qc := e.buildPrepareQC(st, v)
	conf := &types.Confirm{Leader: e.cfg.Self, QC: *qc}
	conf.Sig = e.cfg.Signer.Sign(conf.SigningBytes())
	e.env.Broadcast(conf)
	e.processConfirm(e.cfg.Self, conf)
}

// OnConfirm handles the leader's Confirm broadcast.
func (e *Engine) OnConfirm(from types.NodeID, conf *types.Confirm) {
	e.processConfirm(from, conf)
}

func (e *Engine) processConfirm(from types.NodeID, conf *types.Confirm) {
	s, v := conf.QC.Slot, conf.QC.View
	if from != conf.Leader || e.cfg.Committee.Leader(s, v) != conf.Leader {
		return
	}
	st := e.slotIfActive(s)
	if st == nil {
		return
	}
	if st.decided || v < st.view || st.mutinied[v] {
		return
	}
	// Buffer the QC for view changes (conf[s] in the cheat sheet).
	if st.highQC == nil || conf.QC.View > st.highQC.View {
		qc := conf.QC
		st.highQC = &qc
	}
	if st.votedAck[v] {
		return
	}
	st.votedAck[v] = true
	ack := &types.ConfirmAck{Slot: s, View: v, Digest: conf.QC.Digest, Voter: e.cfg.Self}
	ack.Sig = e.cfg.Signer.Sign(ack.SigningBytes())
	e.cfg.Journal.ConfirmAck(ack)
	if conf.Leader == e.cfg.Self {
		e.collectAck(st, ack)
	} else {
		e.env.Send(conf.Leader, ack)
	}
}

// OnConfirmAck aggregates acks at the leader into a CommitQC.
func (e *Engine) OnConfirmAck(from types.NodeID, ack *types.ConfirmAck) {
	if from != ack.Voter || !e.cfg.Committee.Valid(from) {
		return
	}
	st := e.slotIfActive(ack.Slot)
	if st == nil {
		return // outside the active window: never allocate for acks
	}
	e.collectAck(st, ack)
}

func (e *Engine) collectAck(st *slotState, ack *types.ConfirmAck) {
	v := ack.View
	my := st.myPrepare[v]
	if my == nil || st.decided || ack.Digest != my.Proposal.Digest() {
		return
	}
	set := st.acks[v]
	if set == nil {
		set = make(map[types.NodeID]types.SigShare)
		st.acks[v] = set
	}
	if _, dup := set[ack.Voter]; dup {
		return
	}
	set[ack.Voter] = types.SigShare{Signer: ack.Voter, Sig: ack.Sig}
	if len(set) < e.cfg.Committee.Quorum() {
		return
	}
	qc := &types.CommitQC{Slot: st.slot, View: v, Digest: ack.Digest}
	for _, id := range e.cfg.Committee.Nodes() {
		if sh, ok := set[id]; ok {
			qc.Shares = append(qc.Shares, sh)
		}
	}
	e.deliverCommit(st, qc, &my.Proposal, true)
}

// --- commit ---

// OnCommitNotice handles a broadcast commit certificate.
func (e *Engine) OnCommitNotice(from types.NodeID, m *types.CommitNotice) {
	if m.Proposal.Slot != m.QC.Slot || m.Proposal.Digest() != m.QC.Digest {
		// The notice must carry the proposal matching the certificate.
		// (Reproposals keep slot+view in the digest, so this binds both.)
		return
	}
	st := e.slot(m.QC.Slot)
	qc := m.QC
	prop := m.Proposal
	e.deliverCommit(st, &qc, &prop, false)
}

// deliverCommit finalizes a slot locally and (if broadcast) announces it.
func (e *Engine) deliverCommit(st *slotState, qc *types.CommitQC, prop *types.ConsensusProposal, announce bool) {
	if st.decided {
		return
	}
	st.decided = true
	st.commitQC = qc
	st.committed = prop
	st.pendingVote = nil
	e.lastDecide[st.slot] = qc
	if st.slot > e.maxDecided {
		e.maxDecided = st.slot
	}
	e.lastCommitPos = cutPositions(prop.Cut)
	e.observeStarted(st.slot)
	if st.view0Armed {
		// A slot that entered a later view needed a view change, whatever
		// view its certificate names.
		e.pace.decided(max(qc.View, st.view), st.view0At, e.env.Now())
	}
	// Cancel interest in this slot's timers (they become no-ops).
	st.timerRunning = false
	notice := &types.CommitNotice{QC: *qc, Proposal: *prop}
	e.cfg.Journal.Commit(notice)
	if announce {
		e.env.Broadcast(notice)
	}
	e.env.Decide(st.slot, prop, qc)
	// Committing s unlocks the ticket for s+k; the prepare for s (implied
	// by commit) arms s+1 even if we never saw it directly.
	next := e.slot(st.slot + 1)
	if !next.sawParentPrepare {
		next.sawParentPrepare = true
		next.parentCutPos = cutPositions(prop.Cut)
	}
	e.gcSlots()
	e.evalStart(st.slot + 1)
	e.evalStart(st.slot + types.Slot(e.cfg.MaxParallel))
}

// RetainSlots is how many slots of history a replica keeps beneath its
// frontier: the engine's decided slot state here, and — with execution
// off, where no checkpoint bounds it — the lane stores' committed cars
// (core). A replica that falls further behind than this can no longer be
// served the history it missed.
const RetainSlots types.Slot = 256

// gcSlots drops slot state far below the decided frontier. CommitQCs are
// retained somewhat longer: commit of s transitively certifies s-k (§5.4).
func (e *Engine) gcSlots() {
	if e.frontier <= RetainSlots {
		return
	}
	cutoff := e.frontier - RetainSlots
	for s := range e.slots {
		if s < cutoff && e.slots[s].decided {
			delete(e.slots, s)
		}
	}
	for s := range e.lastDecide {
		if s < cutoff {
			delete(e.lastDecide, s)
		}
	}
}
