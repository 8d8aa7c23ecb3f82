package consensus

import (
	"sort"

	"repro/internal/types"
)

// --- Prepare validation ---

// validPrepare enforces every structural rule on an incoming Prepare:
// leader legitimacy, ticket validity (commit ticket for view 0, TC for
// later views), winning-proposal enforcement, and cut validity. The
// signatures it relies on — the leader's, the ticket's certificate and
// the cut's PoAs — were checked by PreVerifier at ingress.
func (e *Engine) validPrepare(from types.NodeID, prep *types.Prepare) bool {
	s, v := prep.Proposal.Slot, prep.Proposal.View
	if s == 0 {
		return false
	}
	if prep.Leader != from || e.cfg.Committee.Leader(s, v) != prep.Leader {
		return false
	}
	winnerRepro := false
	switch v {
	case 0:
		if prep.Ticket.Kind != types.TicketCommit {
			return false
		}
		k := types.Slot(e.cfg.MaxParallel)
		if s > k {
			qc := prep.Ticket.Commit
			if qc == nil || qc.Slot != s-k {
				return false
			}
		}
	default:
		tc := prep.Ticket.TC
		if prep.Ticket.Kind != types.TicketTC || tc == nil || tc.Slot != s || tc.View != v-1 {
			return false
		}
		// A TC-selected winner constrains the reproposal (§5.3 step 3).
		if winner := tc.WinningProposal(e.cfg.Committee); winner != nil {
			if winner.Cut.Digest() != prep.Proposal.Cut.Digest() {
				return false
			}
			winnerRepro = true
		}
		// Seeing a valid TC for view v-1 is itself license to enter view
		// v: replicas that missed the timeout quorum adopt it here (the
		// paper buffers instead and relies on cascading timeouts; adopting
		// the ticket is the standard practical refinement, cf. Jolteon).
		st := e.slot(s)
		if v > st.view && !st.decided {
			e.enterView(st, v)
		}
	}
	if err := prep.Proposal.Cut.Validate(e.cfg.Committee); err != nil {
		return false
	}
	if !e.cfg.OptimisticTips && !winnerRepro {
		// Certified-tips-only deployments reject uncertified non-leader
		// tips outright (§5.5.2 is an explicit opt-in). Winner reproposals
		// are exempt: the original leader's own uncertified tip legally
		// rode in its cut, and f+1 Prep-Votes already attest availability
		// — the cut is implicitly certified (§5.5.2).
		for _, t := range prep.Proposal.Cut.Tips {
			if !t.Certified() && !t.Empty() && t.Lane != prep.Leader {
				return false
			}
		}
	}
	return true
}

// --- mutiny & timeout certificates (§5.3) ---

// startMutiny broadcasts this replica's Timeout for (slot, view) after its
// progress timer expired. The replica thereafter ignores Prepare/Confirm
// traffic in that view. Repeated calls (timer re-expiry while still stuck
// in the view) re-broadcast the complaint and re-arm the timer, so that a
// TC can still form after a partition heals.
func (e *Engine) startMutiny(st *slotState, v types.View) {
	if st.decided || v != st.view && st.mutinied[v] {
		return
	}
	t := &types.Timeout{
		Slot:     st.slot,
		View:     v,
		Voter:    e.cfg.Self,
		HighQC:   st.highQC,
		HighProp: st.highProp,
	}
	t.Sig = e.cfg.Signer.Sign(t.SigningBytes())
	first := !st.mutinied[v]
	st.mutinied[v] = true
	e.cfg.Journal.Timeout(t)
	e.env.Broadcast(t)
	// Re-arm so the complaint repeats while the view stays stuck.
	e.env.SetTimer(Timer{Kind: TimerView, Slot: st.slot, View: v, Delay: e.pace.timeout(v)})
	if first {
		e.collectTimeout(st, e.cfg.Self, t)
	}
}

// OnTimeoutMsg handles a peer's Timeout complaint.
func (e *Engine) OnTimeoutMsg(from types.NodeID, t *types.Timeout) {
	if from != t.Voter || !e.cfg.Committee.Valid(from) {
		return
	}
	st := e.slotIfActive(t.Slot)
	if st == nil {
		return // outside the active window: never allocate for complaints
	}
	if st.decided {
		// Already committed: catch the straggler up (§5.3 step 2).
		e.env.Send(from, &types.CommitNotice{QC: *st.commitQC, Proposal: *st.committed})
		return
	}
	// Accept only if we have not advanced past the complained-about view.
	if st.view > t.View {
		return
	}
	e.collectTimeout(st, from, t)
}

func (e *Engine) collectTimeout(st *slotState, from types.NodeID, t *types.Timeout) {
	set := st.timeouts[t.View]
	if set == nil {
		set = make(map[types.NodeID]*types.Timeout)
		st.timeouts[t.View] = set
	}
	if _, dup := set[from]; dup {
		return
	}
	set[from] = t

	// Join the mutiny once f+1 complaints prove a correct replica is
	// stuck — ensures every correct replica eventually assembles the TC.
	if len(set) >= e.cfg.Committee.PoAQuorum() && !st.mutinied[t.View] && st.view <= t.View {
		e.startMutiny(st, t.View)
	}
	if len(set) >= e.cfg.Committee.Quorum() && st.view <= t.View {
		e.formTC(st, t.View)
	}
}

func (e *Engine) formTC(st *slotState, v types.View) {
	set := st.timeouts[v]
	tc := &types.TC{Slot: st.slot, View: v}
	voters := make([]types.NodeID, 0, len(set))
	for id := range set {
		voters = append(voters, id)
	}
	sort.Slice(voters, func(i, j int) bool { return voters[i] < voters[j] })
	for _, id := range voters {
		tc.Timeouts = append(tc.Timeouts, *set[id])
	}
	e.enterView(st, v+1)
	if e.cfg.Committee.Leader(st.slot, v+1) == e.cfg.Self {
		e.proposeWithTC(st, tc)
	}
}

// enterView advances the slot's current view, arms the new progress timer,
// and replays any buffered Prepare for the new view.
func (e *Engine) enterView(st *slotState, v types.View) {
	if v <= st.view || st.decided {
		return
	}
	st.view = v
	st.fastArmed = false
	st.pendingVote = nil
	st.timerRunning = true
	e.env.SetTimer(Timer{Kind: TimerView, Slot: st.slot, View: v, Delay: e.pace.timeout(v)})
	if prep, ok := st.prepBuffer[v]; ok {
		delete(st.prepBuffer, v)
		e.processPrepare(prep.Leader, prep)
	}
	for bv := range st.prepBuffer {
		if bv < v {
			delete(st.prepBuffer, bv)
		}
	}
}

// proposeWithTC starts the leader's tenure for view tc.View+1: it
// reproposes the TC's winning proposal if one exists, else proposes a
// fresh cut (§5.3 step 3).
func (e *Engine) proposeWithTC(st *slotState, tc *types.TC) {
	v := tc.View + 1
	if st.decided || st.myPrepare[v] != nil {
		return
	}
	var cut types.Cut
	if winner := tc.WinningProposal(e.cfg.Committee); winner != nil {
		cut = winner.Cut
	} else {
		cut = e.provider.AssembleCut(e.cfg.OptimisticTips)
	}
	prop := types.ConsensusProposal{Slot: st.slot, View: v, Cut: cut}
	prep := &types.Prepare{
		Leader:   e.cfg.Self,
		Proposal: prop,
		Ticket:   types.Ticket{Kind: types.TicketTC, TC: tc},
	}
	prep.Sig = e.cfg.Signer.Sign(prep.SigningBytes())
	st.myPrepare[v] = prep
	e.env.Broadcast(prep)
	e.processPrepare(e.cfg.Self, prep)
}
