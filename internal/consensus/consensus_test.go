package consensus

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/types"
)

// mockEnv records engine effects and lets tests relay them.
type mockEnv struct {
	self types.NodeID
	now  time.Duration
	sent []struct {
		to  types.NodeID
		msg types.Message
	}
	bcast   []types.Message
	timers  []Timer
	decided map[types.Slot]*types.ConsensusProposal
	fetches []types.TipRef
}

func (m *mockEnv) Send(to types.NodeID, msg types.Message) {
	m.sent = append(m.sent, struct {
		to  types.NodeID
		msg types.Message
	}{to, msg})
}
func (m *mockEnv) Broadcast(msg types.Message) { m.bcast = append(m.bcast, msg) }
func (m *mockEnv) SetTimer(t Timer)            { m.timers = append(m.timers, t) }
func (m *mockEnv) Decide(s types.Slot, p *types.ConsensusProposal, qc *types.CommitQC) {
	if m.decided == nil {
		m.decided = make(map[types.Slot]*types.ConsensusProposal)
	}
	m.decided[s] = p
}
func (m *mockEnv) FetchTipData(leader types.NodeID, tips []types.TipRef, s types.Slot, v types.View) {
	m.fetches = append(m.fetches, tips...)
}
func (m *mockEnv) Now() time.Duration { return m.now }

// mockProvider supplies a configurable lane view.
type mockProvider struct {
	cut     types.Cut
	hasData bool
	newTips int
}

func (p *mockProvider) AssembleCut(bool) types.Cut   { return p.cut }
func (p *mockProvider) HasTipData(types.TipRef) bool { return p.hasData }
func (p *mockProvider) NewTipCount([]types.Pos) int  { return p.newTips }
func (p *mockProvider) NextExec() types.Slot         { return 1 }

// net wires 4 engines through mock envs with manual pumping. Every relayed
// message passes the PreVerifier first, as a runtime's ingress does.
type net struct {
	engines   []*Engine
	envs      []*mockEnv
	providers []*mockProvider
	pv        *PreVerifier
}

func newNet(t *testing.T, mutate func(id types.NodeID, cfg *Config)) *net {
	t.Helper()
	committee := types.NewCommittee(4)
	suite := crypto.NewEd25519Suite(4, 3)
	poa := &types.PoA{Lane: 0, Position: 1, Digest: types.Digest{1}}
	for _, id := range []types.NodeID{0, 1} { // f+1 shares
		poa.Shares = append(poa.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(poa.SigningBytes())})
	}
	cut := types.NewEmptyCut(4)
	cut.Tips[0] = types.TipRef{Lane: 0, Position: 1, Digest: types.Digest{1}, Cert: poa}
	n := &net{pv: &PreVerifier{Committee: committee, Verifier: suite.Verifier()}}
	for i := 0; i < 4; i++ {
		id := types.NodeID(i)
		env := &mockEnv{self: id}
		prov := &mockProvider{cut: cut, hasData: true, newTips: 4}
		cfg := Config{
			Committee: committee,
			Self:      id,
			Signer:    suite.Signer(id),
			FastPath:  true,
		}
		if mutate != nil {
			mutate(id, &cfg)
		}
		n.engines = append(n.engines, NewEngine(cfg, env, prov))
		n.envs = append(n.envs, env)
		n.providers = append(n.providers, prov)
	}
	return n
}

// pump relays queued sends/broadcasts until quiescent (skip drops sources).
func (n *net) pump(t *testing.T, skip map[types.NodeID]bool) {
	t.Helper()
	for round := 0; round < 64; round++ {
		progress := false
		for i, env := range n.envs {
			from := types.NodeID(i)
			bcast := env.bcast
			env.bcast = nil
			sent := env.sent
			env.sent = nil
			if skip[from] {
				continue
			}
			for _, m := range bcast {
				progress = true
				for j := range n.engines {
					if j != i {
						n.deliver(types.NodeID(j), from, m)
					}
				}
			}
			for _, sm := range sent {
				progress = true
				if sm.to == from {
					continue
				}
				n.deliver(sm.to, from, sm.msg)
			}
		}
		if !progress {
			return
		}
	}
	t.Fatal("pump did not quiesce")
}

func (n *net) deliver(to, from types.NodeID, m types.Message) {
	if n.pv.PreVerify(from, m) != nil {
		return
	}
	e := n.engines[to]
	switch msg := m.(type) {
	case *types.Prepare:
		e.OnPrepare(from, msg)
	case *types.PrepVote:
		e.OnPrepVote(from, msg)
	case *types.Confirm:
		e.OnConfirm(from, msg)
	case *types.ConfirmAck:
		e.OnConfirmAck(from, msg)
	case *types.CommitNotice:
		e.OnCommitNotice(from, msg)
	case *types.Timeout:
		e.OnTimeoutMsg(from, msg)
	}
}

// fireFastTimers fires pending fast-path timers so leaders fall back to
// the Confirm phase when n votes never arrive.
func (n *net) fireFastTimers() {
	for i, env := range n.envs {
		timers := env.timers
		env.timers = nil
		for _, tm := range timers {
			if tm.Kind == TimerFast {
				n.engines[i].OnTimer(tm)
			}
		}
	}
}

func initAll(n *net) {
	for _, e := range n.engines {
		e.Init()
	}
}

func TestSlotCommitsFastPath(t *testing.T) {
	n := newNet(t, nil)
	initAll(n)
	n.pump(t, nil)
	for i, env := range n.envs {
		p, ok := env.decided[1]
		if !ok {
			t.Fatalf("r%d did not decide slot 1", i)
		}
		if p.View != 0 {
			t.Fatalf("r%d decided in view %d", i, p.View)
		}
	}
	// All four decided the same value.
	d := n.envs[0].decided[1].Digest()
	for i := 1; i < 4; i++ {
		if n.envs[i].decided[1].Digest() != d {
			t.Fatalf("r%d decided a different proposal", i)
		}
	}
}

func TestSlotCommitsSlowPath(t *testing.T) {
	n := newNet(t, func(id types.NodeID, cfg *Config) { cfg.FastPath = false })
	initAll(n)
	n.pump(t, nil)
	for i, env := range n.envs {
		if _, ok := env.decided[1]; !ok {
			t.Fatalf("r%d did not decide on the slow path", i)
		}
	}
}

// TestFastPathFallsBackWhenVoteMissing: with one replica silent, the
// leader gets only 2f+1 votes; after the fast timer it confirms.
func TestFastPathFallsBackWhenVoteMissing(t *testing.T) {
	n := newNet(t, nil)
	initAll(n)
	silent := map[types.NodeID]bool{2: true}
	n.pump(t, silent)
	// Nobody decided yet: leader holds 3 votes waiting for the 4th.
	leader := types.NewCommittee(4).Leader(1, 0)
	if _, ok := n.envs[leader].decided[1]; ok {
		t.Fatal("decided fast with a missing vote")
	}
	n.fireFastTimers()
	n.pump(t, silent)
	for i, env := range n.envs {
		if types.NodeID(i) == 2 {
			continue
		}
		if _, ok := env.decided[1]; !ok {
			t.Fatalf("r%d did not decide after fast-path fallback", i)
		}
	}
}

// TestViewChangeCommitsUnderFaultyLeader: the slot-1 leader never speaks;
// view timers expire, a TC forms, the view-1 leader reproposes and all
// correct replicas decide in view 1.
func TestViewChangeCommitsUnderFaultyLeader(t *testing.T) {
	n := newNet(t, nil)
	committee := types.NewCommittee(4)
	badLeader := committee.Leader(1, 0)
	for i, e := range n.engines {
		if types.NodeID(i) != badLeader {
			e.Init()
		}
	}
	skip := map[types.NodeID]bool{badLeader: true}
	n.pump(t, skip)
	// Fire the view-0 timers at the live replicas.
	for i, env := range n.envs {
		if types.NodeID(i) == badLeader {
			continue
		}
		timers := env.timers
		env.timers = nil
		for _, tm := range timers {
			if tm.Kind == TimerView && tm.Slot == 1 && tm.View == 0 {
				n.engines[i].OnTimer(tm)
			}
		}
	}
	n.pump(t, skip)
	n.fireFastTimers() // new leader may need the fallback (only 3 voters)
	n.pump(t, skip)
	for i, env := range n.envs {
		if types.NodeID(i) == badLeader {
			continue
		}
		p, ok := env.decided[1]
		if !ok {
			t.Fatalf("r%d did not decide after view change", i)
		}
		if p.View == 0 {
			t.Fatalf("r%d decided in view 0 under a silent leader", i)
		}
	}
}

// TestPrepareValidation: forged or misdirected Prepares gather no votes.
func TestPrepareValidation(t *testing.T) {
	n := newNet(t, nil)
	committee := types.NewCommittee(4)
	suite := crypto.NewEd25519Suite(4, 3) // newNet's keys
	leader := committee.Leader(1, 0)
	target := types.NodeID((int(leader) + 1) % 4) // some non-leader replica
	env := n.envs[target]
	signed := func(p *types.Prepare) *types.Prepare {
		p.Sig = suite.Signer(p.Leader).Sign(p.SigningBytes())
		return p
	}

	cut := types.NewEmptyCut(4)
	// Wrong leader identity (validly signed by the impostor).
	impostor := types.NodeID((int(leader) + 2) % 4)
	prep := signed(&types.Prepare{
		Leader:   impostor,
		Proposal: types.ConsensusProposal{Slot: 1, View: 0, Cut: cut},
		Ticket:   types.Ticket{Kind: types.TicketCommit},
	})
	n.deliver(target, impostor, prep)
	// Right leader, bogus signature.
	prep2 := &types.Prepare{
		Leader:   leader,
		Proposal: types.ConsensusProposal{Slot: 1, View: 0, Cut: cut},
		Ticket:   types.Ticket{Kind: types.TicketCommit},
		Sig:      make([]byte, 64),
	}
	n.deliver(target, leader, prep2)
	// View 1 without a TC (validly signed).
	prep3 := signed(&types.Prepare{
		Leader:   committee.Leader(1, 1),
		Proposal: types.ConsensusProposal{Slot: 1, View: 1, Cut: cut},
		Ticket:   types.Ticket{Kind: types.TicketCommit},
	})
	n.deliver(target, committee.Leader(1, 1), prep3)

	for _, sm := range env.sent {
		if _, isVote := sm.msg.(*types.PrepVote); isVote {
			t.Fatal("invalid Prepare gathered a vote")
		}
	}
}

// TestVoteBlocksOnMissingTipData (§5.5.2): without local tip data the
// replica requests it instead of voting; TipDataArrived releases the vote.
func TestVoteBlocksOnMissingTipData(t *testing.T) {
	n := newNet(t, func(id types.NodeID, cfg *Config) { cfg.OptimisticTips = true })
	committee := types.NewCommittee(4)
	leader := committee.Leader(1, 0)
	voter := types.NodeID((int(leader) + 1) % 4)
	n.providers[voter].hasData = false
	// The leader proposes an optimistic (uncertified) tip for lane 0.
	optimistic := types.NewEmptyCut(4)
	optimistic.Tips[0] = types.TipRef{Lane: 0, Position: 2, Digest: types.Digest{2}}
	for _, prov := range n.providers {
		prov.cut = optimistic
	}

	// The leader proposes (its own provider has data).
	n.engines[leader].Init()
	// Deliver the Prepare only to the blocked voter.
	var prep *types.Prepare
	for _, m := range n.envs[leader].bcast {
		if p, ok := m.(*types.Prepare); ok {
			prep = p
		}
	}
	if prep == nil {
		t.Fatal("leader did not propose")
	}
	n.engines[voter].OnPrepare(leader, prep)
	if len(n.envs[voter].fetches) == 0 {
		t.Fatal("missing tip data must trigger a fetch")
	}
	for _, sm := range n.envs[voter].sent {
		if _, isVote := sm.msg.(*types.PrepVote); isVote {
			t.Fatal("voted without tip data")
		}
	}
	// Data arrives.
	n.providers[voter].hasData = true
	n.engines[voter].TipDataArrived(1, 0)
	voted := false
	for _, sm := range n.envs[voter].sent {
		if _, isVote := sm.msg.(*types.PrepVote); isVote {
			voted = true
		}
	}
	if !voted {
		t.Fatal("TipDataArrived did not release the vote")
	}
}

// TestCommitNoticeValidation: a forged CommitQC must not decide.
func TestCommitNoticeValidation(t *testing.T) {
	n := newNet(t, nil)
	cut := types.NewEmptyCut(4)
	prop := types.ConsensusProposal{Slot: 1, View: 0, Cut: cut}
	forged := &types.CommitNotice{
		QC: types.CommitQC{Slot: 1, View: 0, Digest: prop.Digest(), Shares: []types.SigShare{
			{Signer: 0, Sig: make([]byte, 64)},
			{Signer: 1, Sig: make([]byte, 64)},
			{Signer: 2, Sig: make([]byte, 64)},
		}},
		Proposal: prop,
	}
	n.deliver(3, 0, forged)
	if n.engines[3].Decided(1) {
		t.Fatal("forged CommitQC decided a slot")
	}
	// And a QC/proposal mismatch must not decide either (a genuine QC for
	// a different digest).
	suite := crypto.NewEd25519Suite(4, 3) // newNet's keys
	mismatch := &types.CommitNotice{
		QC:       types.CommitQC{Slot: 1, View: 0, Digest: types.Digest{9}},
		Proposal: prop,
	}
	ack := types.ConfirmAck{Slot: 1, View: 0, Digest: types.Digest{9}}
	for _, id := range []types.NodeID{0, 1, 2} {
		mismatch.QC.Shares = append(mismatch.QC.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(ack.SigningBytes())})
	}
	n.deliver(3, 0, mismatch)
	if n.engines[3].Decided(1) {
		t.Fatal("mismatched CommitNotice decided a slot")
	}
}

// TestTimeoutRebroadcast: a view timer expiring repeatedly re-broadcasts
// the complaint (partition recovery) without double-counting it.
func TestTimeoutRebroadcast(t *testing.T) {
	n := newNet(t, nil)
	e, env := n.engines[0], n.envs[0]
	e.Init()
	env.bcast = nil
	e.OnTimer(Timer{Kind: TimerView, Slot: 1, View: 0})
	e.OnTimer(Timer{Kind: TimerView, Slot: 1, View: 0})
	count := 0
	for _, m := range env.bcast {
		if _, ok := m.(*types.Timeout); ok {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("timeout broadcasts = %d, want 2", count)
	}
	_, timeouts, _, _, _ := e.DebugSlot(1)
	if timeouts[0] != 1 {
		t.Fatalf("own timeout collected %d times", timeouts[0])
	}
}

// TestParallelSlotWindow: slot k+1 cannot start without CommitQC_1.
func TestTicketWindowEnforced(t *testing.T) {
	n := newNet(t, func(id types.NodeID, cfg *Config) { cfg.MaxParallel = 2 })
	e := n.engines[0]
	e.Init()
	// Slot 3 requires CommitQC_1; a view-0 Prepare with a genesis ticket
	// must be rejected.
	committee := types.NewCommittee(4)
	leader3 := committee.Leader(3, 0)
	prep := &types.Prepare{
		Leader:   leader3,
		Proposal: types.ConsensusProposal{Slot: 3, View: 0, Cut: types.NewEmptyCut(4)},
		Ticket:   types.Ticket{Kind: types.TicketCommit}, // missing QC for slot 1
	}
	suite := crypto.NewEd25519Suite(4, 3)
	prep.Sig = suite.Signer(leader3).Sign(prep.SigningBytes())
	n.envs[0].sent = nil
	e.OnPrepare(leader3, prep)
	for _, sm := range n.envs[0].sent {
		if _, isVote := sm.msg.(*types.PrepVote); isVote {
			t.Fatal("slot beyond the ticket window gathered a vote")
		}
	}
}
