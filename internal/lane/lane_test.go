package lane

import (
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/types"
)

// newStates builds n lane states signing with real ed25519 keys (seed 5)
// when verify is set, else with the no-op suite.
func newStates(t *testing.T, n int, verify bool) []*State {
	t.Helper()
	committee := types.NewCommittee(n)
	var suite crypto.Suite
	if verify {
		suite = crypto.NewEd25519Suite(n, 5)
	} else {
		suite = crypto.NewNopSuite(n)
	}
	out := make([]*State, n)
	for i := range out {
		out[i] = NewState(Config{
			Committee: committee,
			Self:      types.NodeID(i),
			Signer:    suite.Signer(types.NodeID(i)),
		})
	}
	return out
}

// ingest delivers a proposal the way a runtime does: through the
// PreVerifier (ed25519, the newStates(verify) keys), then OnProposal.
func ingest(s *State, p *types.Proposal) ([]*types.Vote, error) {
	pv := &PreVerifier{Committee: s.cfg.Committee, Verifier: crypto.NewEd25519Suite(s.cfg.Committee.Size(), 5).Verifier()}
	if err := pv.PreVerify(p.Lane, p); err != nil {
		return nil, err
	}
	return s.OnProposal(p)
}

func batch(origin types.NodeID, seq uint64) *types.Batch {
	return types.NewSyntheticBatch(origin, seq, 100, 51200, 0, 0)
}

// driveCar runs one full car: proposer 0 proposes, everyone votes, the
// PoA completes. Returns the completed proposal.
func driveCar(t *testing.T, states []*State, seq uint64) *types.Proposal {
	t.Helper()
	p := states[0].AddBatch(batch(0, seq))
	if p == nil {
		t.Fatal("expected proposal")
	}
	var lastPoAOrNext bool
	for i := 1; i < len(states); i++ {
		votes, err := states[i].OnProposal(p)
		if err != nil {
			t.Fatalf("r%d vote: %v", i, err)
		}
		for _, v := range votes {
			props, poa, err := states[0].OnVote(v)
			if err != nil {
				t.Fatal(err)
			}
			if len(props) > 0 || poa != nil {
				lastPoAOrNext = true
			}
		}
	}
	if !lastPoAOrNext {
		t.Fatal("PoA never completed")
	}
	return p
}

func TestCarLifecycle(t *testing.T) {
	states := newStates(t, 4, true)
	p1 := driveCar(t, states, 1)
	if p1.Position != 1 || !p1.Parent.IsZero() || p1.ParentPoA != nil {
		t.Fatalf("genesis car malformed: %+v", p1)
	}
	if got := states[0].CertifiedTip(0); got.Position != 1 || got.Cert == nil {
		t.Fatalf("own certified tip = %+v", got)
	}

	// Second car chains to the first and carries its PoA.
	p2 := states[0].AddBatch(batch(0, 2))
	if p2 == nil {
		t.Fatal("expected second proposal")
	}
	if p2.Position != 2 || p2.Parent != p1.Digest() || p2.ParentPoA == nil {
		t.Fatalf("second car not chained: %+v", p2)
	}
	if err := crypto.VerifyPoA(crypto.NewEd25519Suite(4, 5).Verifier(), types.NewCommittee(4), p2.ParentPoA); err != nil {
		t.Fatalf("carried PoA invalid: %v", err)
	}
}

func TestSequentialCarsBlockWithoutPoA(t *testing.T) {
	states := newStates(t, 4, false)
	if p := states[0].AddBatch(batch(0, 1)); p == nil {
		t.Fatal("first car must start")
	}
	// No votes yet: the next batch must queue, not propose (one car in
	// flight).
	if p := states[0].AddBatch(batch(0, 2)); p != nil {
		t.Fatal("second car started before the first certified")
	}
	if states[0].PendingBatches() != 1 {
		t.Fatalf("pending = %d", states[0].PendingBatches())
	}
}

func TestFIFOVotingRejectsGaps(t *testing.T) {
	states := newStates(t, 4, false)
	p1 := states[0].AddBatch(batch(0, 1))
	// Deliver p1 only to r1; then let the PoA form via r1's vote (f+1 = 2
	// with the proposer's own share).
	votes, err := states[1].OnProposal(p1)
	if err != nil || len(votes) != 1 {
		t.Fatalf("r1 must vote: %v", err)
	}
	props, _, err := states[0].OnVote(votes[0])
	if err != nil {
		t.Fatal(err)
	}
	// p2 now exists (carried the PoA); r2 sees p2 WITHOUT p1: buffer.
	states[0].AddBatch(batch(0, 2))
	var p2 *types.Proposal
	if len(props) > 0 {
		p2 = props[0]
	} else {
		p2 = states[0].OldestOutstanding()
	}
	if p2 == nil {
		p2 = states[0].AddBatch(batch(0, 3))
	}
	if p2 == nil {
		t.Fatal("no second proposal available")
	}
	votes, err = states[2].OnProposal(p2)
	if err != ErrMissingParent {
		t.Fatalf("gap must buffer: votes=%v err=%v", votes, err)
	}
	if len(votes) != 0 {
		t.Fatal("must not vote across a gap")
	}
	// Gap fill: r2 receives p1, votes for BOTH in order.
	votes, err = states[2].OnProposal(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(votes) != 2 || votes[0].Position != 1 || votes[1].Position != 2 {
		t.Fatalf("gap fill must vote the chain: %+v", votes)
	}
}

func TestEquivocationStoredNotVoted(t *testing.T) {
	states := newStates(t, 4, false)
	committee := types.NewCommittee(4)
	suite := crypto.NewNopSuite(4)

	// A Byzantine r0 builds two different proposals for position 1.
	byz := NewState(Config{Committee: committee, Self: 0, Signer: suite.Signer(0)})
	pA := byz.AddBatch(batch(0, 1))
	byz2 := NewState(Config{Committee: committee, Self: 0, Signer: suite.Signer(0)})
	pB := byz2.AddBatch(batch(0, 99))
	if pA.Digest() == pB.Digest() {
		t.Fatal("fork digests must differ")
	}

	votes, err := states[1].OnProposal(pA)
	if err != nil || len(votes) != 1 {
		t.Fatalf("first fork must get the vote: %v", err)
	}
	votes, err = states[1].OnProposal(pB)
	if err != nil {
		t.Fatalf("fork sibling must be stored silently: %v", err)
	}
	if len(votes) != 0 {
		t.Fatal("voted twice for one position")
	}
	if states[1].Store().ForksAt(0, 1) != 2 {
		t.Fatalf("both forks must be stored, got %d", states[1].Store().ForksAt(0, 1))
	}
}

func TestDuplicateProposalRevotes(t *testing.T) {
	states := newStates(t, 4, false)
	p1 := states[0].AddBatch(batch(0, 1))
	v1, _ := states[1].OnProposal(p1)
	// Retransmission: the same proposal again yields an identical vote
	// (idempotent recovery after vote loss).
	v2, err := states[1].OnProposal(p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1) != 1 || len(v2) != 1 || v1[0].Digest != v2[0].Digest || v1[0].Position != v2[0].Position {
		t.Fatalf("re-vote mismatch: %+v vs %+v", v1, v2)
	}
}

func TestOnCommittedAdoptsFrontier(t *testing.T) {
	states := newStates(t, 4, false)
	p1 := driveCar(t, states, 1)
	d1 := p1.Digest()

	// r3 never saw p1 live; commit adoption lets it vote for p2 anyway.
	fresh := newStates(t, 4, false)[3]
	fresh.OnCommitted(0, 1, d1)
	p2 := &types.Proposal{Lane: 0, Position: 2, Parent: d1, Batch: batch(0, 2)}
	votes, err := fresh.OnProposal(p2)
	if err != nil || len(votes) != 1 {
		t.Fatalf("committed-frontier adoption must allow the next vote: %v %v", votes, err)
	}
}

// TestOwnCommitRetiresOutstanding pins the commit-overtakes-certification
// recovery path (found by the live churn soak): a restarted proposer whose
// pre-crash cars commit from PoAs its peers already held — while the peers
// have GC'd their vote bookkeeping below the committed frontier and so
// never re-vote for a retransmission — must retire those cars from the
// outstanding window and resume production, or its lane wedges forever.
func TestOwnCommitRetiresOutstanding(t *testing.T) {
	committee := types.NewCommittee(4)
	suite := crypto.NewNopSuite(4)
	cfg := Config{Committee: committee, Self: 0, Signer: suite.Signer(0)}
	vote := func(p *types.Proposal) *types.Vote {
		v := &types.Vote{Lane: 0, Position: p.Position, Digest: p.Digest(), Voter: 1}
		v.Sig = suite.Signer(1).Sign(v.SigningBytes())
		return v
	}
	// Before the crash cars 1 and 2 certified and car 3 did not. PoAs are
	// not journaled, so all three come back outstanding.
	pre := NewState(cfg)
	var cars []*types.Proposal
	for seq := uint64(1); seq <= 3; seq++ {
		p := pre.AddBatch(batch(0, seq))
		if p == nil {
			t.Fatalf("car %d blocked before the crash", seq)
		}
		cars = append(cars, p)
		if seq < 3 {
			if _, _, err := pre.OnVote(vote(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := NewState(cfg)
	s.Restore(cars, 0, nil)
	if p := s.AddBatch(batch(0, 4)); p != nil {
		t.Fatal("a new car started behind three restored outstanding cars")
	}

	// The lane commits through position 1 without a local PoA: car 1
	// retires; cars 2 and 3 still hold the lane.
	if props := s.OnCommitted(0, 1, cars[0].Digest()); len(props) != 0 {
		t.Fatalf("commit started a car with two still outstanding: %+v", props)
	}
	if oo := s.OldestOutstanding(); oo == nil || oo.Position != 2 {
		t.Fatalf("outstanding head = %+v, want position 2", oo)
	}

	// A surviving car still certifies normally (peer vote state at or
	// above the committed frontier is retained, so retransmission works).
	_, poa, err := s.OnVote(vote(cars[1]))
	if err != nil {
		t.Fatal(err)
	}
	if poa == nil || poa.Position != 2 {
		t.Fatalf("car 2 did not certify after the retirement: %+v", poa)
	}

	// Committing the last restored car empties the window: the queued
	// batch starts at once.
	props := s.OnCommitted(0, 3, cars[2].Digest())
	if len(props) != 1 || props[0].Position != 4 {
		t.Fatalf("commit did not resume production: %+v", props)
	}
}

func TestBufferedGapReportsRange(t *testing.T) {
	states := newStates(t, 4, false)
	p1 := driveCar(t, states, 1)
	_ = p1
	// Build up to position 3 at the proposer with only r1 voting.
	var last *types.Proposal
	for seq := uint64(2); seq <= 3; seq++ {
		p := states[0].AddBatch(batch(0, seq))
		if p == nil {
			t.Fatal("car blocked")
		}
		last = p
		votes, err := states[1].OnProposal(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range votes {
			states[0].OnVote(v)
		}
	}
	// r3 saw nothing after p1; receives p3 out of order.
	if _, err := states[3].OnProposal(last); err != ErrMissingParent {
		t.Fatalf("expected buffering, got %v", err)
	}
	from, to, anchor, ok := states[3].BufferedGap(0)
	if !ok || from != 2 || to != 2 || anchor.Position != 2 {
		t.Fatalf("gap = [%d,%d] anchor=%+v ok=%v", from, to, anchor, ok)
	}
}

func TestRejectsInvalidProposals(t *testing.T) {
	states := newStates(t, 4, true)
	good := states[0].AddBatch(batch(0, 1))

	tampered := good.Clone()
	tampered.Sig = make([]byte, 64)
	if _, err := ingest(states[1], tampered); err == nil {
		t.Fatal("bad signature accepted")
	}
	wrongCount := good.Clone()
	badBatch := good.Batch.Clone()
	badBatch.Txs = []types.Transaction{[]byte("x")}
	badBatch.Count = 5
	badBatch.Bytes = 1
	wrongCount.Batch = badBatch
	if _, err := ingest(states[1], wrongCount); err == nil {
		t.Fatal("inconsistent batch accepted")
	}
	if _, err := ingest(states[1], &types.Proposal{Lane: 9, Position: 1, Batch: batch(9, 1)}); err == nil {
		t.Fatal("unknown lane accepted")
	}
	if _, err := ingest(states[0], good); err == nil {
		t.Fatal("own proposal loopback accepted")
	}
}

// TestChainSuffixIntegrity is a property test: after driving k cars, any
// certified tip's ChainSuffix is gap-free, hash-linked, and complete —
// the §5.1 instant-referencing invariant.
func TestChainSuffixIntegrity(t *testing.T) {
	f := func(k uint8) bool {
		n := int(k%20) + 2
		states := newStates(t, 4, false)
		var tip *types.Proposal
		for seq := 1; seq <= n; seq++ {
			p := states[0].AddBatch(batch(0, uint64(seq)))
			if p == nil {
				return false
			}
			tip = p
			for i := 1; i < 4; i++ {
				votes, err := states[i].OnProposal(p)
				if err != nil {
					return false
				}
				for _, v := range votes {
					states[0].OnVote(v)
				}
			}
		}
		props, complete := states[1].Store().ChainSuffix(0, 1, tip.Position, tip.Digest())
		if !complete || len(props) != n {
			return false
		}
		for i, p := range props {
			if p.Position != types.Pos(i+1) {
				return false
			}
			if i > 0 && p.Parent != props[i-1].Digest() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreGC(t *testing.T) {
	s := NewStore()
	for pos := types.Pos(1); pos <= 10; pos++ {
		s.Put(&types.Proposal{Lane: 0, Position: pos, Batch: batch(0, uint64(pos))})
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if removed := s.GCBelow(0, 5); removed != 4 {
		t.Fatalf("removed %d", removed)
	}
	if s.Len() != 6 {
		t.Fatalf("len after GC = %d", s.Len())
	}
	if _, complete := s.ChainSuffix(0, 1, 4, types.Digest{}); complete {
		t.Fatal("GC'd range must be incomplete")
	}
}
