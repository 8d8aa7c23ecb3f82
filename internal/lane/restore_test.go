package lane

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/types"
)

// recJournal captures journaled lane records for replay into Restore.
type recJournal struct {
	own   []*types.Proposal
	votes []*types.Vote
}

func (r *recJournal) OwnProposal(p *types.Proposal) { r.own = append(r.own, p) }
func (r *recJournal) Vote(v *types.Vote)            { r.votes = append(r.votes, v) }

func (r *recJournal) voteMap() map[types.NodeID]map[types.Pos]types.Digest {
	out := make(map[types.NodeID]map[types.Pos]types.Digest)
	for _, v := range r.votes {
		m := out[v.Lane]
		if m == nil {
			m = make(map[types.Pos]types.Digest)
			out[v.Lane] = m
		}
		m[v.Position] = v.Digest
	}
	return out
}

func journaledPair(t *testing.T) (owner *State, voter *State, j *recJournal, suite crypto.Suite) {
	t.Helper()
	committee := types.NewCommittee(4)
	suite = crypto.NewNopSuite(4)
	j = &recJournal{}
	owner = NewState(Config{Committee: committee, Self: 0, Signer: suite.Signer(0), Journal: j})
	voter = NewState(Config{Committee: committee, Self: 1, Signer: suite.Signer(1), Journal: j})
	return
}

// TestRestoreNeverContradictsVotes: a voter rebuilt from its journal
// re-emits only identical votes at voted positions, refuses forks there,
// and continues FIFO voting from the restored frontier.
func TestRestoreNeverContradictsVotes(t *testing.T) {
	owner, voter, j, suite := journaledPair(t)

	p1 := owner.AddBatch(batch(0, 1))
	v1, err := voter.OnProposal(p1)
	if err != nil || len(v1) != 1 {
		t.Fatalf("vote on p1: %v %v", v1, err)
	}
	if _, _, err := owner.OnVote(v1[0]); err != nil {
		t.Fatal(err)
	}
	p2 := owner.AddBatch(batch(0, 2))
	if p2 == nil {
		t.Fatal("p1 certified (self + r1 = f+1), p2 must start")
	}
	if v2, err := voter.OnProposal(p2); err != nil || len(v2) != 1 {
		t.Fatalf("vote on p2: %v %v", v2, err)
	}

	// Crash the voter; rebuild from its journal.
	committee := types.NewCommittee(4)
	voter2 := NewState(Config{Committee: committee, Self: 1, Signer: suite.Signer(1)})
	voter2.Restore(nil, 0, j.voteMap())

	if got := voter2.VotedPos(0); got != 2 {
		t.Fatalf("restored voted frontier = %d, want 2", got)
	}
	// Retransmission of the exact voted proposal: identical vote re-emitted.
	re, err := voter2.OnProposal(p2)
	if err != nil || len(re) != 1 || re[0].Digest != p2.Digest() {
		t.Fatalf("retransmission re-vote: %v %v", re, err)
	}
	// A fork sibling at a voted position: stored, never voted.
	fork := &types.Proposal{Lane: 0, Position: 2, Parent: p1.Digest(), Batch: batch(0, 99)}
	fork.Sig = suite.Signer(0).Sign(fork.SigningBytes())
	if vs, _ := voter2.OnProposal(fork); len(vs) != 0 {
		t.Fatalf("restored voter voted for a fork at a voted position: %v", vs)
	}
	// FIFO voting continues from the restored digest chain.
	p3 := &types.Proposal{Lane: 0, Position: 3, Parent: p2.Digest(), Batch: batch(0, 3)}
	p3.Sig = suite.Signer(0).Sign(p3.SigningBytes())
	if vs, err := voter2.OnProposal(p3); err != nil || len(vs) != 1 {
		t.Fatalf("FIFO continuation after restore: %v %v", vs, err)
	}
}

// TestRestoreOwnLaneNeverEquivocates: an owner rebuilt from its journal
// resumes production after its last journaled proposal, keeps
// uncertified cars outstanding for re-broadcast, and drops committed
// ones from the pipeline.
func TestRestoreOwnLaneNeverEquivocates(t *testing.T) {
	owner, voter, j, suite := journaledPair(t)
	p1 := owner.AddBatch(batch(0, 1))
	v1, _ := voter.OnProposal(p1)
	owner.OnVote(v1[0])
	p2 := owner.AddBatch(batch(0, 2)) // uncertified

	committee := types.NewCommittee(4)
	owner2 := NewState(Config{Committee: committee, Self: 0, Signer: suite.Signer(0)})
	owner2.Restore(j.own, 1, nil) // position 1 committed pre-crash

	// Production resumes at position 3, chained to the pre-crash tip —
	// never a second, conflicting proposal at positions 1 or 2. The
	// uncertified p2 fills the pipeline slot, so the batch queues until
	// p2's PoA completes (its votes re-arrive after the re-broadcast).
	if got := owner2.AddBatch(batch(0, 3)); got != nil {
		t.Fatalf("produced %+v past an uncertified outstanding car", got)
	}
	if out := owner2.OldestOutstanding(); out == nil || out.Position != 2 || out.Digest() != p2.Digest() {
		t.Fatalf("outstanding after restore = %+v, want p2", out)
	}
	rv, err := voter.OnProposal(p2)
	if err != nil || len(rv) != 1 {
		t.Fatalf("re-vote on p2: %v %v", rv, err)
	}
	props, _, err := owner2.OnVote(rv[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 1 || props[0].Position != 3 || props[0].Parent != p2.Digest() {
		t.Fatalf("post-restore production = %+v, want position 3 chained to p2", props)
	}
	// Committed position 1 must not rejoin the outstanding pipeline.
	for _, out := range []*types.Proposal{owner2.OldestOutstanding()} {
		if out != nil && out.Position == 1 {
			t.Fatal("committed car re-entered the outstanding pipeline")
		}
	}
}
