package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/lane"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/workload"
)

// equivocatingLane wraps an Autobahn node and, at configured positions,
// broadcasts a conflicting fork of its own lane proposal to half the
// replicas — the §A.4 Byzantine lane scenario. The wrapped node's own
// consensus participation stays honest so the attack is isolated to the
// data layer.
type equivocatingLane struct {
	*core.Node
	committee types.Committee
	suite     crypto.Suite
	self      types.NodeID
	seq       uint64
}

func (e *equivocatingLane) OnClientBatch(ctx runtime.Context, b *types.Batch) {
	e.Node.OnClientBatch(ctx, b)
	// Every few batches, fabricate a fork for the position just proposed
	// and send it to the odd-numbered replicas only.
	e.seq++
	if e.seq%3 != 0 {
		return
	}
	tip := e.Node.Lanes().OptimisticTip(e.self)
	if tip.Position == 0 {
		return
	}
	forkBatch := types.NewSyntheticBatch(e.self, 1_000_000+e.seq, b.Count, b.Bytes, b.MeanArrival, b.CreatedAt)
	fork := &types.Proposal{
		Lane:     e.self,
		Position: tip.Position, // same position, different content: a fork
		Batch:    forkBatch,
	}
	fork.Sig = e.suite.Signer(e.self).Sign(fork.SigningBytes())
	for _, id := range e.committee.Nodes() {
		if id != e.self && id%2 == 1 {
			ctx.Send(id, fork)
		}
	}
}

// TestEquivocatingLaneDoesNotBreakAgreement: a Byzantine lane owner forks
// its lane toward half the replicas; consensus still produces identical
// logs everywhere and honest lanes keep committing (§A.4: forks are
// resolved at commit time, at most one proposal per position commits).
func TestEquivocatingLaneDoesNotBreakAgreement(t *testing.T) {
	const n = 4
	committee := types.NewCommittee(n)
	suite := crypto.NewEd25519Suite(n, 21)
	rec := metrics.NewRecorder(2 * time.Minute)
	rec.Quorum = committee.F() + 1
	lc := newLogCollector(n, rec.Sink())
	eng := sim.NewEngine(sim.Config{
		Net:  sim.NewNetwork(sim.DefaultNetConfig(sim.IntraUSTopology())),
		Seed: 21,
	})
	ids := make([]types.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = types.NodeID(i)
		nd := core.NewNode(core.Config{
			Committee: committee, Self: types.NodeID(i), Suite: suite,
			VerifySigs: true, FastPath: true, OptimisticTips: false,
			Sink: lc,
		})
		if i == 2 {
			eng.AddNode(&equivocatingLane{Node: nd, committee: committee, suite: suite, self: 2})
		} else {
			eng.AddNode(nd)
		}
	}
	workload.Install(eng, ids, workload.Config{TotalRate: 8000, Start: 0, End: 8 * time.Second})
	eng.Run(15 * time.Second)

	checkPrefixAgreement(t, lc.logs)
	// Honest lanes (3/4 of the load) must commit in full.
	if rec.Total() < 8000*8*3/4 {
		t.Fatalf("committed only %d txs under an equivocating lane", rec.Total())
	}
	// No position commits twice: scan replica 0's log.
	seen := make(map[[2]uint64]bool)
	for _, e := range lc.logs[0] {
		k := [2]uint64{uint64(e.Lane), uint64(e.Pos)}
		if seen[k] {
			t.Fatalf("lane %d position %d committed twice", e.Lane, e.Pos)
		}
		seen[k] = true
	}
	t.Logf("committed %d txs, %d entries at r0", rec.Total(), len(lc.logs[0]))
}

// TestForgedMessagesRejected: messages with invalid signatures or forged
// certificates must not affect honest replicas (with VerifySigs on). The
// forgeries travel the way a runtime delivers them: sent by r3 through
// the simulated network, pre-verified at r0's ingress.
func TestForgedMessagesRejected(t *testing.T) {
	committee := types.NewCommittee(4)
	suite := crypto.NewEd25519Suite(4, 9)
	rec := metrics.NewRecorder(time.Minute)
	rec.Quorum = 2
	lc := newLogCollector(4, rec.Sink())
	eng := sim.NewEngine(sim.Config{
		Net:  sim.NewNetwork(sim.DefaultNetConfig(sim.IntraUSTopology())),
		Seed: 9,
	})
	var nodes []*core.Node
	var forger *ctxCapture
	ids := []types.NodeID{0, 1, 2, 3}
	for i := 0; i < 4; i++ {
		nd := core.NewNode(core.Config{
			Committee: committee, Self: types.NodeID(i), Suite: suite,
			VerifySigs: true, FastPath: true, OptimisticTips: true, Sink: lc,
		})
		nodes = append(nodes, nd)
		if i == 3 {
			forger = &ctxCapture{Node: nd}
			eng.AddNode(forger)
		} else {
			eng.AddNode(nd)
		}
	}
	workload.Install(eng, ids, workload.Config{TotalRate: 4000, Start: 0, End: 5 * time.Second})

	// Periodically send forged traffic from r3 to r0.
	bogusSig := make([]byte, 64)
	eng.Every(100*time.Millisecond, 200*time.Millisecond, 5*time.Second, func(now time.Duration) {
		forgedProp := &types.Proposal{
			Lane: 3, Position: 1,
			Batch: types.NewSyntheticBatch(3, 999, 10, 5120, now, now),
			Sig:   bogusSig,
		}
		forger.ctx.Send(0, forgedProp)
		// The QC names the proposal it carries: only its signatures are
		// forged.
		prop := types.ConsensusProposal{Slot: 999, Cut: types.NewEmptyCut(4)}
		forgedCommit := &types.CommitNotice{
			QC: types.CommitQC{Slot: 999, View: 0, Digest: prop.Digest(), Shares: []types.SigShare{
				{Signer: 1, Sig: bogusSig}, {Signer: 2, Sig: bogusSig}, {Signer: 3, Sig: bogusSig},
			}},
			Proposal: prop,
		}
		forger.ctx.Send(0, forgedCommit)
	})
	eng.Run(10 * time.Second)

	checkPrefixAgreement(t, lc.logs)
	if rec.Total() < 19_000 {
		t.Fatalf("forged traffic disrupted honest commits: %d", rec.Total())
	}
	if nodes[0].Engine().Decided(999) {
		t.Fatal("forged CommitQC decided a slot")
	}
	if _, dropped := eng.Stats(); dropped == 0 {
		t.Fatal("no forgery was dropped at ingress")
	}
}

// ctxCapture keeps the runtime context the engine hands a node, so a test
// can send on that node's behalf through the network.
type ctxCapture struct {
	*core.Node
	ctx runtime.Context
}

func (c *ctxCapture) Init(ctx runtime.Context) {
	c.ctx = ctx
	c.Node.Init(ctx)
}

// TestLaneStateRejectsForkVotes exercises the lane layer's one-vote-per-
// position rule directly under real signatures.
func TestLaneStateRejectsForkVotes(t *testing.T) {
	committee := types.NewCommittee(4)
	suite := crypto.NewEd25519Suite(4, 13)
	mk := func(id types.NodeID) *lane.State {
		return lane.NewState(lane.Config{
			Committee: committee, Self: id,
			Signer: suite.Signer(id),
		})
	}
	honest := mk(1)
	// Byzantine r0 signs two proposals for position 1.
	mkProp := func(seq uint64) *types.Proposal {
		p := &types.Proposal{
			Lane: 0, Position: 1,
			Batch: types.NewSyntheticBatch(0, seq, 10, 5120, 0, 0),
		}
		p.Sig = suite.Signer(0).Sign(p.SigningBytes())
		return p
	}
	a, b := mkProp(1), mkProp(2)
	votesA, err := honest.OnProposal(a)
	if err != nil || len(votesA) != 1 {
		t.Fatalf("first fork: %v %v", votesA, err)
	}
	votesB, err := honest.OnProposal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(votesB) != 0 {
		t.Fatal("honest replica voted for both forks of one position")
	}
}
