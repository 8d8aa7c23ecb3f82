package hotstuff

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/types"
)

// The HotStuff baselines' signature checks — all of them: the simulator
// (the only runtime the baselines run under) calls PreVerify on every
// peer message before delivery, exactly as it does for the Autobahn
// replica, so the handlers check no signature themselves.

var _ runtime.PreVerifier = (*Node)(nil)

// PreVerify checks m's signatures without touching protocol state (it
// reads only the immutable config and the thread-safe verifier). Safe
// for concurrent use.
func (n *Node) PreVerify(from types.NodeID, m types.Message) error {
	if !n.cfg.VerifySigs {
		return nil
	}
	switch msg := m.(type) {
	case *Proposal:
		blk := msg.Block
		if !n.verifier.Verify(blk.Proposer, blk.SigningBytes(), blk.Sig) {
			return fmt.Errorf("hotstuff: bad block signature from %s", blk.Proposer)
		}
		if blk.Justify != nil {
			return verifyQC(n.cfg.Committee, n.verifier, blk.Justify)
		}
		return nil
	case *Vote:
		if !n.verifier.Verify(msg.Voter, msg.SigningBytes(), msg.Sig) {
			return fmt.Errorf("hotstuff: bad vote signature from %s", msg.Voter)
		}
		return nil
	case *NewView:
		if !n.verifier.Verify(msg.Voter, msg.SigningBytes(), msg.Sig) {
			return fmt.Errorf("hotstuff: bad new-view signature from %s", msg.Voter)
		}
		if msg.HighQC != nil {
			return verifyQC(n.cfg.Committee, n.verifier, msg.HighQC)
		}
		return nil
	}
	return nil
}

// verifyQC is the stateless QC check (batch-verified: shares spread
// across cores).
func verifyQC(committee types.Committee, v crypto.Verifier, qc *QC) error {
	if len(qc.Shares) < committee.Quorum() {
		return fmt.Errorf("hotstuff: QC has %d shares, need %d", len(qc.Shares), committee.Quorum())
	}
	if _, err := crypto.DistinctSigners(committee, qc.Shares); err != nil {
		return err
	}
	bv := crypto.NewBatchVerifier(v)
	probe := Vote{Round: qc.Round, Block: qc.Block}
	msg := probe.SigningBytes()
	for _, sh := range qc.Shares {
		bv.Add(sh.Signer, msg, sh.Sig)
	}
	// Whole-QC verdict memoized (VerifyCache verifiers): the same justify
	// QC arrives in the proposal and again in every NewView that carries
	// it, and each re-arrival is then a single lookup.
	return bv.VerifyCert("hotstuff-qc")
}
