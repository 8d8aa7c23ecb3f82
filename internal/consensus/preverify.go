package consensus

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/types"
)

// This file holds the consensus layer's signature checks — all of them.
// Every runtime runs PreVerifier on a peer's message before the engine
// sees it (runtime.PreVerifier), so the engine's handlers check no
// signature themselves: they keep only sender identity, committee
// membership, digest/slot/view matches and the other structural rules.

// PreVerifier checks consensus message signatures without touching engine
// state. Safe for concurrent use (immutable fields; a crypto.VerifyCache
// Verifier is thread-safe).
type PreVerifier struct {
	Committee types.Committee
	Verifier  crypto.Verifier
	// OptimisticTips mirrors Config.OptimisticTips: it sets the strong-vote
	// threshold PrepareQCs must meet (§5.5.2).
	OptimisticTips bool
}

// PreVerify implements the runtime.PreVerifier contract for the six
// consensus message types; everything else passes through untouched.
func (pv *PreVerifier) PreVerify(from types.NodeID, m types.Message) error {
	switch msg := m.(type) {
	case *types.Prepare:
		if msg.Leader != from {
			return fmt.Errorf("consensus: prepare relayed by %s for leader %s", from, msg.Leader)
		}
		return verifyPrepareSigs(pv.Committee, pv.Verifier, msg)
	case *types.PrepVote:
		return verifySignerMsg(pv.Committee, pv.Verifier, msg.Voter, msg.SigningBytes(), msg.Sig)
	case *types.Confirm:
		if err := verifySignerMsg(pv.Committee, pv.Verifier, msg.Leader, msg.SigningBytes(), msg.Sig); err != nil {
			return err
		}
		return verifyPrepareQC(pv.Committee, pv.Verifier, pv.OptimisticTips, &msg.QC)
	case *types.ConfirmAck:
		return verifySignerMsg(pv.Committee, pv.Verifier, msg.Voter, msg.SigningBytes(), msg.Sig)
	case *types.CommitNotice:
		return crypto.VerifyCommitQC(pv.Verifier, pv.Committee, &msg.QC)
	case *types.Timeout:
		return verifyTimeoutSigs(pv.Committee, pv.Verifier, pv.OptimisticTips, msg)
	}
	return nil
}

func verifySignerMsg(committee types.Committee, v crypto.Verifier, signer types.NodeID, msg, sig []byte) error {
	if !committee.Valid(signer) {
		return fmt.Errorf("consensus: message from unknown replica %s", signer)
	}
	if !v.Verify(signer, msg, sig) {
		return fmt.Errorf("consensus: bad signature from %s", signer)
	}
	return nil
}

// verifyPrepareSigs checks everything cryptographic about a Prepare: the
// leader's signature, the ticket's certificate (CommitQC or TC), and the
// PoAs of every certified tip in the cut. Structural rules that depend on
// engine state or configuration (ticket kind for the view, winner
// reproposals, the optimistic-tips admission rule) stay in validPrepare.
func verifyPrepareSigs(committee types.Committee, v crypto.Verifier, prep *types.Prepare) error {
	if !v.Verify(prep.Leader, prep.SigningBytes(), prep.Sig) {
		return fmt.Errorf("consensus: bad prepare signature from %s", prep.Leader)
	}
	if qc := prep.Ticket.Commit; qc != nil {
		if err := crypto.VerifyCommitQC(v, committee, qc); err != nil {
			return err
		}
	}
	if tc := prep.Ticket.TC; tc != nil {
		if err := crypto.VerifyTC(v, committee, tc); err != nil {
			return err
		}
	}
	return verifyCutPoAs(committee, v, &prep.Proposal.Cut)
}

// verifyCutPoAs checks the PoA of every certified tip in a cut. Each PoA
// verifies as its own memoized certificate rather than one merged share
// batch: the same PoA re-appears across consecutive cuts (slow lanes keep
// their tip for many slots) and in standalone broadcasts, so per-cert
// memoization turns the n-tips-×-f+1-shares cost of a repeat cut into n
// lookups.
func verifyCutPoAs(committee types.Committee, v crypto.Verifier, cut *types.Cut) error {
	for i := range cut.Tips {
		if cert := cut.Tips[i].Cert; cert != nil {
			if err := crypto.VerifyPoA(v, committee, cert); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyTimeoutSigs checks a Timeout's signature, its HighQC and the
// PoAs of its HighProp's cut: a TC's winning proposal is reproposed with
// that cut, certificates included, by whichever replica leads the next
// view.
func verifyTimeoutSigs(committee types.Committee, v crypto.Verifier, optimisticTips bool, t *types.Timeout) error {
	if err := verifySignerMsg(committee, v, t.Voter, t.SigningBytes(), t.Sig); err != nil {
		return err
	}
	if t.HighQC != nil {
		if err := verifyPrepareQC(committee, v, optimisticTips, t.HighQC); err != nil {
			return err
		}
	}
	if t.HighProp != nil {
		return verifyCutPoAs(committee, v, &t.HighProp.Cut)
	}
	return nil
}

func verifyPrepareQC(committee types.Committee, v crypto.Verifier, optimisticTips bool, qc *types.PrepareQC) error {
	strongThreshold := 0
	if optimisticTips {
		strongThreshold = committee.PoAQuorum() // f+1 strong (§5.5.2)
	}
	return crypto.VerifyPrepareQC(v, committee, qc, strongThreshold)
}
