package lane

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/types"
)

// This file holds the data layer's signature checks — all of them. Every
// runtime runs them on a peer's message before State sees it
// (runtime.PreVerifier); the State handlers check no signature
// themselves.

// PreVerifier checks data-layer message signatures without touching lane
// state. Safe for concurrent use when Verifier is (its fields are
// immutable and a crypto.VerifyCache is thread-safe).
type PreVerifier struct {
	Committee types.Committee
	Verifier  crypto.Verifier
}

// PreVerify implements the runtime.PreVerifier contract for *Proposal,
// *Vote and *PoA; other message types pass through untouched.
func (pv *PreVerifier) PreVerify(_ types.NodeID, m types.Message) error {
	switch msg := m.(type) {
	case *types.Proposal:
		// The proposer's signature is checked directly and the parent PoA
		// as a memoized whole certificate: it rides again in cuts and in
		// the standalone broadcast.
		if err := checkProposal(pv.Committee, msg); err != nil {
			return err
		}
		if !pv.Verifier.Verify(msg.Lane, msg.SigningBytes(), msg.Sig) {
			return fmt.Errorf("lane: bad proposal signature from %s", msg.Lane)
		}
		if msg.ParentPoA != nil {
			return crypto.VerifyPoA(pv.Verifier, pv.Committee, msg.ParentPoA)
		}
		return nil
	case *types.Vote:
		if !pv.Committee.Valid(msg.Voter) {
			return fmt.Errorf("lane: vote from unknown replica %s", msg.Voter)
		}
		if !pv.Verifier.Verify(msg.Voter, msg.SigningBytes(), msg.Sig) {
			return fmt.Errorf("lane: bad vote signature from %s", msg.Voter)
		}
		return nil
	case *types.PoA:
		// The standalone-PoA broadcast takes the memoized whole-cert
		// path: the same PoA arrives again in the cuts that carry the
		// lane's tip, where it is one cert-memo lookup.
		return crypto.VerifyPoA(pv.Verifier, pv.Committee, msg)
	}
	return nil
}

// CollectProposalSigs queues a proposal's signature checks — the
// proposer's signature plus, when a parent PoA rides along, its f+1
// shares — after validating the PoA's structure. Stateless.
func CollectProposalSigs(committee types.Committee, bv *crypto.BatchVerifier, p *types.Proposal) error {
	if err := checkProposal(committee, p); err != nil {
		return err
	}
	bv.Add(p.Lane, p.SigningBytes(), p.Sig)
	if p.ParentPoA != nil {
		return bv.AddPoA(committee, p.ParentPoA)
	}
	return nil
}

// checkProposal is the structure a proposal's signatures rest on: a
// committee lane, and a parent PoA (if any) that certifies the parent.
func checkProposal(committee types.Committee, p *types.Proposal) error {
	if !committee.Valid(p.Lane) {
		return fmt.Errorf("lane: proposal for unknown lane %s", p.Lane)
	}
	if p.ParentPoA != nil && (p.Position <= 1 || p.ParentPoA.Lane != p.Lane || p.ParentPoA.Position != p.Position-1 || p.ParentPoA.Digest != p.Parent) {
		return fmt.Errorf("lane: parent PoA does not certify parent")
	}
	return nil
}
