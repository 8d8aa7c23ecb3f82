package crypto

import (
	"fmt"

	"repro/internal/types"
)

// Certificate verification. Every helper follows the same shape since
// the large-committee rework: structural checks first (threshold,
// distinct committee signers — cheap, and they gate what reaches the
// expensive step), then ONE batched signature verification per
// certificate via BatchVerifier.VerifyCert instead of n inline checks.
// VerifyCert adds two amortizations on top: with a VerifyCache verifier
// the whole-cert verdict is memoized (a re-arriving PoA or QC costs one
// hash + lookup), and on batch failure a per-share bisection names the
// forged share in the error.

// DistinctSigners verifies that shares come from pairwise-distinct,
// committee-valid signers. Returns the signer set on success.
func DistinctSigners(committee types.Committee, shares []types.SigShare) (map[types.NodeID]bool, error) {
	seen := make(map[types.NodeID]bool, len(shares))
	for _, s := range shares {
		if !committee.Valid(s.Signer) {
			return nil, fmt.Errorf("crypto: share from unknown replica %s", s.Signer)
		}
		if seen[s.Signer] {
			return nil, fmt.Errorf("crypto: duplicate share from %s", s.Signer)
		}
		seen[s.Signer] = true
	}
	return seen, nil
}

// VerifyShares checks that every share is a valid signature over msg and
// that the shares come from at least threshold distinct committee members
// (the duplicate-signer check runs BEFORE any signature math: a cert
// padded with one signer's share repeated must fail structurally, not
// count toward the threshold).
func VerifyShares(v Verifier, committee types.Committee, msg []byte, shares []types.SigShare, threshold int) error {
	if len(shares) < threshold {
		return fmt.Errorf("crypto: %d shares below threshold %d", len(shares), threshold)
	}
	if _, err := DistinctSigners(committee, shares); err != nil {
		return err
	}
	bv := NewBatchVerifier(v)
	for _, s := range shares {
		bv.Add(s.Signer, msg, s.Sig)
	}
	return bv.VerifyCert("shares")
}

// VerifyPoA validates a Proof of Availability: f+1 distinct valid votes
// over the car's signing bytes (§5.1), as one batched check with the
// whole-PoA verdict memoized.
func VerifyPoA(v Verifier, committee types.Committee, poa *types.PoA) error {
	if poa == nil {
		return fmt.Errorf("crypto: nil PoA")
	}
	if len(poa.Shares) < committee.PoAQuorum() {
		return fmt.Errorf("crypto: %d shares below threshold %d", len(poa.Shares), committee.PoAQuorum())
	}
	if _, err := DistinctSigners(committee, poa.Shares); err != nil {
		return err
	}
	bv := NewBatchVerifier(v)
	msg := poa.SigningBytes()
	for _, s := range poa.Shares {
		bv.Add(s.Signer, msg, s.Sig)
	}
	return bv.VerifyCert("poa")
}

// VerifyPrepareQC validates a PrepareQC: 2f+1 distinct valid Prep-Votes.
// If strongThreshold > 0, at least that many shares must be strong votes
// (the §5.5.2 weak/strong refinement; pass 0 when optimistic tips are off,
// in which case all votes are implicitly strong and unmarked).
func VerifyPrepareQC(v Verifier, committee types.Committee, qc *types.PrepareQC, strongThreshold int) error {
	if qc == nil {
		return fmt.Errorf("crypto: nil PrepareQC")
	}
	if len(qc.StrongMask) != 0 && len(qc.StrongMask) != len(qc.Shares) {
		return fmt.Errorf("crypto: strong mask length mismatch")
	}
	if _, err := DistinctSigners(committee, qc.Shares); err != nil {
		return err
	}
	if len(qc.Shares) < committee.Quorum() {
		return fmt.Errorf("crypto: PrepareQC has %d shares, need %d", len(qc.Shares), committee.Quorum())
	}
	strong := 0
	bv := NewBatchVerifier(v)
	for i, s := range qc.Shares {
		isStrong := len(qc.StrongMask) == 0 || qc.StrongMask[i]
		if isStrong {
			strong++
		}
		vote := types.PrepVote{Slot: qc.Slot, View: qc.View, Digest: qc.Digest, Strong: isStrong}
		bv.Add(s.Signer, vote.SigningBytes(), s.Sig)
	}
	// Threshold checks complete before the signature batch runs: a QC
	// that is structurally short must not cost any curve arithmetic.
	if strong < strongThreshold {
		return fmt.Errorf("crypto: PrepareQC has %d strong votes, need %d", strong, strongThreshold)
	}
	if err := bv.VerifyCert("prepareqc"); err != nil {
		return fmt.Errorf("crypto: PrepareQC: %w", err)
	}
	return nil
}

// VerifyCommitQC validates a CommitQC. Fast QCs require n strong PrepVote
// shares; slow QCs require 2f+1 ConfirmAck shares (§5.2.1).
func VerifyCommitQC(v Verifier, committee types.Committee, qc *types.CommitQC) error {
	if qc == nil {
		return fmt.Errorf("crypto: nil CommitQC")
	}
	if _, err := DistinctSigners(committee, qc.Shares); err != nil {
		return err
	}
	bv := NewBatchVerifier(v)
	if qc.Fast {
		if len(qc.Shares) < committee.FastQuorum() {
			return fmt.Errorf("crypto: fast CommitQC has %d shares, need %d", len(qc.Shares), committee.FastQuorum())
		}
		vote := types.PrepVote{Slot: qc.Slot, View: qc.View, Digest: qc.Digest, Strong: true}
		msg := vote.SigningBytes()
		for _, s := range qc.Shares {
			bv.Add(s.Signer, msg, s.Sig)
		}
		if err := bv.VerifyCert("commitqc-fast"); err != nil {
			return fmt.Errorf("crypto: fast CommitQC: %w", err)
		}
		return nil
	}
	if len(qc.Shares) < committee.Quorum() {
		return fmt.Errorf("crypto: CommitQC has %d shares, need %d", len(qc.Shares), committee.Quorum())
	}
	ack := types.ConfirmAck{Slot: qc.Slot, View: qc.View, Digest: qc.Digest}
	msg := ack.SigningBytes()
	for _, s := range qc.Shares {
		bv.Add(s.Signer, msg, s.Sig)
	}
	if err := bv.VerifyCert("commitqc-slow"); err != nil {
		return fmt.Errorf("crypto: CommitQC: %w", err)
	}
	return nil
}

// VerifyTC validates a Timeout Certificate: 2f+1 distinct valid Timeout
// signatures for (slot, view), and recursively checks any piggybacked
// HighQCs. HighProps are checked against their leader signatures only when
// present in Prepare reproposals; the TC itself treats them as hints. The
// timeout signatures form one batch; each HighQC is its own memoized
// certificate (the same QC rides in many replicas' timeouts).
func VerifyTC(v Verifier, committee types.Committee, tc *types.TC) error {
	if tc == nil {
		return fmt.Errorf("crypto: nil TC")
	}
	if len(tc.Timeouts) < committee.Quorum() {
		return fmt.Errorf("crypto: TC has %d timeouts, need %d", len(tc.Timeouts), committee.Quorum())
	}
	seen := make(map[types.NodeID]bool, len(tc.Timeouts))
	bv := NewBatchVerifier(v)
	for i := range tc.Timeouts {
		t := &tc.Timeouts[i]
		if t.Slot != tc.Slot || t.View != tc.View {
			return fmt.Errorf("crypto: TC timeout slot/view mismatch")
		}
		if !committee.Valid(t.Voter) || seen[t.Voter] {
			return fmt.Errorf("crypto: TC voter %s invalid or duplicate", t.Voter)
		}
		seen[t.Voter] = true
		bv.Add(t.Voter, t.SigningBytes(), t.Sig)
	}
	if err := bv.VerifyCert("tc"); err != nil {
		return fmt.Errorf("crypto: TC: %w", err)
	}
	for i := range tc.Timeouts {
		if qc := tc.Timeouts[i].HighQC; qc != nil {
			if err := VerifyPrepareQC(v, committee, qc, 0); err != nil {
				return fmt.Errorf("crypto: TC highQC: %w", err)
			}
		}
	}
	return nil
}
