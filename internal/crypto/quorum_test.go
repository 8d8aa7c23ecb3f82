package crypto

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// These regression tests pin the large-committee certificate path: for
// every certificate kind a forged share must be rejected WITH the forger
// named in the error (bisection attribution), a duplicate-signer cert
// must fail structurally before any signature math, a valid cert's
// verdict must land in the whole-cert memo, and a forged cert must never
// be memoized.

func mustName(t *testing.T, err error, signer types.NodeID, kind string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: forged share accepted", kind)
	}
	want := "from " + signer.String()
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error %q does not attribute the forged share to %s", kind, err, signer)
	}
}

func TestForgedShareAttribution(t *testing.T) {
	committee := types.NewCommittee(7) // f=2: bisection has real depth
	suite := NewEd25519Suite(7, 3)
	v := suite.Verifier()
	d := types.Digest{0xaa}

	t.Run("poa", func(t *testing.T) {
		poa := makePoA(t, suite, committee, []types.NodeID{0, 1, 2})
		poa.Shares[1].Sig = suite.Signer(1).Sign([]byte("wrong message"))
		mustName(t, VerifyPoA(v, committee, poa), 1, "PoA")
	})
	t.Run("prepareqc", func(t *testing.T) {
		qc := makePrepareQC(suite, 4, 0, d, []types.NodeID{0, 1, 2, 3, 4}, nil)
		qc.Shares[3].Sig = suite.Signer(3).Sign([]byte("wrong message"))
		mustName(t, VerifyPrepareQC(v, committee, qc, 0), 3, "PrepareQC")
	})
	t.Run("commitqc-slow", func(t *testing.T) {
		qc := &types.CommitQC{Slot: 5, View: 1, Digest: d}
		for _, id := range []types.NodeID{0, 2, 3, 5, 6} {
			ack := types.ConfirmAck{Slot: 5, View: 1, Digest: d}
			qc.Shares = append(qc.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(ack.SigningBytes())})
		}
		qc.Shares[4].Sig = suite.Signer(6).Sign([]byte("wrong message"))
		mustName(t, VerifyCommitQC(v, committee, qc), 6, "slow CommitQC")
	})
	t.Run("commitqc-fast", func(t *testing.T) {
		qc := &types.CommitQC{Slot: 5, View: 0, Digest: d, Fast: true}
		for id := types.NodeID(0); id < 7; id++ {
			vote := types.PrepVote{Slot: 5, View: 0, Digest: d, Strong: true}
			qc.Shares = append(qc.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(vote.SigningBytes())})
		}
		qc.Shares[0].Sig = suite.Signer(0).Sign([]byte("wrong message"))
		mustName(t, VerifyCommitQC(v, committee, qc), 0, "fast CommitQC")
	})
	t.Run("tc", func(t *testing.T) {
		tc := &types.TC{Slot: 6, View: 2}
		for _, id := range []types.NodeID{1, 2, 4, 5, 6} {
			to := types.Timeout{Slot: 6, View: 2, Voter: id}
			to.Sig = suite.Signer(id).Sign(to.SigningBytes())
			tc.Timeouts = append(tc.Timeouts, to)
		}
		tc.Timeouts[2].Sig = suite.Signer(4).Sign([]byte("wrong message"))
		mustName(t, VerifyTC(v, committee, tc), 4, "TC")
	})
	t.Run("shares", func(t *testing.T) {
		msg := []byte("generic quorum message")
		var shares []types.SigShare
		for _, id := range []types.NodeID{0, 1, 2, 3, 4} {
			shares = append(shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(msg)})
		}
		shares[2].Sig = suite.Signer(2).Sign([]byte("wrong message"))
		mustName(t, VerifyShares(v, committee, msg, shares, 5), 2, "VerifyShares")
	})
}

// TestDuplicateSignerRejected audits every certificate kind: a quorum
// padded with one signer's share repeated must fail the distinctness
// check, never counting the duplicate toward the threshold. The forged
// duplicate carries a VALID signature, so acceptance would be a real
// quorum-dilution bug, not a signature failure.
func TestDuplicateSignerRejected(t *testing.T) {
	committee := types.NewCommittee(4)
	suite := NewEd25519Suite(4, 3)
	v := suite.Verifier()
	d := types.Digest{0xbb}

	t.Run("poa", func(t *testing.T) {
		if err := VerifyPoA(v, committee, makePoA(t, suite, committee, []types.NodeID{1, 1})); err == nil {
			t.Fatal("duplicate-signer PoA accepted")
		}
	})
	t.Run("prepareqc", func(t *testing.T) {
		qc := makePrepareQC(suite, 1, 0, d, []types.NodeID{0, 1, 1}, nil)
		if err := VerifyPrepareQC(v, committee, qc, 0); err == nil {
			t.Fatal("duplicate-signer PrepareQC accepted")
		}
	})
	t.Run("commitqc-slow", func(t *testing.T) {
		qc := &types.CommitQC{Slot: 2, View: 1, Digest: d}
		ack := types.ConfirmAck{Slot: 2, View: 1, Digest: d}
		for _, id := range []types.NodeID{0, 3, 3} {
			qc.Shares = append(qc.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(ack.SigningBytes())})
		}
		if err := VerifyCommitQC(v, committee, qc); err == nil {
			t.Fatal("duplicate-signer slow CommitQC accepted")
		}
	})
	t.Run("commitqc-fast", func(t *testing.T) {
		qc := &types.CommitQC{Slot: 2, View: 0, Digest: d, Fast: true}
		vote := types.PrepVote{Slot: 2, View: 0, Digest: d, Strong: true}
		for _, id := range []types.NodeID{0, 1, 2, 2} {
			qc.Shares = append(qc.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(vote.SigningBytes())})
		}
		if err := VerifyCommitQC(v, committee, qc); err == nil {
			t.Fatal("duplicate-signer fast CommitQC accepted")
		}
	})
	t.Run("tc", func(t *testing.T) {
		tc := &types.TC{Slot: 3, View: 1}
		for _, id := range []types.NodeID{0, 2, 2} {
			to := types.Timeout{Slot: 3, View: 1, Voter: id}
			to.Sig = suite.Signer(id).Sign(to.SigningBytes())
			tc.Timeouts = append(tc.Timeouts, to)
		}
		if err := VerifyTC(v, committee, tc); err == nil {
			t.Fatal("duplicate-voter TC accepted")
		}
	})
}

// TestCertMemo pins the whole-certificate verdict cache: a valid cert's
// second verification is a memo hit, a forged cert is never cached (every
// re-arrival re-pays and re-fails).
func TestCertMemo(t *testing.T) {
	committee := types.NewCommittee(4)
	suite := NewEd25519Suite(4, 3)
	cache := NewVerifyCache(suite.Verifier(), 0)

	poa := makePoA(t, suite, committee, []types.NodeID{0, 2})
	if err := VerifyPoA(cache, committee, poa); err != nil {
		t.Fatalf("valid PoA rejected: %v", err)
	}
	if hits, misses := cache.CertStats(); hits != 0 || misses != 1 {
		t.Fatalf("first verify: cert stats hits=%d misses=%d, want 0/1", hits, misses)
	}
	if err := VerifyPoA(cache, committee, poa); err != nil {
		t.Fatalf("memoized PoA rejected: %v", err)
	}
	if hits, _ := cache.CertStats(); hits != 1 {
		t.Fatalf("second verify of identical PoA missed the cert memo (hits=%d)", hits)
	}

	// A forged cert must fail every time and never enter the memo.
	forged := makePoA(t, suite, committee, []types.NodeID{0, 2})
	forged.Shares[0].Sig = suite.Signer(0).Sign([]byte("wrong message"))
	for i := 0; i < 2; i++ {
		if err := VerifyPoA(cache, committee, forged); err == nil {
			t.Fatalf("forged PoA accepted on attempt %d", i)
		}
	}
	if hits, _ := cache.CertStats(); hits != 1 {
		t.Fatalf("forged PoA produced a cert memo hit (hits=%d)", hits)
	}

	// Mutating any share must change the fingerprint: the memoized verdict
	// must not cover a tampered variant of the cached cert.
	tampered := makePoA(t, suite, committee, []types.NodeID{0, 2})
	tampered.Shares[1].Sig = append([]byte(nil), poa.Shares[1].Sig...)
	tampered.Shares[1].Sig[0] ^= 0xff
	if err := VerifyPoA(cache, committee, tampered); err == nil {
		t.Fatal("tampered variant of a memoized PoA accepted")
	}
}

// TestCertMemoDomainSeparation ensures two certificate kinds sharing the
// exact same share set cannot alias one another's memoized verdict.
func TestCertMemoDomainSeparation(t *testing.T) {
	items := []batchItem{{signer: 1, msg: []byte("m"), sig: []byte("s")}}
	if certFingerprint("poa", items) == certFingerprint("prepareqc", items) {
		t.Fatal("identical share sets under different domains share a fingerprint")
	}
}
