package bullshark

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/types"
)

// The Bullshark baseline's signature checks — all of them: header, vote
// and certificate signatures are checkable without DAG state, and the
// simulator (the only runtime the baseline runs under) calls PreVerify on
// every peer message before delivery, so the handlers check none.

var _ runtime.PreVerifier = (*Node)(nil)

// PreVerify checks m's signatures without touching DAG state (immutable
// config + thread-safe verifier only). Safe for concurrent use.
func (n *Node) PreVerify(from types.NodeID, m types.Message) error {
	if !n.cfg.VerifySigs {
		return nil
	}
	switch msg := m.(type) {
	case *HeaderMsg:
		return verifyHeaderSig(n.verifier, msg.Header)
	case *HeaderVote:
		if !n.verifier.Verify(msg.Voter, msg.SigningBytes(), msg.Sig) {
			return fmt.Errorf("bullshark: bad header-vote signature from %s", msg.Voter)
		}
		return nil
	case *Cert:
		return verifyCert(n.cfg.Committee, n.verifier, msg)
	case *CertPush:
		for _, h := range msg.Headers {
			if err := verifyHeaderSig(n.verifier, h); err != nil {
				return err
			}
		}
		for _, c := range msg.Certs {
			if err := verifyCert(n.cfg.Committee, n.verifier, c); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

func verifyHeaderSig(v crypto.Verifier, h *Header) error {
	if !v.Verify(h.Author, h.SigningBytes(), h.Sig) {
		return fmt.Errorf("bullshark: bad header signature from %s", h.Author)
	}
	return nil
}

// verifyCert is the stateless certificate check (batch-verified shares).
func verifyCert(committee types.Committee, v crypto.Verifier, c *Cert) error {
	if len(c.Shares) < committee.Quorum() {
		return fmt.Errorf("bullshark: cert has %d shares, need %d", len(c.Shares), committee.Quorum())
	}
	if _, err := crypto.DistinctSigners(committee, c.Shares); err != nil {
		return err
	}
	bv := crypto.NewBatchVerifier(v)
	probe := HeaderVote{Author: c.Author, Round: c.Round, Header: c.Header}
	msg := probe.SigningBytes()
	for _, sh := range c.Shares {
		bv.Add(sh.Signer, msg, sh.Sig)
	}
	// Whole-cert verdict memoized (VerifyCache verifiers): a DAG cert
	// re-arrives in every CertPush that carries it, and each re-arrival
	// is one lookup.
	return bv.VerifyCert("bullshark-cert")
}
