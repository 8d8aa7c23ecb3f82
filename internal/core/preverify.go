package core

import (
	"repro/internal/crypto"
	"repro/internal/lane"
	"repro/internal/runtime"
	"repro/internal/types"
)

// The Autobahn replica's half of the staged ingress pipeline: Node
// implements runtime.PreVerifier by composing the lane and consensus
// pre-verifiers. Every runtime runs it on a peer's message before
// delivery — the transport on a parallel worker stage ahead of the
// single-threaded event loop, the simulator inline — and it is the only
// signature check: the lane, consensus and commit handlers behind it
// check none. The pre-verifiers share one crypto.VerifyCache, which
// deduplicates across messages (see Node.vcache). Messages that never
// cross it are trusted by construction: self-addressed handoffs between
// shards and the control plane, and journal replay at recovery, which is
// this replica's own durable state.

var _ runtime.PreVerifier = (*Node)(nil)

// PreVerify checks m's signatures without touching protocol state. Safe
// for concurrent use: the transport calls it from its verification
// workers.
func (n *Node) PreVerify(from types.NodeID, m types.Message) error {
	if !n.cfg.VerifySigs {
		return nil
	}
	switch msg := m.(type) {
	case *types.Proposal, *types.Vote, *types.PoA:
		return n.lanePV.PreVerify(from, m)
	case *types.SyncReply:
		// Bulk sync replies are the pipeline's best case: one batch call
		// covers every carried proposal (and parent PoA shares), spreading
		// an entire catch-up chunk's curve arithmetic across cores.
		bv := crypto.NewBatchVerifier(n.verifier)
		for _, p := range msg.Proposals {
			if err := lane.CollectProposalSigs(n.cfg.Committee, bv, p); err != nil {
				return err
			}
		}
		return bv.Verify()
	case *types.CommitReply:
		for i := range msg.Notices {
			if err := n.consPV.PreVerify(from, &msg.Notices[i]); err != nil {
				return err
			}
		}
		return nil
	default:
		return n.consPV.PreVerify(from, m)
	}
}

// PreVerifyStats exposes the verified-signature memo's counters (zero
// when signature verification is off or the suite has no cache).
func (n *Node) PreVerifyStats() (hits, misses uint64) {
	if n.vcache == nil {
		return 0, 0
	}
	return n.vcache.Stats()
}
