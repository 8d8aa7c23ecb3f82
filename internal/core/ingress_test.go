package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestSimIngressDropsForgedSignatures pins PreVerify as the one signature
// check, on the path every runtime delivers through: for each signed
// message type, and each signature or share it carries, a copy with that
// one signature forged is dropped at the simulator's dispatch, and the
// genuine message is delivered. Deleting any PreVerify case makes a row
// fail, since the handlers behind dispatch check no signature.
func TestSimIngressDropsForgedSignatures(t *testing.T) {
	const n = 4
	committee := types.NewCommittee(n)
	suite := crypto.NewEd25519Suite(n, 31)
	sign := func(id types.NodeID, msg []byte, forge bool) []byte {
		sig := suite.Signer(id).Sign(msg)
		if forge {
			sig[0] ^= 1
		}
		return sig
	}
	// shares signs msg by each of ids; forge corrupts the last share.
	shares := func(msg []byte, forge bool, ids ...types.NodeID) []types.SigShare {
		out := make([]types.SigShare, len(ids))
		for i, id := range ids {
			out[i] = types.SigShare{Signer: id, Sig: sign(id, msg, forge && i == len(ids)-1)}
		}
		return out
	}
	poa := func(lane types.NodeID, pos types.Pos, d types.Digest, forge bool) *types.PoA {
		p := &types.PoA{Lane: lane, Position: pos, Digest: d}
		p.Shares = shares(p.SigningBytes(), forge, 2, 3)
		return p
	}
	prepareQC := func(s types.Slot, v types.View, d types.Digest, forge bool) *types.PrepareQC {
		vote := types.PrepVote{Slot: s, View: v, Digest: d, Strong: true}
		return &types.PrepareQC{Slot: s, View: v, Digest: d, Shares: shares(vote.SigningBytes(), forge, 1, 2, 3)}
	}
	commitQC := func(s types.Slot, d types.Digest, forge bool) *types.CommitQC {
		ack := types.ConfirmAck{Slot: s, Digest: d}
		return &types.CommitQC{Slot: s, Digest: d, Shares: shares(ack.SigningBytes(), forge, 1, 2, 3)}
	}
	// A cut whose lane-2 tip is certified.
	cut := func(forgePoA bool) types.Cut {
		c := types.NewEmptyCut(n)
		c.Tips[2] = types.TipRef{Lane: 2, Position: 1, Digest: types.Digest{2}, Cert: poa(2, 1, types.Digest{2}, forgePoA)}
		return c
	}
	// A lane-1 car at position 2 carrying its parent's PoA.
	car := func(forgeSig, forgePoA bool) *types.Proposal {
		p := &types.Proposal{
			Lane: 1, Position: 2, Parent: types.Digest{7},
			ParentPoA: poa(1, 1, types.Digest{7}, forgePoA),
			Batch:     types.NewSyntheticBatch(1, 2, 10, 5120, 0, 0),
		}
		p.Sig = sign(1, p.SigningBytes(), forgeSig)
		return p
	}
	prepare := func(forgeSig, forgeTicket, forgePoA bool) *types.Prepare {
		p := &types.Prepare{
			Leader:   1,
			Proposal: types.ConsensusProposal{Slot: 5, Cut: cut(forgePoA)},
			Ticket:   types.Ticket{Kind: types.TicketCommit, Commit: commitQC(1, types.Digest{1}, forgeTicket)},
		}
		p.Sig = sign(1, p.SigningBytes(), forgeSig)
		return p
	}
	timeout := func(voter types.NodeID, forgeSig, forgeQC, forgePoA bool) *types.Timeout {
		prop := types.ConsensusProposal{Slot: 1, Cut: cut(forgePoA)}
		to := &types.Timeout{Slot: 1, Voter: voter, HighQC: prepareQC(1, 0, prop.Digest(), forgeQC), HighProp: &prop}
		to.Sig = sign(voter, to.SigningBytes(), forgeSig)
		return to
	}
	notice := func(forge bool) *types.CommitNotice {
		prop := types.ConsensusProposal{Slot: 3, Cut: cut(false)}
		return &types.CommitNotice{QC: *commitQC(3, prop.Digest(), forge), Proposal: prop}
	}

	rows := []struct {
		name string
		from types.NodeID
		msg  func(forge bool) types.Message
	}{
		{"Proposal/proposer", 1, func(f bool) types.Message { return car(f, false) }},
		{"Proposal/parent-PoA", 1, func(f bool) types.Message { return car(false, f) }},
		{"Vote/voter", 1, func(f bool) types.Message {
			v := &types.Vote{Lane: 0, Position: 1, Digest: types.Digest{3}, Voter: 1}
			v.Sig = sign(1, v.SigningBytes(), f)
			return v
		}},
		{"PoA/share", 2, func(f bool) types.Message { return poa(2, 1, types.Digest{2}, f) }},
		{"SyncReply/proposer", 1, func(f bool) types.Message {
			return &types.SyncReply{Lane: 1, Proposals: []*types.Proposal{car(f, false)}}
		}},
		{"SyncReply/parent-PoA", 1, func(f bool) types.Message {
			return &types.SyncReply{Lane: 1, Proposals: []*types.Proposal{car(false, f)}}
		}},
		{"Prepare/leader", 1, func(f bool) types.Message { return prepare(f, false, false) }},
		{"Prepare/ticket-CommitQC", 1, func(f bool) types.Message { return prepare(false, f, false) }},
		{"Prepare/cut-PoA", 1, func(f bool) types.Message { return prepare(false, false, f) }},
		{"Prepare/ticket-TC", 1, func(f bool) types.Message {
			tc := &types.TC{Slot: 1}
			for _, id := range []types.NodeID{1, 2, 3} {
				tc.Timeouts = append(tc.Timeouts, *timeout(id, f && id == 3, false, false))
			}
			p := &types.Prepare{
				Leader:   1,
				Proposal: types.ConsensusProposal{Slot: 1, View: 1, Cut: cut(false)},
				Ticket:   types.Ticket{Kind: types.TicketTC, TC: tc},
			}
			p.Sig = sign(1, p.SigningBytes(), false)
			return p
		}},
		{"PrepVote/voter", 1, func(f bool) types.Message {
			v := &types.PrepVote{Slot: 1, Digest: types.Digest{4}, Voter: 1, Strong: true}
			v.Sig = sign(1, v.SigningBytes(), f)
			return v
		}},
		{"Confirm/leader", 1, func(f bool) types.Message {
			c := &types.Confirm{Leader: 1, QC: *prepareQC(1, 0, types.Digest{4}, false)}
			c.Sig = sign(1, c.SigningBytes(), f)
			return c
		}},
		{"Confirm/PrepareQC", 1, func(f bool) types.Message {
			c := &types.Confirm{Leader: 1, QC: *prepareQC(1, 0, types.Digest{4}, f)}
			c.Sig = sign(1, c.SigningBytes(), false)
			return c
		}},
		{"ConfirmAck/voter", 1, func(f bool) types.Message {
			a := &types.ConfirmAck{Slot: 1, Digest: types.Digest{4}, Voter: 1}
			a.Sig = sign(1, a.SigningBytes(), f)
			return a
		}},
		{"CommitNotice/CommitQC", 1, func(f bool) types.Message { return notice(f) }},
		{"CommitReply/CommitQC", 1, func(f bool) types.Message {
			return &types.CommitReply{Notices: []types.CommitNotice{*notice(f)}}
		}},
		{"Timeout/voter", 1, func(f bool) types.Message { return timeout(1, f, false, false) }},
		{"Timeout/HighQC", 1, func(f bool) types.Message { return timeout(1, false, f, false) }},
		{"Timeout/HighProp-PoA", 1, func(f bool) types.Message { return timeout(1, false, false, f) }},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eng := sim.NewEngine(sim.Config{
				Net:  sim.NewNetwork(sim.DefaultNetConfig(sim.IntraUSTopology())),
				Seed: 31,
			})
			rcv := &deliveryLog{Node: core.NewNode(core.Config{
				Committee: committee, Self: 0, Suite: suite, VerifySigs: true, FastPath: true,
			})}
			eng.AddNode(rcv)
			peers := make([]*silentPeer, n)
			for i := 1; i < n; i++ {
				peers[i] = &silentPeer{}
				eng.AddNode(peers[i])
			}
			genuine, forged := row.msg(false), row.msg(true)
			eng.At(time.Millisecond, func() {
				peers[row.from].ctx.Send(0, forged)
				peers[row.from].ctx.Send(0, genuine)
			})
			eng.Run(200 * time.Millisecond)
			if rcv.got[forged] {
				t.Error("forged copy was delivered")
			}
			if !rcv.got[genuine] {
				t.Error("genuine message was not delivered")
			}
		})
	}
}

// deliveryLog records which messages reach a node's OnMessage.
type deliveryLog struct {
	*core.Node
	got map[types.Message]bool
}

func (d *deliveryLog) OnMessage(ctx runtime.Context, from types.NodeID, m types.Message) {
	if d.got == nil {
		d.got = make(map[types.Message]bool)
	}
	d.got[m] = true
	d.Node.OnMessage(ctx, from, m)
}

// silentPeer ignores everything; it only lends a test its context, to
// send on a replica's behalf.
type silentPeer struct{ ctx runtime.Context }

func (p *silentPeer) Init(ctx runtime.Context)                               { p.ctx = ctx }
func (p *silentPeer) OnMessage(runtime.Context, types.NodeID, types.Message) {}
func (p *silentPeer) OnTimer(runtime.Context, runtime.TimerTag)              {}
func (p *silentPeer) OnClientBatch(runtime.Context, *types.Batch)            {}
