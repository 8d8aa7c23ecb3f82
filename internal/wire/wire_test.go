package wire

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/types"
)

func sig(b byte) []byte {
	s := make([]byte, 64)
	for i := range s {
		s[i] = b
	}
	return s
}

func samplePoA() *types.PoA {
	return &types.PoA{
		Lane: 2, Position: 17, Digest: types.Digest{1, 2},
		Shares: []types.SigShare{{Signer: 0, Sig: sig(1)}, {Signer: 3, Sig: sig(2)}},
	}
}

func sampleRealBatch() *types.Batch {
	return types.NewBatch(1, 9, []types.Transaction{[]byte("alpha"), []byte(""), []byte("gamma-long-payload")}, 5*time.Millisecond)
}

func sampleSynthetic() *types.Batch {
	return types.NewSyntheticBatch(3, 11, 1000, 512_000, 123*time.Millisecond, 130*time.Millisecond)
}

func sampleProposal() *types.Proposal {
	return &types.Proposal{
		Lane: 2, Position: 18, Parent: types.Digest{7},
		ParentPoA: samplePoA(), Batch: sampleRealBatch(), Sig: sig(3),
	}
}

func sampleCut() types.Cut {
	cut := types.NewEmptyCut(4)
	cut.Tips[1] = types.TipRef{Lane: 1, Position: 4, Digest: types.Digest{4}, Cert: samplePoA()}
	cut.Tips[2] = types.TipRef{Lane: 2, Position: 9, Digest: types.Digest{5}} // optimistic
	return cut
}

func sampleTC() *types.TC {
	hp := &types.ConsensusProposal{Slot: 6, View: 1, Cut: sampleCut()}
	return &types.TC{Slot: 6, View: 2, Timeouts: []types.Timeout{
		{Slot: 6, View: 2, Voter: 0, Sig: sig(4)},
		{Slot: 6, View: 2, Voter: 1, HighProp: hp, Sig: sig(5)},
		{Slot: 6, View: 2, Voter: 2, HighQC: &types.PrepareQC{
			Slot: 6, View: 1, Digest: types.Digest{8},
			Shares:     []types.SigShare{{Signer: 0, Sig: sig(6)}, {Signer: 1, Sig: sig(7)}, {Signer: 2, Sig: sig(8)}},
			StrongMask: []bool{true, false, true},
		}, Sig: sig(9)},
	}}
}

func allMessages() []types.Message {
	return []types.Message{
		sampleProposal(),
		&types.Proposal{Lane: 0, Position: 1, Batch: sampleSynthetic(), Sig: sig(1)}, // genesis, synthetic, no PoA
		&types.Vote{Lane: 1, Position: 3, Digest: types.Digest{2}, Voter: 2, Sig: sig(2)},
		samplePoA(),
		&types.Prepare{
			Leader:   3,
			Proposal: types.ConsensusProposal{Slot: 5, View: 0, Cut: sampleCut()},
			Ticket:   types.Ticket{Kind: types.TicketCommit, Commit: &types.CommitQC{Slot: 1, View: 0, Digest: types.Digest{3}, Fast: true, Shares: []types.SigShare{{Signer: 1, Sig: sig(4)}}}},
			Sig:      sig(5),
		},
		&types.Prepare{
			Leader:   0,
			Proposal: types.ConsensusProposal{Slot: 6, View: 3, Cut: sampleCut()},
			Ticket:   types.Ticket{Kind: types.TicketTC, TC: sampleTC()},
			Sig:      sig(6),
		},
		&types.Prepare{ // genesis ticket: commit kind with nil QC
			Leader:   1,
			Proposal: types.ConsensusProposal{Slot: 2, View: 0, Cut: types.NewEmptyCut(4)},
			Ticket:   types.Ticket{Kind: types.TicketCommit},
			Sig:      sig(7),
		},
		&types.PrepVote{Slot: 5, View: 0, Digest: types.Digest{6}, Voter: 1, Strong: true, Sig: sig(8)},
		&types.Confirm{Leader: 3, QC: types.PrepareQC{Slot: 5, View: 0, Digest: types.Digest{6}, Shares: []types.SigShare{{Signer: 2, Sig: sig(9)}}}, Sig: sig(10)},
		&types.ConfirmAck{Slot: 5, View: 0, Digest: types.Digest{6}, Voter: 0, Sig: sig(11)},
		&types.CommitNotice{
			QC:       types.CommitQC{Slot: 5, View: 0, Digest: types.Digest{6}, Shares: []types.SigShare{{Signer: 0, Sig: sig(12)}}},
			Proposal: types.ConsensusProposal{Slot: 5, View: 0, Cut: sampleCut()},
		},
		&types.Timeout{Slot: 7, View: 1, Voter: 2, HighQC: nil, HighProp: nil, Sig: sig(13)},
		&types.SyncRequest{Lane: 1, From: 3, To: 9, TipDigest: types.Digest{7}, Requester: 0},
		&types.SyncReply{Lane: 1, Complete: true, Proposals: []*types.Proposal{sampleProposal()}},
		&types.CommitRequest{From: 2, To: 8, Requester: 3},
		&types.CommitReply{Notices: []types.CommitNotice{{
			QC:       types.CommitQC{Slot: 2, View: 0, Digest: types.Digest{9}},
			Proposal: types.ConsensusProposal{Slot: 2, View: 0, Cut: types.NewEmptyCut(4)},
		}}},
		&types.SnapshotRequest{Requester: 2},
		&types.SnapshotManifest{Manifest: []byte{0xab, 0xcd, 0xef, 0x01}},
		&types.ChunkRequest{StateHash: types.Digest{0x11}, Index: 3, Requester: 1},
		&types.ChunkReply{StateHash: types.Digest{0x11}, Index: 3, Data: []byte{1, 2, 3, 4, 5}},
	}
}

// TestRoundTripAllMessages checks Encode∘Decode is the identity for every
// message kind, including nil-able sub-fields.
func TestRoundTripAllMessages(t *testing.T) {
	for i, m := range allMessages() {
		data, err := Encode(m)
		if err != nil {
			t.Fatalf("case %d (%T): encode: %v", i, m, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("case %d (%T): decode: %v", i, m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("case %d (%T): round trip mismatch:\n in: %#v\nout: %#v", i, m, m, got)
		}
	}
}

// TestEncodingDeterministic: equal messages encode to equal bytes.
func TestEncodingDeterministic(t *testing.T) {
	for i, m := range allMessages() {
		a, _ := Encode(m)
		b, _ := Encode(m)
		if !bytes.Equal(a, b) {
			t.Fatalf("case %d: non-deterministic encoding", i)
		}
	}
}

// TestTruncationsFailCleanly: every strict prefix of a valid encoding
// must return an error, never panic or succeed.
func TestTruncationsFailCleanly(t *testing.T) {
	for i, m := range allMessages() {
		data, _ := Encode(m)
		step := 1
		if len(data) > 512 {
			step = len(data) / 257
		}
		for cut := 0; cut < len(data); cut += step {
			if _, err := Decode(data[:cut]); err == nil {
				t.Fatalf("case %d (%T): truncation at %d/%d decoded successfully", i, m, cut, len(data))
			}
		}
	}
}

// TestTrailingBytesRejected: appended garbage must be detected.
func TestTrailingBytesRejected(t *testing.T) {
	data, _ := Encode(&types.Vote{Lane: 0, Position: 1, Voter: 1, Sig: sig(1)})
	if _, err := Decode(append(data, 0xAB)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestRandomFuzzNeverPanics throws random bytes at the decoder.
func TestRandomFuzzNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 5000; i++ {
		n := int(rng.Uint64() % 512)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(rng.Uint64())
		}
		_, _ = Decode(buf) // must not panic
	}
}

// TestBitFlipsNeverPanic mutates valid encodings (structure-aware fuzz).
func TestBitFlipsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, m := range allMessages() {
		data, _ := Encode(m)
		for i := 0; i < 200; i++ {
			mut := make([]byte, len(data))
			copy(mut, data)
			pos := int(rng.Uint64() % uint64(len(mut)))
			mut[pos] ^= byte(1 << (rng.Uint64() % 8))
			_, _ = Decode(mut) // must not panic
		}
	}
}

// TestHostileLengthFields: a length prefix claiming gigabytes must fail
// fast without allocating.
func TestHostileLengthFields(t *testing.T) {
	// SyncReply claiming 2^31 proposals.
	data := []byte{byte(types.MsgSyncReply), 0, 0, 1, 0xff, 0xff, 0xff, 0x7f}
	if _, err := Decode(data); err == nil {
		t.Fatal("hostile proposal count accepted")
	}
	// Vote with a signature length of 1GB.
	vote, _ := Encode(&types.Vote{Lane: 0, Position: 1, Voter: 1, Sig: sig(1)})
	hostile := make([]byte, len(vote))
	copy(hostile, vote)
	// The sig length prefix is the last 4+64 bytes; overwrite length.
	pos := len(hostile) - 68
	hostile[pos] = 0xff
	hostile[pos+1] = 0xff
	hostile[pos+2] = 0xff
	hostile[pos+3] = 0x6f
	if _, err := Decode(hostile); err == nil {
		t.Fatal("hostile sig length accepted")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	if _, err := Decode([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestGenericDecodeRejectsDelta: 0xF4 and 0xF5 are the type bytes older
// builds used for delta-compressed Prepare and CommitNotice frames. A
// peer still sending them must be refused, even when the body behind the
// type byte is a well-formed Prepare or CommitNotice.
func TestGenericDecodeRejectsDelta(t *testing.T) {
	cases := []struct {
		typ byte
		msg types.Message
	}{
		{0xF4, &types.Prepare{
			Leader:   3,
			Proposal: types.ConsensusProposal{Slot: 5, View: 0, Cut: sampleCut()},
			Ticket:   types.Ticket{Kind: types.TicketCommit},
			Sig:      sig(5),
		}},
		{0xF5, &types.CommitNotice{
			QC:       types.CommitQC{Slot: 5, View: 0, Digest: types.Digest{6}, Shares: []types.SigShare{{Signer: 0, Sig: sig(12)}}},
			Proposal: types.ConsensusProposal{Slot: 5, View: 0, Cut: sampleCut()},
		}},
	}
	for _, c := range cases {
		data, err := Encode(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		data[0] = c.typ
		if _, err := Decode(data); err == nil {
			t.Fatalf("generic Decode accepted a %#x frame", c.typ)
		}
		if _, err := DecodeFrom(data); err == nil {
			t.Fatalf("generic DecodeFrom accepted a %#x frame", c.typ)
		}
	}
}
