package wire

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

func sampleMessages() []types.Message {
	batch := types.NewBatch(1, 7, []types.Transaction{
		make(types.Transaction, 512), {0xaa}, {},
	}, 5)
	shares := []types.SigShare{{Signer: 0, Sig: make([]byte, 64)}, {Signer: 2, Sig: make([]byte, 64)}}
	poa := &types.PoA{Lane: 1, Position: 3, Digest: types.Digest{9}, Shares: shares}
	cut := types.Cut{Tips: []types.TipRef{
		{Lane: 0, Position: 4, Digest: types.Digest{1}, Cert: poa},
		{Lane: 1, Position: 9, Digest: types.Digest{2}},
	}}
	prepQC := &types.PrepareQC{Slot: 3, View: 1, Digest: types.Digest{7}, Shares: shares, StrongMask: []bool{true, false, true}}
	commitQC := &types.CommitQC{Slot: 3, View: 1, Digest: types.Digest{7}, Fast: true, Shares: shares}
	timeout := &types.Timeout{Slot: 4, View: 2, Voter: 3, HighQC: prepQC, HighProp: &types.ConsensusProposal{Slot: 4, View: 1, Cut: cut}, Sig: make([]byte, 64)}
	prop := &types.Proposal{Lane: 1, Position: 9, Parent: types.Digest{3}, ParentPoA: poa, Batch: batch, Sig: make([]byte, 64)}
	synthetic := &types.Proposal{Lane: 2, Position: 1, Batch: types.NewSyntheticBatch(2, 1, 1000, 512_000, 0, 0), Sig: make([]byte, 64)}
	return []types.Message{
		prop,
		synthetic,
		&types.Vote{Lane: 1, Position: 9, Digest: types.Digest{5}, Voter: 2, Sig: make([]byte, 64)},
		poa,
		&types.Prepare{Leader: 0, Proposal: types.ConsensusProposal{Slot: 5, View: 0, Cut: cut}, Ticket: types.Ticket{Kind: types.TicketCommit, Commit: commitQC}, Sig: make([]byte, 64)},
		&types.PrepVote{Slot: 5, View: 0, Digest: types.Digest{6}, Voter: 1, Strong: true, Sig: make([]byte, 64)},
		&types.Confirm{Leader: 0, QC: *prepQC, Sig: make([]byte, 64)},
		&types.ConfirmAck{Slot: 5, View: 0, Digest: types.Digest{6}, Voter: 1, Sig: make([]byte, 64)},
		&types.CommitNotice{QC: *commitQC, Proposal: types.ConsensusProposal{Slot: 3, View: 1, Cut: cut}},
		timeout,
		&types.SyncRequest{Lane: 1, From: 2, To: 9, TipDigest: types.Digest{8}, Requester: 3},
		&types.SyncReply{Lane: 1, Complete: true, Proposals: []*types.Proposal{prop}},
		&types.CommitRequest{From: 1, To: 9, Requester: 2},
		&types.CommitReply{Notices: []types.CommitNotice{{QC: *commitQC, Proposal: types.ConsensusProposal{Slot: 3, View: 1, Cut: cut}}}},
	}
}

// TestEncodeToMatchesEncode pins the pooled path to the canonical one:
// for every message kind, EncodeTo into a recycled buffer produces the
// same bytes as a fresh Encode, including when appending after a prefix.
func TestEncodeToMatchesEncode(t *testing.T) {
	for _, m := range sampleMessages() {
		want, err := Encode(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		buf := GetBuf(SizeHint(m))
		buf.B, err = EncodeTo(buf.B, m)
		if err != nil {
			t.Fatalf("%T: EncodeTo: %v", m, err)
		}
		if !bytes.Equal(buf.B, want) {
			t.Fatalf("%T: EncodeTo differs from Encode", m)
		}
		// Appending after an existing prefix must leave the prefix alone.
		prefixed := append([]byte{1, 2, 3, 4}, 0)
		prefixed, err = EncodeTo(prefixed[:4], m)
		if err != nil {
			t.Fatalf("%T: EncodeTo prefixed: %v", m, err)
		}
		if !bytes.Equal(prefixed[:4], []byte{1, 2, 3, 4}) || !bytes.Equal(prefixed[4:], want) {
			t.Fatalf("%T: prefixed EncodeTo corrupted output", m)
		}
		buf.Release()
	}
}

// TestBufPoolRecycles verifies release/reacquire round-trips reuse the
// backing array instead of allocating. Under -race the runtime
// deliberately drops sync.Pool items to shake out lifecycle bugs, so
// the identity check only holds on regular builds.
func TestBufPoolRecycles(t *testing.T) {
	b := GetBuf(100)
	b.B = append(b.B, 1, 2, 3)
	first := &b.B[:cap(b.B)][cap(b.B)-1]
	b.Release()
	c := GetBuf(200) // same class (1 KB)
	if len(c.B) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(c.B))
	}
	if !raceEnabled && &c.B[:cap(c.B)][cap(c.B)-1] != first {
		t.Fatal("pool did not recycle the released buffer")
	}
	c.Release()
}

// TestLargeFrameSizedToMessage pins the ingress sizing rule: a frame
// above maxPooledFrame (a car, which the lane store keeps alive through
// the aliased payload) is allocated to exactly its size, a control-sized
// frame still comes from a pooled class, and both Release on the drop
// path — the control frame back into its class, where the next one
// finds it.
func TestLargeFrameSizedToMessage(t *testing.T) {
	for _, n := range []int{maxPooledFrame + 1, 20_000, 104_000, 300_000} {
		car := GetFrame(n)
		if d := car.Data(); len(d) != n || cap(d) != n {
			t.Fatalf("%d-byte frame: len %d cap %d, want cap == len", n, len(d), cap(d))
		}
		car.Release()
	}

	ctl := GetFrame(300)
	d := ctl.Data()
	if len(d) != 300 || cap(d) < bufClasses[0] {
		t.Fatalf("control frame: len %d cap %d, want len 300 in a class buffer (cap >= %d)", len(d), cap(d), bufClasses[0])
	}
	first := &d[:cap(d)][cap(d)-1]
	ctl.Release()
	again := GetFrame(200)
	d = again.Data()
	if !raceEnabled && &d[:cap(d)][cap(d)-1] != first {
		t.Fatal("released control frame was not recycled")
	}
	again.Release()
}

// TestSizeHintCoversEncoding: for real payloads the hint must be large
// enough that EncodeTo never re-allocates; for synthetic batches it must
// stay near the true (tiny) encoding rather than the modeled payload.
func TestSizeHintCoversEncoding(t *testing.T) {
	for _, m := range sampleMessages() {
		enc, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		hint := SizeHint(m)
		if p, ok := m.(*types.Proposal); ok && p.Batch != nil && p.Batch.Synthetic() {
			if hint > 10*len(enc)+1024 {
				t.Fatalf("synthetic proposal hint %d far exceeds encoding %d", hint, len(enc))
			}
			continue
		}
		if hint < len(enc) {
			t.Fatalf("%T: hint %d < encoding %d", m, hint, len(enc))
		}
	}
}

// BenchmarkEgressEncodeLegacy is the pre-pool egress encode path: one
// fresh allocation per message (compare with BenchmarkEgressEncodePooled).
func BenchmarkEgressEncodeLegacy(b *testing.B) {
	v := &types.Vote{Lane: 1, Position: 9, Digest: types.Digest{5}, Voter: 2, Sig: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEgressEncodePooled is the hot-path contract: encode into a
// pooled buffer and release — steady-state zero allocations.
func BenchmarkEgressEncodePooled(b *testing.B) {
	v := &types.Vote{Lane: 1, Position: 9, Digest: types.Digest{5}, Voter: 2, Sig: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetBuf(SizeHint(v))
		var err error
		buf.B, err = EncodeTo(buf.B, v)
		if err != nil {
			b.Fatal(err)
		}
		buf.Release()
	}
}

// BenchmarkEgressEncodeProposalPooled exercises the pooled path on a
// full 1000×128 B car.
func BenchmarkEgressEncodeProposalPooled(b *testing.B) {
	batch := types.NewBatch(1, 7, make([]types.Transaction, 1000), 0)
	for i := range batch.Txs {
		batch.Txs[i] = make(types.Transaction, 128)
	}
	p := &types.Proposal{Lane: 1, Position: 9, Batch: batch, Sig: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := GetBuf(SizeHint(p))
		var err error
		buf.B, err = EncodeTo(buf.B, p)
		if err != nil {
			b.Fatal(err)
		}
		buf.Release()
	}
}
