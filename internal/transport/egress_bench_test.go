package transport

import (
	"testing"
	"time"

	"repro/internal/types"
)

// BenchmarkEgressFrameEncode is the transport's per-message egress cost
// up to the peer writers: pooled encode, length prefix, release. Steady
// state must be allocation-free (the legacy path paid
// one encode buffer plus one frame copy per message — see
// wire.BenchmarkEgressEncodeLegacy).
func BenchmarkEgressFrameEncode(b *testing.B) {
	m := NewTCPMesh(0, map[types.NodeID]string{0: "127.0.0.1:0"}, &collector{}, time.Now(), nil)
	v := &types.Vote{Lane: 1, Position: 9, Digest: types.Digest{5}, Voter: 2, Sig: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := m.encodeFrame(v)
		if buf == nil {
			b.Fatal("encode failed")
		}
		buf.Release()
	}
}

// BenchmarkEgressBroadcastFrame measures a 4-peer broadcast's egress
// cost: one pooled encode, a copy appended to each of three peer writers
// (writers drained by nothing — frames refused once a queue is full,
// mimicking saturated peers without paying loopback I/O in the
// benchmark).
func BenchmarkEgressBroadcastFrame(b *testing.B) {
	addrs := map[types.NodeID]string{}
	for i := 0; i < 4; i++ {
		// Unroutable peers: writers stay parked in dial backoff.
		addrs[types.NodeID(i)] = "127.0.0.1:1"
	}
	m := NewTCPMesh(0, addrs, &collector{}, time.Now(), nil)
	defer m.Stop()
	v := &types.Vote{Lane: 1, Position: 9, Digest: types.Digest{5}, Voter: 2, Sig: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Broadcast(0, v)
	}
}

// BenchmarkEgressSendLoopback is the full egress→ingress path over real
// TCP loopback: pooled encode, burst write, frame decode, delivery.
func BenchmarkEgressSendLoopback(b *testing.B) {
	ports := freePorts(b, 2)
	addrs := map[types.NodeID]string{0: ports[0], 1: ports[1]}
	epoch := time.Now()
	recv := &orderCollector{}
	ma := NewTCPMesh(0, addrs, &collector{}, epoch, nil)
	mb := NewTCPMesh(1, addrs, recv, epoch, nil)
	if err := ma.Start(); err != nil {
		b.Fatal(err)
	}
	defer ma.Stop()
	if err := mb.Start(); err != nil {
		b.Fatal(err)
	}
	defer mb.Stop()

	v := &types.Vote{Lane: 1, Position: 9, Digest: types.Digest{5}, Voter: 2, Sig: make([]byte, 64)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ma.Send(0, 1, v)
		if i%1024 == 1023 { // keep the queue from overflowing into drops
			waitDelivered(b, recv, i+1)
		}
	}
	waitDelivered(b, recv, b.N)
	b.StopTimer()
	st := ma.PeerStats()[1]
	if st.Control.Flushes > 0 {
		b.ReportMetric(float64(st.Control.Frames)/float64(st.Control.Flushes), "frames/flush")
	}
}

func waitDelivered(b *testing.B, recv *orderCollector, n int) {
	deadline := time.Now().Add(30 * time.Second)
	for len(recv.snapshot()) < n {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d", len(recv.snapshot()), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
