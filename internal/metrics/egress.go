// Per-peer transport counters for the TCP mesh's egress/ingress paths.
// Counters are lock-free atomics bumped by writer/reader goroutines;
// Snapshot gives a consistent-enough view for monitoring and tests (each
// field is individually atomic, the set is not a transaction).
package metrics

import "sync/atomic"

// PlaneCounters instruments one priority plane (control or data) of one
// peer link.
type PlaneCounters struct {
	// Frames is the number of framed messages handed to the wire.
	Frames atomic.Uint64
	// Flushes is the number of write syscalls (coalesced batches); the
	// coalescing ratio is Frames/Flushes.
	Flushes atomic.Uint64
	// Bytes is the total frame bytes written.
	Bytes atomic.Uint64
	// Drops counts frames discarded because the peer's queue was full.
	Drops atomic.Uint64
}

// PeerTransport instruments one peer link across both planes.
type PeerTransport struct {
	Control PlaneCounters
	Data    PlaneCounters
	// RecvFrames / RecvBytes count inbound frames from this peer.
	RecvFrames atomic.Uint64
	RecvBytes  atomic.Uint64
	// Link-health counters (TCP mesh only). Dials counts successful
	// outbound connection establishments to this peer; Redials the subset
	// that replaced a previously working connection (reconnections);
	// Stalls counts stall-detector teardowns — connections the peer held
	// open but made no receive progress on within the stall timeout.
	Dials   atomic.Uint64
	Redials atomic.Uint64
	Stalls  atomic.Uint64
}

// PlaneSnapshot is a plain-value copy of PlaneCounters.
type PlaneSnapshot struct {
	Frames, Flushes, Bytes, Drops uint64
}

// TransportSnapshot is a plain-value copy of PeerTransport.
type TransportSnapshot struct {
	Control, Data          PlaneSnapshot
	RecvFrames, RecvBytes  uint64
	Dials, Redials, Stalls uint64
}

func (p *PlaneCounters) snapshot() PlaneSnapshot {
	return PlaneSnapshot{
		Frames:  p.Frames.Load(),
		Flushes: p.Flushes.Load(),
		Bytes:   p.Bytes.Load(),
		Drops:   p.Drops.Load(),
	}
}

// Snapshot copies the counters into plain values.
func (t *PeerTransport) Snapshot() TransportSnapshot {
	return TransportSnapshot{
		Control:    t.Control.snapshot(),
		Data:       t.Data.snapshot(),
		RecvFrames: t.RecvFrames.Load(),
		RecvBytes:  t.RecvBytes.Load(),
		Dials:      t.Dials.Load(),
		Redials:    t.Redials.Load(),
		Stalls:     t.Stalls.Load(),
	}
}

// Add accumulates another snapshot into this one (mesh-wide totals).
func (s *TransportSnapshot) Add(o TransportSnapshot) {
	s.Control.add(o.Control)
	s.Data.add(o.Data)
	s.RecvFrames += o.RecvFrames
	s.RecvBytes += o.RecvBytes
	s.Dials += o.Dials
	s.Redials += o.Redials
	s.Stalls += o.Stalls
}

func (p *PlaneSnapshot) add(o PlaneSnapshot) {
	p.Frames += o.Frames
	p.Flushes += o.Flushes
	p.Bytes += o.Bytes
	p.Drops += o.Drops
}
