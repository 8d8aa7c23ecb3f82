// Pooled encode buffers. The egress hot path (transport frames, journal
// records) encodes thousands of messages per second; allocating a fresh
// slice per message makes the allocator and GC the bottleneck long
// before the NIC is (EXPERIMENTS.md). Buf wraps a reusable byte slice
// drawn from a size-classed sync.Pool: callers take one sized by
// SizeHint, encode into it with EncodeTo, and Release it once the bytes
// have been handed off (written to a socket, copied into a store).
package wire

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// bufClasses are the pooled capacity tiers. Votes and consensus messages
// land in the smallest classes; batch-carrying proposals in the middle;
// multi-proposal sync replies at the top. Larger requests are allocated
// exactly and still recycled into the largest fitting class on Release.
var bufClasses = [...]int{1 << 10, 1 << 14, 1 << 18, 1 << 20, 1 << 23}

var bufPools [len(bufClasses)]sync.Pool

// Buf is a pooled encode buffer. B is the live slice: append to it (or
// hand it to EncodeTo) and call Release when the bytes are no longer
// referenced. A Buf must not be used after Release.
type Buf struct {
	B []byte
}

// GetBuf returns a buffer with len 0 and capacity at least hint.
func GetBuf(hint int) *Buf {
	for i, size := range bufClasses {
		if hint <= size {
			if v := bufPools[i].Get(); v != nil {
				b := v.(*Buf)
				b.B = b.B[:0]
				return b
			}
			return &Buf{B: make([]byte, 0, size)}
		}
	}
	return &Buf{B: make([]byte, 0, hint)}
}

// Release returns the buffer to the pool serving its current capacity
// (append growth beyond the original class re-files it upward).
func (b *Buf) Release() {
	c := cap(b.B)
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if c >= bufClasses[i] {
			b.B = b.B[:0]
			bufPools[i].Put(b)
			return
		}
	}
	// Smaller than every class (caller-provided slice): drop for GC.
}

// Frame is a pooled, reference-counted ingress buffer: the transport
// reads one wire frame's payload into it and DecodeFrom aliases the
// decoded message's variable-length fields directly into Data, so the
// ingress path never copies payload bytes (mirroring the egress side's
// refcounted frames).
//
// Lifetime rules: GetFrame returns a frame holding one reference, owned
// by the caller. Pipeline stages that enqueue the frame's message for
// another goroutine pass the reference along; stages that DROP the
// message before delivery (decode error, failed pre-verification, full
// inbox) must Release — those are the paths where recycling matters,
// because overload is exactly when allocation pressure hurts. Once the
// message is DELIVERED to a protocol handler the reference is abandoned
// instead: the protocol may retain aliased slices indefinitely (stored
// proposals, certificate shares), so the buffer's storage is reclaimed
// by the garbage collector when the message itself dies. Release after
// delivery would recycle memory the protocol still reads.
//
// Because a delivered frame lives exactly as long as what the protocol
// keeps of it, a frame above maxPooledFrame is allocated to its exact
// size instead of drawn from a class: a stored car would otherwise pin
// the whole class buffer behind it (a 104 KB car a 256 KiB buffer, a
// 20 KB car 256 KiB too), for as long as the car is retained.
type Frame struct {
	buf  *Buf
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// maxPooledFrame is the largest frame drawn from the size classes:
// control messages and small cars. Anything larger is a car or a sync
// reply, whose delivered payload the lane store retains.
var maxPooledFrame = bufClasses[1]

// GetFrame returns a frame with a Data slice of exactly n bytes and one
// reference held by the caller. Frames up to maxPooledFrame come from
// the pooled size classes; larger ones are allocated with cap == n.
func GetFrame(n int) *Frame {
	f := framePool.Get().(*Frame)
	if n > maxPooledFrame {
		f.buf = &Buf{B: make([]byte, n)}
	} else {
		f.buf = GetBuf(n)
		f.buf.B = f.buf.B[:n]
	}
	f.refs.Store(1)
	return f
}

// Data is the frame's payload slice. Valid until the last Release.
func (f *Frame) Data() []byte { return f.buf.B }

// Retain adds a reference (one per independently-released holder).
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference; the last one returns a pooled buffer to
// its class (an exactly sized one is left to the GC: filed into a small
// class, it would come back as a control frame and pin a car's worth of
// memory behind it). Must not be called for references abandoned to the
// GC (see the type comment) — releasing memory a decoded message still
// aliases is a use-after-free in spirit, even though Go keeps it
// type-safe.
func (f *Frame) Release() {
	if f.refs.Add(-1) == 0 {
		if cap(f.buf.B) <= maxPooledFrame {
			f.buf.Release()
		}
		f.buf = nil
		framePool.Put(f)
	}
}

// SizeHint estimates m's encoded size, for pre-sizing encode buffers.
// It leans on Message.WireSize but re-derives batch-carrying messages
// from their actual payload slices, because WireSize trusts the batch's
// self-declared Count/Bytes: a synthetic batch models a payload the
// codec never emits (a simulated 500 KB car must not cost a 500 KB
// journal-encode buffer), and a decoded hostile batch can claim sizes
// that overflow the arithmetic outright. The estimate may be slightly
// low (WireSize models 2-byte length prefixes where the codec writes
// 4); EncodeTo grows the buffer when that happens.
func SizeHint(m types.Message) int {
	const slack = 64
	var n int
	switch v := m.(type) {
	case *types.Proposal:
		n = proposalHint(v)
	case *types.SyncReply:
		n = 8
		for _, p := range v.Proposals {
			n += proposalHint(p)
		}
	default:
		n = m.WireSize()
	}
	if n < 0 || n > MaxFrame {
		// Unencodable garbage; let append growth pay for whatever the
		// writer actually produces.
		n = 0
	}
	return n + slack
}

func proposalHint(p *types.Proposal) int {
	n := 2 + 8 + types.DigestSize + 8 + len(p.Sig) + poaHint(p.ParentPoA)
	if b := p.Batch; b != nil {
		n += 48
		for _, tx := range b.Txs {
			n += 4 + len(tx)
		}
	}
	return n
}

func poaHint(p *types.PoA) int {
	if p == nil {
		return 1
	}
	n := 1 + 2 + 8 + types.DigestSize + 8
	for _, s := range p.Shares {
		n += 8 + len(s.Sig)
	}
	return n
}
