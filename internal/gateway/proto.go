// Wire protocol of the gateway tier: internal/stream's length-framed
// frames over a byte stream, the first byte of each its type.
// Deliberately independent of internal/wire (the replica mesh codec) —
// clients speak a four-frame vocabulary (Hello, HelloOK, Submit, Ack)
// and nothing else, so the parser is small enough to audit for
// hostile-input safety: every length is bounded before allocation,
// every frame type outside the vocabulary drops the connection.
package gateway

import (
	"encoding/binary"
	"fmt"
	"net"

	"repro/internal/stream"
)

// Frame types. A client sends Hello then Submits; the server answers
// HelloOK then Acks. Anything else is a protocol violation.
const (
	frameHello   = 0x01
	frameHelloOK = 0x02
	frameSubmit  = 0x03
	frameAck     = 0x04
)

// helloMagic guards against a stray client dialing the wrong port: the
// handshake must open with it or the connection is dropped.
const helloMagic uint32 = 0x41424757 // "ABGW"

// protoVersion is negotiated down never — a mismatch drops the
// connection (forward compatibility is not a goal of this tier yet).
// Version 2: the length prefix counts the type byte too, as the
// replica mesh's does.
const protoVersion = 2

// Ack status codes — the typed outcomes a submission can have.
const (
	// StatusCommitted: the transaction committed; the ack is terminal.
	StatusCommitted = 0x01
	// StatusBusy: admission control shed the submission (replica
	// overload for this priority class). RetryAfter carries the server's
	// backoff hint.
	StatusBusy = 0x02
	// StatusWindowFull: the client's in-flight window is exhausted; it
	// must wait for acks before submitting more.
	StatusWindowFull = 0x03
	// StatusDuplicate: the submission is already in flight (admitted,
	// not yet committed). Not terminal — the commit ack follows.
	StatusDuplicate = 0x04
)

// submitOverhead is the fixed prefix of a Submit body: seq (8) +
// priority (1).
const submitOverhead = 9

// appendHeader appends the prefix of a frame whose body is n bytes:
// the length (type byte included), then the type.
func appendHeader(buf []byte, typ byte, n int) []byte {
	return append(stream.AppendHeader(buf, 1+n), typ)
}

// appendFrame appends a frame to buf: [len u32][type u8][body].
func appendFrame(buf []byte, typ byte, body []byte) []byte {
	return append(appendHeader(buf, typ, len(body)), body...)
}

// scratchAlloc returns a stream.ReadFrame alloc that reuses one buffer
// of size bytes (a larger frame gets its own): a frame is parsed, and
// whatever it carries copied out, before the next is read.
func scratchAlloc(size int) func(n int) []byte {
	scratch := make([]byte, size)
	return func(n int) []byte {
		if n > size {
			return make([]byte, n)
		}
		return scratch[:n]
	}
}

// startWriter serves conn with a new burst writer holding at most limit
// frames (0 is unbounded). A write error closes conn, so the
// connection's reader fails next and takes its side's teardown path.
func startWriter(conn net.Conn, limit int) *stream.Writer {
	w := stream.NewWriter(limit, nil)
	go w.Run(conn)
	return w
}

// Hello body: magic (4) + version (1) + clientID (8).
func appendHello(buf []byte, clientID uint64) []byte {
	buf = appendHeader(buf, frameHello, 13)
	buf = binary.LittleEndian.AppendUint32(buf, helloMagic)
	buf = append(buf, protoVersion)
	return binary.LittleEndian.AppendUint64(buf, clientID)
}

func parseHello(body []byte) (clientID uint64, err error) {
	if len(body) != 13 {
		return 0, fmt.Errorf("gateway: hello of %d bytes", len(body))
	}
	if binary.LittleEndian.Uint32(body) != helloMagic {
		return 0, fmt.Errorf("gateway: bad hello magic")
	}
	if body[4] != protoVersion {
		return 0, fmt.Errorf("gateway: protocol version %d (want %d)", body[4], protoVersion)
	}
	return binary.LittleEndian.Uint64(body[5:]), nil
}

// HelloOK body: window (4) + dedup window (4) — the server's per-client
// limits, so a client can size its own in-flight bookkeeping.
func appendHelloOK(buf []byte, window, dedup uint32) []byte {
	buf = appendHeader(buf, frameHelloOK, 8)
	buf = binary.LittleEndian.AppendUint32(buf, window)
	return binary.LittleEndian.AppendUint32(buf, dedup)
}

func parseHelloOK(body []byte) (window, dedup uint32, err error) {
	if len(body) != 8 {
		return 0, 0, fmt.Errorf("gateway: helloOK of %d bytes", len(body))
	}
	return binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint32(body[4:]), nil
}

// Submit body: seq (8) + priority (1) + payload.
func appendSubmit(buf []byte, seq uint64, prio uint8, payload []byte) []byte {
	buf = appendHeader(buf, frameSubmit, submitOverhead+len(payload))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, prio)
	return append(buf, payload...)
}

func parseSubmit(body []byte) (seq uint64, prio uint8, payload []byte, err error) {
	if len(body) < submitOverhead {
		return 0, 0, nil, fmt.Errorf("gateway: submit of %d bytes", len(body))
	}
	return binary.LittleEndian.Uint64(body), body[8], body[submitOverhead:], nil
}

// Ack body: seq (8) + status (1) + retryAfter ms (4).
func appendAck(buf []byte, seq uint64, status byte, retryAfterMs uint32) []byte {
	buf = appendHeader(buf, frameAck, 13)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, status)
	return binary.LittleEndian.AppendUint32(buf, retryAfterMs)
}

func parseAck(body []byte) (seq uint64, status byte, retryAfterMs uint32, err error) {
	if len(body) != 13 {
		return 0, 0, 0, fmt.Errorf("gateway: ack of %d bytes", len(body))
	}
	return binary.LittleEndian.Uint64(body), body[8], binary.LittleEndian.Uint32(body[9:]), nil
}

// --- transaction envelope ---

// envelopeMagic tags mempool transactions that entered through a
// gateway, so the commit dispatcher can route acks with one parse
// instead of hashing every committed payload. Transactions submitted
// through other paths (bare Replica.Submit from a library caller) fail
// the tag check and are skipped.
const envelopeMagic = 0xA7

// envelopeOverhead is the envelope prefix: magic (1) + clientID (8) +
// seq (8).
const envelopeOverhead = 17

// WrapTx prefixes a client payload with its routing envelope.
func WrapTx(clientID, seq uint64, payload []byte) []byte {
	tx := make([]byte, 0, envelopeOverhead+len(payload))
	tx = append(tx, envelopeMagic)
	tx = binary.LittleEndian.AppendUint64(tx, clientID)
	tx = binary.LittleEndian.AppendUint64(tx, seq)
	return append(tx, payload...)
}

// ParseTx recovers the routing envelope from a committed transaction;
// ok is false for transactions that did not enter through a gateway.
func ParseTx(tx []byte) (clientID, seq uint64, ok bool) {
	if len(tx) < envelopeOverhead || tx[0] != envelopeMagic {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(tx[1:]), binary.LittleEndian.Uint64(tx[9:]), true
}
