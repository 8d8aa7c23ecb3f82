// Wire protocol of the gateway tier: length-framed binary frames over a
// byte stream. Deliberately independent of internal/wire (the replica
// mesh codec) — clients speak a four-frame vocabulary (Hello, HelloOK,
// Submit, Ack) and nothing else, so the parser is small enough to audit
// for hostile-input safety: every length is bounded before allocation,
// every frame type outside the vocabulary drops the connection.
package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
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
const protoVersion = 1

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

// frameHeader is the frame prefix: payload length (4) + type (1).
const frameHeader = 5

// writeFrame appends a frame to buf: [len u32][type u8][body].
func appendFrame(buf []byte, typ byte, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, typ)
	return append(buf, body...)
}

// readFrame reads one frame, enforcing the size cap before allocating.
// Returns the frame type and body, or an error that must drop the
// connection (hostile or broken peer — there is no resynchronization in
// a length-framed stream).
func readFrame(r io.Reader, maxFrame int, scratch []byte) (byte, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if int(n) > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds cap %d", errHostile, n, maxFrame)
	}
	body := scratch
	if cap(body) < int(n) {
		body = make([]byte, n)
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}

// Hello body: magic (4) + version (1) + clientID (8).
func appendHello(buf []byte, clientID uint64) []byte {
	body := make([]byte, 0, 13)
	body = binary.LittleEndian.AppendUint32(body, helloMagic)
	body = append(body, protoVersion)
	body = binary.LittleEndian.AppendUint64(body, clientID)
	return appendFrame(buf, frameHello, body)
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
	body := make([]byte, 0, 8)
	body = binary.LittleEndian.AppendUint32(body, window)
	body = binary.LittleEndian.AppendUint32(body, dedup)
	return appendFrame(buf, frameHelloOK, body)
}

func parseHelloOK(body []byte) (window, dedup uint32, err error) {
	if len(body) != 8 {
		return 0, 0, fmt.Errorf("gateway: helloOK of %d bytes", len(body))
	}
	return binary.LittleEndian.Uint32(body), binary.LittleEndian.Uint32(body[4:]), nil
}

// Submit body: seq (8) + priority (1) + payload.
func appendSubmit(buf []byte, seq uint64, prio uint8, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(submitOverhead+len(payload)))
	buf = append(buf, frameSubmit)
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
	body := make([]byte, 0, 13)
	body = binary.LittleEndian.AppendUint64(body, seq)
	body = append(body, status)
	body = binary.LittleEndian.AppendUint32(body, retryAfterMs)
	return appendFrame(buf, frameAck, body)
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
