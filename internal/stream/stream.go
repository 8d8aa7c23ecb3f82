// Package stream frames bytes on a socket for both TCP links, the
// replica mesh (internal/transport) and the client gateway
// (internal/gateway). A frame is [u32 little-endian length][length
// bytes], the first of them the frame's type; the types and bodies are
// each caller's own vocabulary.
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderLen is the length prefix's size.
const HeaderLen = 4

// maxWrite bounds one Write: a larger burst leaves in several, each
// ending on a frame boundary (a single frame above it leaves alone).
const maxWrite = 1 << 20

// ErrFrameSize reports a length of 0 or above the reader's limit: the
// stream cannot be resynchronised, so the connection must be dropped.
var ErrFrameSize = errors.New("stream: frame size out of bounds")

// AppendHeader appends the length prefix of a frame of n bytes. To fill
// in a prefix reserved before the frame's size was known, append to the
// reserved bytes' empty prefix: AppendHeader(frame[:0], len(frame)-HeaderLen).
func AppendHeader(buf []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}

// ReadFrame reads one frame and returns its bytes, type byte first. The
// length is checked against max from the header alone, before alloc is
// asked for a slice of length n to read the frame into. Any error must
// drop the connection.
func ReadFrame(br *bufio.Reader, max int, alloc func(n int) []byte) ([]byte, error) {
	hdr, err := br.Peek(HeaderLen)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameSize, n, max)
	}
	br.Discard(HeaderLen)
	f := alloc(int(n))
	if _, err := io.ReadFull(br, f); err != nil {
		return nil, err
	}
	return f, nil
}

// Writer moves one stream's outbound frames in bursts. Producers append
// frames to a shared buffer and never block on the socket; Run writes
// everything appended since its previous write with one Write, so a
// burst of N frames costs one syscall, not N. A Writer outlives its
// connections: Run serves one at a time, and a burst a failed write did
// not send stays queued, in order, ahead of later frames, for the next.
type Writer struct {
	limit   int                     // frames queued before Append refuses; 0 is unbounded
	onFlush func(frames, bytes int) // called after each successful Write; may be nil

	mu     sync.Mutex
	buf    []byte // frames appended since Run last took the queue
	frames int    // frames in buf
	closed bool
	conn   net.Conn // the connection Run is serving; nil between Runs
	since  time.Time

	spare      []byte        // Run's other buffer, swapped with buf every burst
	writeStart atomic.Int64  // wall-clock ns the Write in flight began; 0 if none
	wake       chan struct{} // capacity 1: one wake-up covers every frame queued before it
	done       chan struct{} // closed by Close
}

// NewWriter builds a Writer that queues at most limit frames (0 is
// unbounded) and reports each successful Write's frame and byte counts
// to onFlush, if it is not nil.
func NewWriter(limit int, onFlush func(frames, bytes int)) *Writer {
	return &Writer{limit: limit, onFlush: onFlush, wake: make(chan struct{}, 1), done: make(chan struct{})}
}

// Append queues the frame that build appends to its argument. It
// returns false, and the frame is not queued, when the writer is closed
// or already holds its frame limit.
func (w *Writer) Append(build func([]byte) []byte) bool {
	w.mu.Lock()
	if w.closed || (w.limit > 0 && w.frames >= w.limit) {
		w.mu.Unlock()
		return false
	}
	w.buf = build(w.buf)
	w.frames++
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return true
}

// Run serves conn until Close, which makes it return nil, or until a
// write fails, which makes it return the error with the unsent frames
// still queued; either way it closes conn. One Run at a time.
func (w *Writer) Run(conn net.Conn) error {
	defer conn.Close()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.conn, w.since = conn, time.Now()
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.conn = nil
		w.mu.Unlock()
	}()
	for {
		w.mu.Lock()
		out := w.buf
		w.buf, w.frames = w.spare[:0], 0
		w.mu.Unlock()
		// Write out in bursts of at most maxWrite bytes that end on frame
		// boundaries, so a failed one leaves whole frames to requeue.
		for sent := 0; sent < len(out); {
			n, frames := frameRun(out[sent:], maxWrite)
			w.writeStart.Store(time.Now().UnixNano())
			_, err := conn.Write(out[sent : sent+n])
			w.writeStart.Store(0)
			if err != nil {
				if w.requeue(out, sent) {
					return nil
				}
				return err
			}
			sent += n
			if w.onFlush != nil {
				w.onFlush(frames, n)
			}
		}
		w.spare = out
		select {
		case <-w.done:
			return nil
		case <-w.wake:
		}
	}
}

// requeue puts out[sent:], the frames a failed write did not send, back
// at the front of the queue for the next Run, and reports whether the
// writer was closed.
func (w *Writer) requeue(out []byte, sent int) (closed bool) {
	_, frames := frameRun(out[sent:], len(out)-sent)
	n := copy(out, out[sent:])
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf, w.spare = append(out[:n], w.buf...), w.buf[:0]
	w.frames += frames
	return w.closed
}

// frameRun returns the length and frame count of the longest run of
// whole frames at the front of b that fits in max bytes; the first frame
// is always taken, whatever its size. A tail too short to hold a header
// is taken whole, so a flush always advances.
func frameRun(b []byte, max int) (n, frames int) {
	for len(b)-n >= HeaderLen {
		next := n + HeaderLen + int(binary.LittleEndian.Uint32(b[n:]))
		if frames > 0 && next > max {
			return n, frames
		}
		n, frames = min(next, len(b)), frames+1
	}
	return len(b), frames
}

// WriteStart returns the wall-clock nanosecond the Write in flight
// began, or 0 when none is.
func (w *Writer) WriteStart() int64 { return w.writeStart.Load() }

// ConnAge reports how long Run has been serving its connection (false
// between Runs).
func (w *Writer) ConnAge(now time.Time) (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn == nil {
		return 0, false
	}
	return now.Sub(w.since), true
}

// Sever closes the connection Run is serving, if any, and nothing else:
// a Write blocked on it fails, and Run returns the error. Queued frames
// stay queued for the next Run.
func (w *Writer) Sever() {
	w.mu.Lock()
	conn := w.conn
	w.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Close stops the writer for good and closes its connection; Run
// returns nil and Append refuses from then on.
func (w *Writer) Close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.done)
	}
	w.mu.Unlock()
	w.Sever()
}
