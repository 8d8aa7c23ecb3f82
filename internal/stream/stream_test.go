package stream

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// frame returns one frame whose type byte is typ and whose body is n
// copies of fill.
func frame(typ byte, fill byte, n int) []byte {
	f := append(AppendHeader(nil, 1+n), typ)
	return append(f, bytes.Repeat([]byte{fill}, n)...)
}

func appendFrame(f []byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, f...) }
}

// blockingConn is a conn whose every Write blocks until released, and
// which records each Write's bytes.
type blockingConn struct {
	net.Conn // only Write and Close are used
	entered  chan struct{}
	release  chan struct{}

	mu     sync.Mutex
	writes [][]byte
}

func newBlockingConn() *blockingConn {
	// entered is buffered so that announcing a Write never blocks the
	// writer on a test that has stopped listening; no test makes 16.
	return &blockingConn{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (c *blockingConn) Write(b []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.release
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return len(b), nil
}

func (c *blockingConn) Close() error { return nil }

func (c *blockingConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// recordConn records each Write's bytes without blocking; once fail is
// set, every Write fails with it instead.
type recordConn struct {
	net.Conn // only Write and Close are used
	fail     error

	mu     sync.Mutex
	writes [][]byte
}

func (c *recordConn) Write(b []byte) (int, error) {
	if c.fail != nil {
		return 0, c.fail
	}
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return len(b), nil
}

func (c *recordConn) Close() error { return nil }

func (c *recordConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// runWriter serves conn with w in its own goroutine; the returned
// channel yields Run's result.
func runWriter(w *Writer, conn net.Conn) <-chan error {
	done := make(chan error, 1)
	go func() { done <- w.Run(conn) }()
	return done
}

// TestWriterCoalesces pins the write side: the frames queued while one
// Write is in progress leave together in the next single Write, the
// queue takes no more than its limit (the rest are refused), and
// appending a frame allocates nothing.
func TestWriterCoalesces(t *testing.T) {
	conn := newBlockingConn()
	w := NewWriter(4, nil)
	defer close(conn.release)
	defer w.Close()
	runWriter(w, conn)

	frames := make([][]byte, 7)
	for seq := range frames {
		frames[seq] = frame(0x04, byte(seq), 12)
	}
	if !w.Append(appendFrame(frames[1])) {
		t.Fatal("first frame refused")
	}
	<-conn.entered // the writer is inside its first Write
	for seq := 2; seq <= 5; seq++ {
		if !w.Append(appendFrame(frames[seq])) {
			t.Fatalf("frame %d refused below the 4-frame limit", seq)
		}
	}
	if w.Append(appendFrame(frames[6])) {
		t.Fatal("frame 6 queued past the 4-frame limit")
	}
	conn.release <- struct{}{}
	<-conn.entered // the second Write holds everything queued meanwhile
	conn.release <- struct{}{}
	waitCond(t, "two writes", func() bool { return len(conn.written()) == 2 })

	want1 := frames[1]
	want2 := bytes.Join(frames[2:6], nil)
	if got := conn.written(); !bytes.Equal(got[0], want1) || !bytes.Equal(got[1], want2) {
		t.Fatalf("writes = %x, want [%x %x]", got, want1, want2)
	}

	// Appending a frame to a burst allocates nothing (the buffer's own
	// amortized growth aside, which AllocsPerRun averages away).
	conn2 := newBlockingConn()
	w2 := NewWriter(0, nil)
	defer close(conn2.release)
	defer w2.Close()
	runWriter(w2, conn2)
	f := frames[1]
	if allocs := testing.AllocsPerRun(1000, func() {
		w2.Append(func(b []byte) []byte { return append(b, f...) })
	}); allocs != 0 {
		t.Fatalf("Append allocates %.1f times per frame", allocs)
	}
}

// TestWriterStampsBlockedWrite: while a Write blocks, the writer shows
// when it began; once it returns, the stamp clears.
func TestWriterStampsBlockedWrite(t *testing.T) {
	conn := newBlockingConn()
	w := NewWriter(0, nil)
	defer w.Close()
	runWriter(w, conn)
	if w.WriteStart() != 0 {
		t.Fatal("write stamped before any write")
	}
	waitCond(t, "connection registered", func() bool { _, ok := w.ConnAge(time.Now()); return ok })
	before := time.Now().UnixNano()
	w.Append(appendFrame(frame(1, 1, 8)))
	<-conn.entered
	if ws := w.WriteStart(); ws < before {
		t.Fatalf("write start = %d during a blocked Write, want >= %d", ws, before)
	}
	conn.release <- struct{}{}
	waitCond(t, "stamp cleared", func() bool { return w.WriteStart() == 0 })
	close(conn.release)
}

// TestWriterResendsUnsentBurst: a burst a failed Write did not send is
// the first thing the next Run sends, in order, ahead of the frames
// appended since.
func TestWriterResendsUnsentBurst(t *testing.T) {
	var flushed, flushedBytes int
	w := NewWriter(0, func(frames, bytes int) { flushed += frames; flushedBytes += bytes })
	defer w.Close()
	f1, f2, f3 := frame(1, 1, 5), frame(2, 2, 6), frame(3, 3, 7)
	w.Append(appendFrame(f1))
	w.Append(appendFrame(f2))
	broken := errors.New("connection reset")
	if err := w.Run(&recordConn{fail: broken}); !errors.Is(err, broken) {
		t.Fatalf("Run on a failing conn = %v, want %v", err, broken)
	}
	if flushed != 0 {
		t.Fatalf("%d frames counted as flushed by a failed Write", flushed)
	}
	w.Append(appendFrame(f3))

	fresh := &recordConn{}
	done := runWriter(w, fresh)
	want := bytes.Join([][]byte{f1, f2, f3}, nil)
	waitCond(t, "resent burst", func() bool { return len(bytes.Join(fresh.written(), nil)) >= len(want) })
	w.Close()
	if err := <-done; err != nil {
		t.Fatalf("Run after Close = %v, want nil", err)
	}
	if got := bytes.Join(fresh.written(), nil); !bytes.Equal(got, want) {
		t.Fatalf("fresh conn got %x, want %x", got, want)
	}
	if flushed != 3 || flushedBytes != len(want) {
		t.Fatalf("flush counts = %d frames, %d bytes; want 3, %d", flushed, flushedBytes, len(want))
	}
}

// TestWriterSeverAndClose: Sever fails a Write wedged on a peer that
// stopped reading, so Run returns the error; Close makes Run return nil
// and refuses every later Append.
func TestWriterSeverAndClose(t *testing.T) {
	w := NewWriter(0, nil)
	a, b := net.Pipe() // nobody reads a: every Write on b wedges
	defer a.Close()
	done := runWriter(w, b)
	w.Append(appendFrame(frame(1, 1, 8)))
	waitCond(t, "wedged write", func() bool { return w.WriteStart() != 0 })
	w.Sever()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run after Sever = nil, want the write error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sever did not unblock the wedged Run")
	}

	c, d := net.Pipe()
	defer c.Close()
	done = runWriter(w, d) // the unsent frame wedges this Run too
	waitCond(t, "wedged write", func() bool { return w.WriteStart() != 0 })
	w.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after Close = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the wedged Run")
	}
	if w.Append(appendFrame(frame(1, 1, 8))) {
		t.Fatal("Append accepted a frame after Close")
	}
	if err := w.Run(&recordConn{}); err != nil {
		t.Fatalf("Run on a closed writer = %v, want nil", err)
	}
}

// TestWriterSplitsLargeBurst: a burst above maxWrite leaves in Writes
// of at most maxWrite bytes, each ending on a frame boundary.
func TestWriterSplitsLargeBurst(t *testing.T) {
	var flushes, flushedFrames int
	w := NewWriter(0, func(frames, _ int) { flushes++; flushedFrames += frames })
	defer w.Close()
	var want []byte
	const n = 300 // 300 frames of 10 KiB: about 3 MiB
	frameLen := len(frame(2, 0, 10<<10))
	for i := 0; i < n; i++ {
		f := frame(2, byte(i), 10<<10)
		want = append(want, f...)
		w.Append(appendFrame(f))
	}
	conn := &recordConn{}
	done := runWriter(w, conn)
	waitCond(t, "whole burst", func() bool { return len(bytes.Join(conn.written(), nil)) == len(want) })
	w.Close()
	<-done
	writes := conn.written()
	if len(writes) < len(want)/maxWrite+1 {
		t.Fatalf("%d bytes left in %d writes", len(want), len(writes))
	}
	for i, b := range writes {
		if len(b) > maxWrite {
			t.Fatalf("write %d is %d bytes, above %d", i, len(b), maxWrite)
		}
		if i < len(writes)-1 && len(b) <= maxWrite-frameLen {
			t.Fatalf("write %d is %d bytes: another frame would have fit", i, len(b))
		}
		if len(b)%frameLen != 0 {
			t.Fatalf("write %d (%d bytes) does not end on a frame boundary", i, len(b))
		}
	}
	if got := bytes.Join(writes, nil); !bytes.Equal(got, want) {
		t.Fatal("the writes do not add up to the burst")
	}
	if flushes != len(writes) || flushedFrames != n {
		t.Fatalf("flush counts = %d flushes, %d frames; want %d, %d", flushes, flushedFrames, len(writes), n)
	}
}

func TestReadFrameRefusesBadLengths(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    uint32
	}{{"zero", 0}, {"1 GB claim", 1 << 30}, {"one past the limit", 65}} {
		t.Run(tc.name, func(t *testing.T) {
			in := append(AppendHeader(nil, int(tc.n)), 1, 2, 3)
			called := false
			_, err := ReadFrame(bufio.NewReader(bytes.NewReader(in)), 64, func(n int) []byte {
				called = true
				return make([]byte, n)
			})
			if !errors.Is(err, ErrFrameSize) {
				t.Fatalf("err = %v, want ErrFrameSize", err)
			}
			if called {
				t.Fatal("alloc ran for a refused length")
			}
		})
	}
}

// TestReadFrameDribble: a frame written one byte per Write is parsed
// exactly once, and the stream ends cleanly after it.
func TestReadFrameDribble(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	want := frame(3, 7, 20)
	go func() {
		defer a.Close()
		for i := range want {
			if _, err := a.Write(want[i : i+1]); err != nil {
				return
			}
		}
	}()
	br := bufio.NewReader(b)
	allocs := 0
	alloc := func(n int) []byte { allocs++; return make([]byte, n) }
	got, err := ReadFrame(br, 64, alloc)
	if err != nil || !bytes.Equal(got, want[HeaderLen:]) {
		t.Fatalf("ReadFrame = %x, %v; want %x", got, err, want[HeaderLen:])
	}
	if _, err := ReadFrame(br, 64, alloc); err != io.EOF {
		t.Fatalf("second ReadFrame err = %v, want EOF", err)
	}
	if allocs != 1 {
		t.Fatalf("alloc ran %d times for one frame", allocs)
	}
}

// FuzzReadFrame: arbitrary bytes never panic the reader, alloc is never
// asked for more than the limit (nor for nothing), and every frame read
// is exactly what its header claimed.
func FuzzReadFrame(f *testing.F) {
	f.Add(frame(1, 0, 10))
	f.Add(append(frame(1, 0, 3), frame(2, 9, 0)...))
	f.Add(AppendHeader(nil, 0))
	f.Add(AppendHeader(nil, 1<<30))
	f.Add([]byte("\xde\xad\xbe\xef\xffGET / HTTP/1.1\r\n\r\n"))
	const max = 64
	f.Fuzz(func(t *testing.T, in []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(in), 16)
		asked := 0
		alloc := func(n int) []byte {
			if n <= 0 || n > max {
				t.Fatalf("alloc asked for %d bytes (limit %d)", n, max)
			}
			asked = n
			return make([]byte, n)
		}
		for {
			asked = 0
			fr, err := ReadFrame(br, max, alloc)
			if err != nil {
				return
			}
			if len(fr) != asked {
				t.Fatalf("frame of %d bytes from an alloc of %d", len(fr), asked)
			}
		}
	})
}
