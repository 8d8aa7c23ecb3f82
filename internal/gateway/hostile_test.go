package gateway

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/stream"
)

// rawConn opens an un-handshaken pipe to the server.
func rawConn(s *Server) net.Conn {
	a, b := net.Pipe()
	go s.ServeConn(b)
	return a
}

// expectDropped asserts the server closes its side: reads hit EOF/closed
// within the timeout.
func expectDropped(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			if err == io.EOF || err == io.ErrClosedPipe {
				return
			}
			// net.Pipe surfaces the peer close as io.EOF; anything else
			// (deadline) means the server kept the connection alive.
			t.Fatalf("connection not dropped: %v", err)
		}
	}
}

// TestHostileClients drives protocol abuse at the server: every attack
// drops that connection, counts as hostile, and leaves the backend and
// other clients untouched.
func TestHostileClients(t *testing.T) {
	be := &fakeBackend{}
	srv := NewServer(be, Options{MaxFrame: 1 << 16})
	defer srv.Stop()

	t.Run("garbage bytes", func(t *testing.T) {
		c := rawConn(srv)
		defer c.Close()
		// Random-ish junk: the length prefix decodes to an absurd frame.
		c.Write([]byte("\xde\xad\xbe\xef\xffGET / HTTP/1.1\r\n\r\n"))
		expectDropped(t, c)
	})

	t.Run("oversized frame", func(t *testing.T) {
		c := rawConn(srv)
		defer c.Close()
		// The claim is refused from the header alone, before the
		// buffered reader or the frame allocates anything near it.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hdr := binary.LittleEndian.AppendUint32(nil, 1<<30) // 1 GB claim
		c.Write(append(hdr, frameHello))
		expectDropped(t, c)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes while refusing a 1 GB claim", grew)
		}
	})

	t.Run("silent connection", func(t *testing.T) {
		defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
		handshakeTimeout = 200 * time.Millisecond
		start := time.Now()
		c := rawConn(srv)
		defer c.Close()
		expectDropped(t, c)
		if waited := time.Since(start); waited < handshakeTimeout {
			t.Fatalf("dropped after %v, before the %v handshake deadline", waited, handshakeTimeout)
		}
	})

	t.Run("submit before hello", func(t *testing.T) {
		c := rawConn(srv)
		defer c.Close()
		c.Write(appendSubmit(nil, 1, PriorityNormal, []byte("sneak")))
		expectDropped(t, c)
	})

	t.Run("unknown frame type after hello", func(t *testing.T) {
		c := rawConn(srv)
		defer c.Close()
		c.Write(appendHello(nil, 999))
		readAck(t, c) // HelloOK
		c.Write(appendFrame(nil, 0x7F, []byte("???")))
		expectDropped(t, c)
	})

	t.Run("empty payload", func(t *testing.T) {
		c := rawConn(srv)
		defer c.Close()
		c.Write(appendHello(nil, 998))
		readAck(t, c) // HelloOK
		c.Write(appendSubmit(nil, 1, PriorityNormal, nil))
		expectDropped(t, c)
	})

	t.Run("version 1 hello", func(t *testing.T) {
		// Version 1's length prefix counted only the body after the type
		// byte, so the Hello reads as a 12-byte body: refused.
		c := rawConn(srv)
		defer c.Close()
		before := srv.Stats()
		hello := binary.LittleEndian.AppendUint32(nil, 13)
		hello = append(hello, frameHello)
		hello = binary.LittleEndian.AppendUint32(hello, helloMagic)
		hello = append(hello, 1)
		hello = binary.LittleEndian.AppendUint64(hello, 997)
		c.Write(hello)
		expectDropped(t, c)
		waitCond(t, "hostile count", func() bool { return srv.Stats().HostileDrops == before.HostileDrops+1 })
		if st := srv.Stats(); st.Hellos != before.Hellos {
			t.Fatalf("a version 1 hello was accepted: %+v", st)
		}
	})

	if got := len(be.admitted()); got != 0 {
		t.Fatalf("hostile input reached the backend: %d admissions", got)
	}
	if st := srv.Stats(); st.HostileDrops < 6 {
		t.Fatalf("HostileDrops = %d, want >= 6", st.HostileDrops)
	}

	// Window overflow is abuse of a *valid* session: typed rejections,
	// not a drop — and still nothing extra reaches the backend beyond
	// the window.
	t.Run("window overflow", func(t *testing.T) {
		srv2 := NewServer(&fakeBackend{}, Options{Window: 4})
		defer srv2.Stop()
		c := rawConn(srv2)
		defer c.Close()
		c.Write(appendHello(nil, 1))
		readAck(t, c) // HelloOK
		for seq := uint64(1); seq <= 12; seq++ {
			c.Write(appendSubmit(nil, seq, PriorityNormal, []byte("x")))
		}
		waitCond(t, "overflow rejections", func() bool {
			return srv2.Stats().RejectedWindowFull == 8
		})
		if got := srv2.Stats().Admitted; got != 4 {
			t.Fatalf("admitted %d, want the window's 4", got)
		}
		if srv2.Stats().HostileDrops != 0 {
			t.Fatal("window overflow must not be treated as hostile")
		}
	})

	// The replica stays healthy throughout: a well-behaved client on the
	// same server commits normally after all of the above.
	cl, err := NewClient(ClientOptions{ID: 1000, Dial: pipeDial(srv)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p, err := cl.Submit([]byte("still-works"))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "good-client admission", func() bool { return len(be.admitted()) == 1 })
	be.commit(srv)
	if out := p.Wait(); !out.Committed {
		t.Fatalf("good client outcome = %+v", out)
	}
}

// readAck reads one frame off a raw connection (handshake replies).
func readAck(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stream.ReadFrame(bufio.NewReader(c), 1<<16, scratchAlloc(64)); err != nil {
		t.Fatalf("reading server frame: %v", err)
	}
	c.SetReadDeadline(time.Time{})
}
