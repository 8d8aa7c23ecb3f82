package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/wire"
)

// TCPMesh connects one local replica to its peers over TCP, with
// length-framed wire-encoded messages, lazy dialing and automatic
// reconnection — the stdlib equivalent of the paper's Tokio TCP stack.
//
// Egress is allocation-light and interference-free: messages are encoded
// once into pooled buffers (wire.GetBuf) and the same reference-counted
// frame is shared across a broadcast's peers; each peer link runs two
// prioritized planes over separate TCP connections — control (votes,
// consensus, certificates) and data (cars, sync payloads) — so a
// multi-megabyte car can never head-of-line-block a PrepVote; and each
// plane's writer drains its queue into a single writev-style flush
// (net.Buffers), turning many small frames into one syscall.
type TCPMesh struct {
	self  types.NodeID
	addrs map[types.NodeID]string
	loop  *Loop

	mu    sync.Mutex
	conns map[types.NodeID]*peerConn
	stats map[types.NodeID]*metrics.PeerTransport
	// inbound tracks accepted connections (keyed to the peer that
	// handshook on them; unknownPeer before the handshake) so Stop can
	// sever them all and the stall detector can sever one peer's: a
	// stopped mesh that keeps reading would silently swallow peers'
	// frames, hiding the death from their reconnection logic (and from a
	// restarted process listening on the same address).
	inbound map[net.Conn]types.NodeID

	// health tracks per-peer liveness progress (last frame received /
	// sent) for the stall detector; see stall.go.
	health map[types.NodeID]*peerHealth
	// stallTimeout > 0 arms the stall detector (SetStallTimeout).
	stallTimeout time.Duration

	listener net.Listener
	stopped  chan struct{}
	once     sync.Once
	logger   *log.Logger

	// faults, when set, injects drop/delay/duplicate/reorder per
	// peer-plane into egress (fault-matrix harness; see LinkFaults).
	faults *LinkFaults
}

// Priority planes. Every peer link is two TCP connections, one per
// plane, each with its own queue and writer.
const (
	planeControl = 0 // votes, consensus messages, certificates, requests
	planeData    = 1 // bulk payloads: lane proposals (cars), sync replies
	planeCount   = 2
)

// planeOf classifies a message: anything that can carry batch payloads is
// data; everything else — consensus votes, timeouts, PoA votes, sync and
// commit requests — is control and must never queue behind a car.
func planeOf(t types.MsgType) int {
	switch t {
	case types.MsgProposal, types.MsgSyncReply, types.MsgCommitReply:
		return planeData
	default:
		return planeControl
	}
}

// Per-plane queue depths. Control frames are small and must survive data
// backpressure; the data queue is shorter so a slow peer sheds bulk
// traffic (retransmission recovers) instead of buffering gigabytes.
var planeQueueDepth = [planeCount]int{planeControl: 8192, planeData: 1024}

// Coalescing limits per flush: drain the queue until either bound, then
// write the whole batch with one writev.
const (
	coalesceFrames = 64
	coalesceBytes  = 1 << 20
)

// frame is one length-prefixed encoded message. Frames are pooled and
// reference-counted: a broadcast enqueues the same frame to every peer,
// and the backing buffer returns to the wire buffer pool only after the
// last writer (or dropper) releases it.
type frame struct {
	buf  *wire.Buf // [len(4) | type | payload]
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

func (f *frame) release() {
	if f.refs.Add(-1) == 0 {
		f.buf.Release()
		f.buf = nil
		framePool.Put(f)
	}
}

type stream struct {
	out   chan *frame
	plane int
	ctr   *metrics.PlaneCounters
	// health is the owning peer's liveness block (shared by both planes).
	health *peerHealth

	// connMu guards the active outbound connection, registered by
	// writeLoop for the lifetime of one streamFrames call so the stall
	// detector (and Stop) can sever it from outside — the only way to
	// unblock a writer wedged inside net.Buffers.WriteTo on a peer that
	// stopped reading.
	connMu    sync.Mutex
	conn      net.Conn
	connSince time.Time
	// writeStart is the wall-clock nanosecond a flush entered WriteTo (0
	// = no write in flight): a write blocked longer than the stall
	// timeout is the wedged-peer signature even when nothing else moves.
	writeStart atomic.Int64
}

type peerConn struct {
	streams [planeCount]*stream
}

// maxFrame bounds a single framed message, aligned with the wire codec's
// own payload cap: a frame the decoder could never accept must close the
// connection instead of allocating its claimed size.
const maxFrame = wire.MaxFrame

// NewTCPMesh builds the mesh for `self`, given every replica's address.
func NewTCPMesh(self types.NodeID, addrs map[types.NodeID]string, proto runtime.Protocol, epoch time.Time, logger *log.Logger) *TCPMesh {
	if logger == nil {
		logger = log.Default()
	}
	m := &TCPMesh{
		self:    self,
		addrs:   addrs,
		conns:   make(map[types.NodeID]*peerConn),
		stats:   make(map[types.NodeID]*metrics.PeerTransport),
		inbound: make(map[net.Conn]types.NodeID),
		health:  make(map[types.NodeID]*peerHealth),
		stopped: make(chan struct{}),
		logger:  logger,
	}
	m.loop = NewLoop(self, proto, m, epoch)
	return m
}

// Loop returns the local replica's event loop (for client submissions).
func (m *TCPMesh) Loop() *Loop { return m.loop }

// Start listens on this replica's address and launches the event loop.
func (m *TCPMesh) Start() error {
	ln, err := net.Listen("tcp", m.addrs[m.self])
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", m.addrs[m.self], err)
	}
	m.listener = ln
	go m.acceptLoop()
	go m.loop.Run()
	if m.stallTimeout > 0 {
		go m.stallMonitor()
	}
	return nil
}

// Stop closes the listener, connections (inbound and outbound) and the
// loop. Severing the registered outbound connections unblocks writers
// wedged inside a blocking WriteTo to a dead peer, which the stopped
// channel alone cannot reach.
func (m *TCPMesh) Stop() {
	m.once.Do(func() {
		close(m.stopped)
		if m.listener != nil {
			m.listener.Close()
		}
		m.mu.Lock()
		for conn := range m.inbound {
			conn.Close()
		}
		conns := make([]*peerConn, 0, len(m.conns))
		for _, pc := range m.conns {
			conns = append(conns, pc)
		}
		m.mu.Unlock()
		for _, pc := range conns {
			for _, st := range pc.streams {
				st.closeConn()
			}
		}
		m.loop.Stop()
	})
}

// PeerStats snapshots the per-peer transport counters (frames, coalesced
// flushes, bytes, drops per plane; inbound frames/bytes).
func (m *TCPMesh) PeerStats() map[types.NodeID]metrics.TransportSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[types.NodeID]metrics.TransportSnapshot, len(m.stats))
	for id, s := range m.stats {
		out[id] = s.Snapshot()
	}
	return out
}

// TotalStats aggregates PeerStats across all peers.
func (m *TCPMesh) TotalStats() metrics.TransportSnapshot {
	var total metrics.TransportSnapshot
	for _, s := range m.PeerStats() {
		total.Add(s)
	}
	return total
}

// statsFor returns (creating if needed) a peer's counter block.
func (m *TCPMesh) statsFor(id types.NodeID) *metrics.PeerTransport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statsForLocked(id)
}

func (m *TCPMesh) statsForLocked(id types.NodeID) *metrics.PeerTransport {
	s, ok := m.stats[id]
	if !ok {
		s = &metrics.PeerTransport{}
		m.stats[id] = s
	}
	return s
}

func (m *TCPMesh) acceptLoop() {
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			select {
			case <-m.stopped:
				return
			default:
				m.logger.Printf("transport: accept: %v", err)
				continue
			}
		}
		go m.readLoop(conn)
	}
}

// readLoop handshakes (peer sends its 2-byte ID plus a plane byte) then
// decodes frames.
func (m *TCPMesh) readLoop(conn net.Conn) {
	m.mu.Lock()
	select {
	case <-m.stopped:
		m.mu.Unlock()
		conn.Close()
		return
	default:
	}
	m.inbound[conn] = unknownPeer
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.inbound, conn)
		m.mu.Unlock()
		conn.Close()
	}()
	var hello [3]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	from := types.NodeID(binary.LittleEndian.Uint16(hello[:2]))
	if _, known := m.addrs[from]; !known || from == m.self {
		// The self-declared ID must name another committee member:
		// arbitrary IDs would otherwise allocate per-peer pipeline state
		// (queues, drainer goroutines) for 65k fictitious senders.
		m.logger.Printf("transport: rejecting connection claiming id %s", from)
		return
	}
	if hello[2] >= planeCount {
		m.logger.Printf("transport: rejecting connection from %s with plane %d", from, hello[2])
		return
	}
	m.mu.Lock()
	m.inbound[conn] = from // stall teardown severs this peer's conns
	m.mu.Unlock()
	stats := m.statsFor(from)
	health := m.healthFor(from)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			m.logger.Printf("transport: bad frame size %d from %s", n, from)
			return
		}
		// Pooled zero-copy ingress: the frame is read into a refcounted
		// buffer and DecodeFrom aliases the message's payload slices into
		// it — no per-field copies, no per-frame allocation churn. The
		// frame reference rides with the message; any pipeline stage that
		// drops the message releases it, delivery abandons it to the GC
		// (the protocol may retain aliased data — see wire.Frame).
		fr := wire.GetFrame(int(n))
		if _, err := io.ReadFull(conn, fr.Data()); err != nil {
			fr.Release()
			return
		}
		stats.RecvFrames.Add(1)
		stats.RecvBytes.Add(uint64(n) + 4)
		health.lastRecv.Store(time.Now().UnixNano())
		msg, err := wire.DecodeFrom(fr.Data())
		if err != nil {
			// An undecodable frame (garbage, or a type this build does not
			// know) is dropped; the length prefix kept the stream in sync,
			// so the connection stays open.
			fr.Release()
			m.logger.Printf("transport: decode from %s: %v", from, err)
			continue
		}
		m.loop.DeliverFramed(from, msg, fr)
	}
}

// encodeFrame wire-encodes msg (length prefix included) into a pooled
// frame with one reference held by the caller. Messages whose encoding
// exceeds the frame limit are dropped here: transmitting them would make
// every receiver close the connection and the retransmitting protocol
// would churn redials forever (a symptom of misconfiguration — e.g. a
// batch-size cap beyond wire.MaxFrame — not of hostile peers).
func (m *TCPMesh) encodeFrame(msg types.Message) *frame {
	buf := wire.GetBuf(4 + wire.SizeHint(msg))
	buf.B = append(buf.B, 0, 0, 0, 0)
	var err error
	buf.B, err = wire.EncodeTo(buf.B, msg)
	if err != nil {
		buf.Release()
		m.logger.Printf("transport: encode: %v", err)
		return nil
	}
	if len(buf.B)-4 > maxFrame {
		m.logger.Printf("transport: dropping oversized %d-byte message (frame limit %d): check batch/car size configuration", len(buf.B)-4, int64(maxFrame))
		buf.Release()
		return nil
	}
	binary.LittleEndian.PutUint32(buf.B, uint32(len(buf.B)-4))
	f := framePool.Get().(*frame)
	f.buf = buf
	f.refs.Store(1)
	return f
}

// SetLinkFaults installs a fault injector on this mesh's egress (call
// before Start; nil disables). Loopback (self) deliveries are unaffected
// — a real network cannot touch them.
func (m *TCPMesh) SetLinkFaults(f *LinkFaults) { m.faults = f }

// deliverFrame routes one frame to a peer through the fault injector (if
// any): it may be dropped, duplicated, or re-enter the queue later from a
// timer goroutine (delay/reorder).
func (m *TCPMesh) deliverFrame(to types.NodeID, f *frame, plane int) {
	if m.faults == nil {
		m.enqueueFrame(to, f, plane)
		return
	}
	v := m.faults.decide(to, plane)
	if v.drop {
		return
	}
	if v.delay <= 0 {
		for i := 0; i < v.copies; i++ {
			m.enqueueFrame(to, f, plane)
		}
		return
	}
	f.refs.Add(1) // hold the frame for the timer
	copies := v.copies
	time.AfterFunc(v.delay, func() {
		for i := 0; i < copies; i++ {
			m.enqueueFrame(to, f, plane)
		}
		f.release()
	})
}

// enqueueFrame hands a frame (adding a reference) to one peer's plane.
func (m *TCPMesh) enqueueFrame(to types.NodeID, f *frame, plane int) {
	st := m.peer(to).streams[plane]
	f.refs.Add(1)
	select {
	case st.out <- f:
	default:
		// Peer queue full (slow or down): drop; retransmission recovers.
		st.ctr.Drops.Add(1)
		f.release()
	}
}

// Send implements Sender (from is always the local replica).
func (m *TCPMesh) Send(_, to types.NodeID, msg types.Message) {
	if to == m.self {
		m.loop.Deliver(m.self, msg)
		return
	}
	if f := m.encodeFrame(msg); f != nil {
		m.deliverFrame(to, f, planeOf(msg.Type()))
		f.release()
	}
}

// Broadcast implements Sender: the message is encoded once and the same
// reference-counted frame is enqueued to every peer (writers only read
// it), instead of paying the encoding n-1 times.
func (m *TCPMesh) Broadcast(_ types.NodeID, msg types.Message) {
	f := m.encodeFrame(msg)
	if f == nil {
		return
	}
	plane := planeOf(msg.Type())
	for id := range m.addrs {
		if id != m.self {
			m.deliverFrame(id, f, plane)
		}
	}
	f.release()
}

// peer returns (creating if needed) the outbound connection manager.
func (m *TCPMesh) peer(to types.NodeID) *peerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pc, ok := m.conns[to]; ok {
		return pc
	}
	pc := &peerConn{}
	stats := m.statsForLocked(to)
	health := m.healthForLocked(to)
	ctrs := [planeCount]*metrics.PlaneCounters{&stats.Control, &stats.Data}
	for p := 0; p < planeCount; p++ {
		st := &stream{out: make(chan *frame, planeQueueDepth[p]), plane: p, ctr: ctrs[p], health: health}
		pc.streams[p] = st
		go m.writeLoop(to, st)
	}
	m.conns[to] = pc
	return pc
}

// writeLoop dials (with jittered backoff) and streams one plane's
// frames to a peer. Every failure path sleeps through the backoff —
// dial errors, handshake errors, and stream errors alike — so a peer
// that accepts connections but instantly kills them cannot drive a hot
// redial loop. The backoff is seeded per (self, peer, plane), so a
// full-cluster restart produces desynchronized redial schedules instead
// of a thundering herd, and it resets to the base delay only after a
// connection SURVIVES for a while (backoffResetAfter), not merely on a
// successful dial: a peer that dies right after accepting keeps the
// delay growing.
func (m *TCPMesh) writeLoop(to types.NodeID, st *stream) {
	bo := newDialBackoff(backoffSeed(m.self, to, st.plane))
	stats := m.statsFor(to)
	dialed := false
	for {
		select {
		case <-m.stopped:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", m.addrs[to], 3*time.Second)
		if err != nil {
			if !m.sleepBackoff(bo) {
				return
			}
			continue
		}
		// Handshake: announce our ID and this connection's plane.
		var hello [3]byte
		binary.LittleEndian.PutUint16(hello[:2], uint16(m.self))
		hello[2] = byte(st.plane)
		if _, err := conn.Write(hello[:]); err != nil {
			conn.Close()
			if !m.sleepBackoff(bo) {
				return
			}
			continue
		}
		stats.Dials.Add(1)
		if dialed {
			stats.Redials.Add(1)
		}
		dialed = true
		st.setConn(conn)
		start := time.Now()
		err = m.streamFrames(conn, st)
		st.clearConn()
		conn.Close()
		if err == nil {
			return // mesh stopped
		}
		bo.noteSuccess(time.Since(start))
		if !m.sleepBackoff(bo) {
			return
		}
	}
}

// streamFrames drains the plane's queue into coalesced writev batches:
// one blocking receive, then an opportunistic drain up to the coalescing
// limits, then a single net.Buffers write for the whole run of frames.
func (m *TCPMesh) streamFrames(conn net.Conn, st *stream) error {
	batch := make([]*frame, 0, coalesceFrames)
	// scratch backs each flush's net.Buffers. WriteTo consumes the
	// slice header it is given, so every flush hands it a fresh header
	// over this persistent array — reusing the consumed header would
	// shrink its capacity to nothing and put an allocation back on the
	// hot path.
	scratch := make([][]byte, 0, coalesceFrames)
	for {
		select {
		case <-m.stopped:
			return nil
		case f := <-st.out:
			batch = append(batch[:0], f)
			total := len(f.buf.B)
		drain:
			for len(batch) < coalesceFrames && total < coalesceBytes {
				select {
				case f2 := <-st.out:
					batch = append(batch, f2)
					total += len(f2.buf.B)
				default:
					break drain
				}
			}
			scratch = scratch[:0]
			for _, fr := range batch {
				scratch = append(scratch, fr.buf.B)
			}
			bufs := net.Buffers(scratch)
			// Mark the write in flight: if WriteTo blocks past the stall
			// timeout (peer stopped reading but keeps the session open),
			// the stall monitor severs conn from outside, failing the
			// write and bouncing this loop back to a redial.
			st.writeStart.Store(time.Now().UnixNano())
			_, err := bufs.WriteTo(conn)
			st.writeStart.Store(0)
			if err != nil {
				// Re-queue best effort (references kept), then redial.
				for _, fr := range batch {
					select {
					case st.out <- fr:
					default:
						st.ctr.Drops.Add(1)
						fr.release()
					}
				}
				return err
			}
			st.ctr.Frames.Add(uint64(len(batch)))
			st.ctr.Flushes.Add(1)
			st.ctr.Bytes.Add(uint64(total))
			st.health.lastSend.Store(time.Now().UnixNano())
			for _, fr := range batch {
				fr.release()
			}
		}
	}
}
