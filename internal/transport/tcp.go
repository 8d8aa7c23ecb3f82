package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/types"
	"repro/internal/wire"
)

// TCPMesh connects one local replica to its peers over TCP, with
// length-framed wire-encoded messages, lazy dialing and automatic
// reconnection — the stdlib equivalent of the paper's Tokio TCP stack.
//
// Egress is allocation-light and interference-free: a message is encoded
// once into a pooled buffer (wire.GetBuf), and a broadcast appends a copy
// of that frame to each peer's writer; each peer link runs two
// prioritized planes over separate TCP connections — control (votes,
// consensus, certificates) and data (cars, sync payloads) — so a
// multi-megabyte car can never head-of-line-block a PrepVote; and each
// plane's stream.Writer sends everything queued since its previous write
// in one burst, turning many small frames into one syscall. Ingress reads
// every frame of a connection through one buffered reader.
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
// plane, each with its own writer.
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

// Per-plane queue depths, in frames. Control frames are small and must
// survive data backpressure; the data queue is shorter so a slow peer
// sheds bulk traffic (retransmission recovers) instead of buffering
// gigabytes.
var planeQueueDepth = [planeCount]int{planeControl: 8192, planeData: 1024}

// readBuffer sizes each inbound connection's read buffer: a burst of
// small frames costs one read syscall, and a frame larger than the
// buffer is read straight into its own pooled buffer.
const readBuffer = 64 << 10

// peerConn is one peer's egress: a writer per plane, each living across
// redials — writeLoop serves every dialled connection with it, and the
// stall detector (and Stop) reach the connection through it.
type peerConn struct {
	writers [planeCount]*stream.Writer
	ctrs    [planeCount]*metrics.PlaneCounters
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
// loop. Closing the writers closes their connections too, which unblocks
// a write wedged on a dead peer.
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
			for _, w := range pc.writers {
				w.Close()
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
	br := bufio.NewReaderSize(conn, readBuffer)
	hello, err := br.Peek(3)
	if err != nil {
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
	br.Discard(len(hello))
	m.mu.Lock()
	m.inbound[conn] = from // stall teardown severs this peer's conns
	m.mu.Unlock()
	stats := m.statsFor(from)
	health := m.healthFor(from)
	// Pooled zero-copy ingress: each frame is read into a refcounted
	// buffer and DecodeFrom aliases the message's payload slices into it —
	// no per-field copies, no per-frame allocation churn. The frame
	// reference rides with the message; any pipeline stage that drops the
	// message releases it; delivery abandons it to the GC (the protocol
	// may retain aliased data — see wire.Frame), as does a read cut short
	// by a dead connection.
	var fr *wire.Frame
	alloc := func(n int) []byte {
		fr = wire.GetFrame(n)
		return fr.Data()
	}
	for {
		data, err := stream.ReadFrame(br, maxFrame, alloc)
		if err != nil {
			if errors.Is(err, stream.ErrFrameSize) {
				m.logger.Printf("transport: from %s: %v", from, err)
			}
			return
		}
		stats.RecvFrames.Add(1)
		stats.RecvBytes.Add(uint64(len(data) + stream.HeaderLen))
		health.lastRecv.Store(time.Now().UnixNano())
		msg, err := wire.DecodeFrom(data)
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
// buffer the caller releases. Messages whose encoding exceeds the frame
// limit are dropped here: transmitting them would make every receiver
// close the connection and the retransmitting protocol would churn
// redials forever (a symptom of misconfiguration — e.g. a batch-size cap
// beyond wire.MaxFrame — not of hostile peers).
func (m *TCPMesh) encodeFrame(msg types.Message) *wire.Buf {
	buf := wire.GetBuf(stream.HeaderLen + wire.SizeHint(msg))
	buf.B = stream.AppendHeader(buf.B, 0)
	var err error
	buf.B, err = wire.EncodeTo(buf.B, msg)
	if err != nil {
		buf.Release()
		m.logger.Printf("transport: encode: %v", err)
		return nil
	}
	n := len(buf.B) - stream.HeaderLen
	if n > maxFrame {
		m.logger.Printf("transport: dropping oversized %d-byte message (frame limit %d): check batch/car size configuration", n, int64(maxFrame))
		buf.Release()
		return nil
	}
	stream.AppendHeader(buf.B[:0], n)
	return buf
}

// SetLinkFaults installs a fault injector on this mesh's egress (call
// before Start; nil disables). Loopback (self) deliveries are unaffected
// — a real network cannot touch them.
func (m *TCPMesh) SetLinkFaults(f *LinkFaults) { m.faults = f }

// deliverFrame routes one frame to a peer through the fault injector (if
// any): it may be dropped, duplicated, or re-enter the queue later from a
// timer goroutine (delay/reorder), which holds its own copy.
func (m *TCPMesh) deliverFrame(to types.NodeID, frame []byte, plane int) {
	if m.faults == nil {
		m.enqueueFrame(to, frame, plane)
		return
	}
	v := m.faults.decide(to, plane)
	if v.drop {
		return
	}
	if v.delay <= 0 {
		for i := 0; i < v.copies; i++ {
			m.enqueueFrame(to, frame, plane)
		}
		return
	}
	held := append([]byte(nil), frame...)
	copies := v.copies
	time.AfterFunc(v.delay, func() {
		for i := 0; i < copies; i++ {
			m.enqueueFrame(to, held, plane)
		}
	})
}

// enqueueFrame appends a copy of frame to one peer's plane writer.
func (m *TCPMesh) enqueueFrame(to types.NodeID, frame []byte, plane int) {
	pc := m.peer(to)
	if !pc.writers[plane].Append(func(b []byte) []byte { return append(b, frame...) }) {
		// Peer queue full (slow or down): drop; retransmission recovers.
		pc.ctrs[plane].Drops.Add(1)
	}
}

// Send implements Sender (from is always the local replica).
func (m *TCPMesh) Send(_, to types.NodeID, msg types.Message) {
	if to == m.self {
		m.loop.Deliver(m.self, msg)
		return
	}
	if buf := m.encodeFrame(msg); buf != nil {
		m.deliverFrame(to, buf.B, planeOf(msg.Type()))
		buf.Release()
	}
}

// Broadcast implements Sender: the message is encoded once and each
// peer's writer appends a copy of the frame, instead of paying the
// encoding n-1 times.
func (m *TCPMesh) Broadcast(_ types.NodeID, msg types.Message) {
	buf := m.encodeFrame(msg)
	if buf == nil {
		return
	}
	plane := planeOf(msg.Type())
	for id := range m.addrs {
		if id != m.self {
			m.deliverFrame(id, buf.B, plane)
		}
	}
	buf.Release()
}

// peer returns (creating if needed) the outbound connection manager.
func (m *TCPMesh) peer(to types.NodeID) *peerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pc, ok := m.conns[to]; ok {
		return pc
	}
	stats := m.statsForLocked(to)
	health := m.healthForLocked(to)
	pc := &peerConn{ctrs: [planeCount]*metrics.PlaneCounters{&stats.Control, &stats.Data}}
	for p := 0; p < planeCount; p++ {
		ctr := pc.ctrs[p]
		pc.writers[p] = stream.NewWriter(planeQueueDepth[p], func(frames, bytes int) {
			ctr.Frames.Add(uint64(frames))
			ctr.Flushes.Add(1)
			ctr.Bytes.Add(uint64(bytes))
			health.lastSend.Store(time.Now().UnixNano())
		})
		go m.writeLoop(to, p, pc.writers[p])
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
func (m *TCPMesh) writeLoop(to types.NodeID, plane int, w *stream.Writer) {
	bo := newDialBackoff(backoffSeed(m.self, to, plane))
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
		hello[2] = byte(plane)
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
		start := time.Now()
		err = w.Run(conn)
		if err == nil {
			return // mesh stopped
		}
		bo.noteSuccess(time.Since(start))
		if !m.sleepBackoff(bo) {
			return
		}
	}
}
