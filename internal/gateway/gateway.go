// Package gateway is Autobahn's client-facing ingress tier: it fans in
// tens of thousands of client connections ahead of one replica and
// keeps that replica healthy under any offered load.
//
// The replica core assumes a well-behaved submitter — Replica.Submit
// accepts everything, so overload surfaces as silent queue growth and
// clients learn nothing about their transactions' fates. The gateway
// inverts both properties:
//
//   - Admission control reads the replica's live backlog (mempool depth
//     and own-lane car depth) plus the gateway's own outstanding gauge —
//     admitted submissions not yet commit-acked, the one measure that
//     sees backlog wherever it physically queues — per submission, and
//     sheds load with typed rejections: Busy carries a retry hint,
//     WindowFull bounds a single client's in-flight budget. Saturation
//     degrades into explicit backpressure instead of collapse, and
//     priority classes shed bulk traffic first.
//   - A per-client sliding dedup window makes at-least-once client
//     retries exactly-once at the chain: duplicates and replays are
//     acked from the window, never re-admitted to the mempool.
//   - The gateway subscribes to the replica's commit sink and pushes a
//     commit ack to the submitting client, so clients learn their
//     transaction's terminal outcome without polling.
//
// The tier is strictly off the replica's critical path: commit
// notifications are handed to a dispatcher goroutine through a spill
// queue (the event loop never blocks on a slow client), and the depth
// gauges it reads are single atomic loads.
package gateway

import (
	"bufio"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
)

// Backend is the replica surface the gateway drives. *autobahn.Replica
// implements it directly; harnesses adapt LiveCluster replicas or swap
// incarnations across restarts (SwapBackend).
type Backend interface {
	// Submit admits one (enveloped) transaction to the mempool.
	Submit(tx []byte)
	// MempoolDepth returns the unsealed mempool backlog (transactions).
	MempoolDepth() int
	// LaneDepth returns the own lane's end-to-end backlog (batches
	// waiting for a car plus cars proposed but not yet committed).
	LaneDepth() int
}

// Priority classes for weighted admission. Higher classes survive
// deeper overload; bulk is shed first.
const (
	PriorityBulk   uint8 = 0
	PriorityNormal uint8 = 1
	PriorityHigh   uint8 = 2
)

// shedAt maps a priority class to the overload fraction at which its
// submissions start being shed: bulk yields at half load, normal at
// three quarters, high rides to the full backlog bound.
var shedAt = [3]float64{PriorityBulk: 0.5, PriorityNormal: 0.75, PriorityHigh: 1.0}

const (
	// dedupWindow is the per-client sliding dedup set size: how many
	// completed seqs are remembered for replay absorption.
	dedupWindow = 4096
	// maxClients bounds distinct client IDs.
	maxClients = 1 << 17
	// readBuffer sizes each connection's read buffer: one read syscall
	// takes in up to this much of a client's burst.
	readBuffer = 16 << 10
)

// handshakeTimeout bounds how long an accepted connection may sit
// without completing its Hello (a variable only so that a test can
// shorten it).
var handshakeTimeout = 10 * time.Second

// Options configures a gateway server. The zero value gets defaults.
type Options struct {
	// Window is the per-client in-flight submission budget (default 64).
	Window int
	// MaxFrame caps one wire frame; larger frames drop the connection
	// (hostile-input bound; default 1 MB + framing overhead).
	MaxFrame int
	// MaxMempoolTxs is the mempool depth treated as fully loaded for
	// admission (default 8192).
	MaxMempoolTxs int
	// MaxLaneDepth is the own-lane depth (pending batches + outstanding
	// cars) treated as fully loaded (default 256).
	MaxLaneDepth int
	// MaxOutstanding is the gateway-wide count of admitted-but-uncommitted
	// submissions treated as fully loaded (default 32768). The replica's
	// depth gauges sample two specific queues; this one is end-to-end —
	// under sustained overload the backlog eventually sits in queues
	// neither replica gauge samples (sealed batches in the event-loop
	// shard channels), and only the outstanding count keeps growing.
	MaxOutstanding int
	// AckQueue bounds, in frames, the acks queued on one connection
	// while its writer is busy with the previous burst; a slower client
	// loses acks beyond it (recovered by its own resubmission, counted
	// in AckDrops) instead of stalling the dispatcher (default 1024).
	AckQueue int
	// Logger, when set, receives connection-level diagnostics.
	Logger *log.Logger
}

func (o *Options) fill() {
	if o.Window == 0 {
		o.Window = 64
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = 1<<20 + 128
	}
	if o.MaxMempoolTxs == 0 {
		o.MaxMempoolTxs = 8192
	}
	if o.MaxLaneDepth == 0 {
		o.MaxLaneDepth = 256
	}
	if o.MaxOutstanding == 0 {
		o.MaxOutstanding = 32768
	}
	if o.AckQueue == 0 {
		o.AckQueue = 1024
	}
}

// Server is one replica's gateway tier. It outlives backend
// incarnations: a restarted replica is swapped in with SwapBackend and
// the per-client dedup state carries across, which is what lets
// reconnecting clients resubmit through a crash without double-commits.
type Server struct {
	opts Options
	ctrs metrics.GatewayCounters

	backendMu  sync.RWMutex
	backend    Backend
	backendGen uint64

	// outstanding counts admitted submissions that have not yet resolved
	// to a commit ack, across all clients — the gateway's own end-to-end
	// backlog gauge (see Options.MaxOutstanding).
	outstanding atomic.Int64

	// hintMs is the adaptive Busy retry hint (see hintLoop): the one
	// controller with a fleet-wide view, tuned so the fleet's rejected
	// wire traffic stays a trickle without starving admission.
	hintMs atomic.Uint32

	clientMu sync.RWMutex
	clients  map[uint64]*clientState

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	ln     net.Listener

	commitMu sync.Mutex
	commitQ  []*types.Batch
	notify   chan struct{}

	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// clientState is the durable per-client record, keyed by client ID and
// surviving reconnects: the window is the dedup truth, conn the current
// ack route (nil while disconnected).
type clientState struct {
	id uint64

	mu   sync.Mutex
	win  *window
	conn *frameWriter
}

// NewServer builds a gateway over a backend and starts its commit
// dispatcher. Stop releases it.
func NewServer(b Backend, o Options) *Server {
	o.fill()
	s := &Server{
		opts:    o,
		backend: b,
		clients: make(map[uint64]*clientState),
		conns:   make(map[net.Conn]struct{}),
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	s.hintMs.Store(hintBaseMs)
	s.wg.Add(2)
	go s.dispatch()
	go s.hintLoop()
	return s
}

// Adaptive retry-hint bounds: the controller multiplicatively raises
// the hint while Busy rejections exceed ~1/16 of admissions (the fleet
// is paying wire traffic to be told no) and decays it while rejections
// are zero (suppression is overshooting the backlog).
const (
	hintBaseMs = 20
	hintCapMs  = 2000
)

// hintLoop is the server half of backpressure control. Per-client
// escalation cannot size suppression windows correctly — the right
// window is a function of fleet size and aggregate headroom, which
// only the server observes. AIMD on the observed rejection:admission
// ratio converges to windows that keep rejected wire traffic a small
// fraction of throughput at any fleet size.
func (s *Server) hintLoop() {
	defer s.wg.Done()
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	var lastAdm, lastRej uint64
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			adm, rej := s.ctrs.Admitted.Load(), s.ctrs.RejectedBusy.Load()
			a, r := adm-lastAdm, rej-lastRej
			lastAdm, lastRej = adm, rej
			h := s.hintMs.Load()
			switch {
			case r > a/16:
				h = h*3/2 + 1
				if h > hintCapMs {
					h = hintCapMs
				}
			case r == 0:
				h = h * 7 / 8
				if h < hintBaseMs {
					h = hintBaseMs
				}
			}
			s.hintMs.Store(h)
		}
	}
}

// Start listens on addr and accepts client connections until Stop.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-s.done:
					return
				default:
				}
				s.logf("gateway: accept: %v", err)
				return
			}
			go s.ServeConn(conn)
		}
	}()
	return nil
}

// Addr returns the listener address ("" before Start).
func (s *Server) Addr() string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stop closes the listener, drops every client connection, and stops
// the dispatcher. Per-client dedup state is retained (a stopped server
// is not a fresh one), but no further frames are processed.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.done)
		s.connMu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
}

// SwapBackend replaces the backend and bumps the admission generation:
// pending submissions admitted to the previous backend are re-admitted
// on their next client resubmission (the previous incarnation may have
// lost them). This is the crash-recovery seam the soak harness drives.
func (s *Server) SwapBackend(b Backend) {
	s.backendMu.Lock()
	s.backend = b
	s.backendGen++
	s.backendMu.Unlock()
}

// DropConns force-closes every live client connection (the backend and
// dedup state stay). Harness hook: models the front door failing over,
// forcing clients through their reconnect + resubmit path.
func (s *Server) DropConns() {
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
}

// Outstanding reports the gateway's end-to-end backlog: admitted
// submissions not yet resolved to a commit ack, across all clients.
func (s *Server) Outstanding() int { return int(s.outstanding.Load()) }

// Counters exposes the live counters; Stats snapshots them.
func (s *Server) Counters() *metrics.GatewayCounters { return &s.ctrs }

// Stats snapshots the gateway counters.
func (s *Server) Stats() metrics.GatewaySnapshot { return s.ctrs.Snapshot() }

func (s *Server) currentBackend() (Backend, uint64) {
	s.backendMu.RLock()
	defer s.backendMu.RUnlock()
	return s.backend, s.backendGen
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

// --- connection handling ---

var errHostile = errors.New("gateway: protocol violation")

// ServeConn runs one client connection to completion: handshake, then
// submissions. Any protocol violation — oversized frame, garbage bytes,
// unknown frame type, submissions before Hello — drops the connection;
// the replica behind the gateway never sees hostile input. Exported so
// harnesses can drive the server over in-memory pipes.
func (s *Server) ServeConn(conn net.Conn) {
	s.ctrs.Conns.Add(1)
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()

	// Handshake, bounded: a connection that won't say Hello is hostile.
	// Every frame is read through one buffer, so a burst of Submits costs
	// one read syscall; the deadline is on the conn beneath it.
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReaderSize(conn, readBuffer)
	typ, body, err := readFrame(br, s.opts.MaxFrame, nil)
	if err != nil || typ != frameHello {
		s.ctrs.HostileDrops.Add(1)
		return
	}
	clientID, err := parseHello(body)
	if err != nil {
		s.ctrs.HostileDrops.Add(1)
		return
	}
	conn.SetReadDeadline(time.Time{})

	cs := s.client(clientID, true)
	if cs == nil {
		s.logf("gateway: client table full, refusing client %d", clientID)
		return
	}
	s.ctrs.Hellos.Add(1)

	cw := newFrameWriter(conn, s.opts.AckQueue)
	defer cw.close()
	cw.push(func(b []byte) []byte { return appendHelloOK(b, uint32(s.opts.Window), dedupWindow) })
	cs.mu.Lock()
	if old := cs.conn; old != nil && old != cw {
		// The client reconnected (or a second process claims its ID):
		// newest connection wins the ack route, the old one is torn down.
		old.close()
	}
	cs.conn = cw
	cs.mu.Unlock()
	defer func() {
		cs.mu.Lock()
		if cs.conn == cw {
			cs.conn = nil
		}
		cs.mu.Unlock()
	}()

	scratch := make([]byte, 4096)
	for {
		typ, body, err := readFrame(br, s.opts.MaxFrame, scratch)
		if err != nil {
			// Only self-detected protocol violations count as hostile;
			// EOFs, resets and closed pipes are ordinary disconnects.
			if errors.Is(err, errHostile) {
				s.ctrs.HostileDrops.Add(1)
			}
			return
		}
		if typ != frameSubmit {
			s.ctrs.HostileDrops.Add(1)
			return
		}
		seq, prio, payload, err := parseSubmit(body)
		if err != nil || len(payload) == 0 {
			s.ctrs.HostileDrops.Add(1)
			return
		}
		s.handleSubmit(cs, cw, seq, prio, payload)
	}
}

// client looks up (or, with create, makes) the durable per-client
// record. Returns nil when the table is full.
func (s *Server) client(id uint64, create bool) *clientState {
	s.clientMu.RLock()
	cs := s.clients[id]
	s.clientMu.RUnlock()
	if cs != nil || !create {
		return cs
	}
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	if cs = s.clients[id]; cs != nil {
		return cs
	}
	if len(s.clients) >= maxClients {
		return nil
	}
	cs = &clientState{id: id, win: newWindow(s.opts.Window, dedupWindow)}
	s.clients[id] = cs
	return cs
}

// handleSubmit runs one submission through the dedup window and
// admission control, acking its verdict on the arriving connection.
func (s *Server) handleSubmit(cs *clientState, cw *frameWriter, seq uint64, prio uint8, payload []byte) {
	if prio > PriorityHigh {
		prio = PriorityHigh
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	switch cs.win.classify(seq) {
	case verdictDupPending:
		// Already in flight. If the backend turned over since admission,
		// the admitted copy may have died with it — re-admit the retained
		// envelope under the new generation (byte-identical, so even a
		// surviving pre-crash copy commits the same transaction).
		p := cs.win.pending[seq]
		if b, gen := s.currentBackend(); b != nil && p.gen != gen {
			p.gen = gen
			s.ctrs.Readmitted.Add(1)
			b.Submit(p.tx)
		}
		s.ctrs.Deduped.Add(1)
		s.ack(cw, seq, StatusDuplicate, 0)
	case verdictDupCommitted:
		// Replay of a completed submission: idempotent success, answered
		// from the window — the mempool never sees it again.
		s.ctrs.Deduped.Add(1)
		s.ack(cw, seq, StatusCommitted, 0)
	case verdictWindowFull:
		s.ctrs.RejectedWindowFull.Add(1)
		s.ack(cw, seq, StatusWindowFull, 20)
	case verdictNew:
		b, gen := s.currentBackend()
		ok, retry := s.admitClass(b, prio)
		if !ok {
			s.ctrs.RejectedBusy.Add(1)
			s.ack(cw, seq, StatusBusy, retry)
			return
		}
		tx := WrapTx(cs.id, seq, payload)
		cs.win.admit(seq, &pendingTx{prio: prio, tx: tx, submitted: time.Now(), gen: gen})
		s.ctrs.Admitted.Add(1)
		s.outstanding.Add(1)
		b.Submit(tx)
	}
}

// admitClass is the weighted admission decision: load is the worst of
// the mempool, own-lane, and gateway-outstanding backlog fractions, and
// a class is admitted while load is under its shed threshold. The retry
// hint is the adaptive fleet-wide value maintained by hintLoop.
func (s *Server) admitClass(b Backend, prio uint8) (bool, uint32) {
	if b == nil {
		// No backend (e.g. mid-restart): everything is Busy, with a hint
		// floor covering a typical recovery rather than a retry storm.
		h := s.hintMs.Load()
		if h < 100 {
			h = 100
		}
		return false, h
	}
	load := float64(b.MempoolDepth()) / float64(s.opts.MaxMempoolTxs)
	if ln := float64(b.LaneDepth()) / float64(s.opts.MaxLaneDepth); ln > load {
		load = ln
	}
	if out := float64(s.outstanding.Load()) / float64(s.opts.MaxOutstanding); out > load {
		load = out
	}
	if load < shedAt[prio] {
		return true, 0
	}
	return false, s.hintMs.Load()
}

// ack queues one Ack frame on the client's connection, appended in place
// to its writer's burst; an ack the queue cannot take is dropped.
func (s *Server) ack(cw *frameWriter, seq uint64, status byte, retryMs uint32) {
	if cw == nil || !cw.push(func(b []byte) []byte { return appendAck(b, seq, status, retryMs) }) {
		s.ctrs.AckDrops.Add(1)
	}
}

// --- commit feed ---

// OnCommit hands one committed batch to the ack dispatcher. Called from
// the replica's commit sink (event-loop goroutine): it must stay cheap
// and never block, so it only appends to a spill queue.
func (s *Server) OnCommit(b *types.Batch) {
	if b == nil || len(b.Txs) == 0 {
		return // synthetic batches carry no payloads, nothing to ack
	}
	s.commitMu.Lock()
	s.commitQ = append(s.commitQ, b)
	s.commitMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// dispatch drains the commit queue, completing windows and pushing
// commit acks. One goroutine per server: ack ordering per client
// follows commit order.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.notify:
		}
		for {
			s.commitMu.Lock()
			q := s.commitQ
			s.commitQ = nil
			s.commitMu.Unlock()
			if len(q) == 0 {
				break
			}
			for _, b := range q {
				for _, tx := range b.Txs {
					s.routeAck(tx)
				}
			}
		}
	}
}

// routeAck resolves one committed transaction against its submitter's
// window and pushes the commit ack.
func (s *Server) routeAck(tx []byte) {
	cid, seq, ok := ParseTx(tx)
	if !ok {
		return // not gateway traffic
	}
	cs := s.client(cid, false)
	if cs == nil {
		return // another gateway's client (commits are total across lanes)
	}
	cs.mu.Lock()
	p, completed, wasDone := cs.win.complete(seq)
	cw := cs.conn
	cs.mu.Unlock()
	if !completed {
		if wasDone {
			// The same (client, seq) reached the chain twice: the dedup
			// guarantee failed. Counted, asserted zero by the soak.
			s.ctrs.ChainDups.Add(1)
		}
		return
	}
	s.outstanding.Add(-1)
	s.ctrs.AckObserved(time.Since(p.submitted))
	s.ack(cw, seq, StatusCommitted, 0)
}
