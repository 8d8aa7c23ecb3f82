// Package sim is a deterministic discrete-event simulator for WAN-replicated
// protocols. It executes runtime.Protocol nodes over a modeled network
// (latency matrix, per-link bandwidth, per-node bulk-data processing — see
// network.go) under injectable faults (crashes, mutes, partitions — see
// faults.go), with virtual time: a 60-second 250k tx/s run completes in well
// under a second of real time and is bit-for-bit reproducible from its seed.
//
// This package substitutes for the paper's 4-region GCP testbed
// (DESIGN.md §1, substitution 1). Protocol code is identical to what the
// real TCP runtime executes, and so is the contract around it: a peer's
// message passes the protocol's runtime.PreVerifier before delivery, and
// a runtime.Flusher's barrier runs after every event.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/runtime"
	"repro/internal/types"
)

// eventKind discriminates scheduled events.
type eventKind uint8

const (
	evDeliver eventKind = iota
	evTimer
	evFunc
)

type event struct {
	at   time.Duration
	seq  uint64 // tie-break for determinism
	kind eventKind
	node types.NodeID
	from types.NodeID
	msg  types.Message
	tag  runtime.TimerTag
	tseq uint64 // timer epoch
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Config parameterizes an engine.
type Config struct {
	// Net models the network; required.
	Net *Network
	// Faults is the fault schedule; nil means fault-free.
	Faults *FaultSchedule
	// Seed drives all simulator randomness (jitter, per-node Rand).
	Seed uint64
	// MaxEvents aborts runaway simulations; 0 means a generous default.
	MaxEvents uint64
}

// Engine is the discrete-event core.
type Engine struct {
	cfg    Config
	now    time.Duration
	heap   eventHeap
	seq    uint64
	nodes  []*simNode
	faults *FaultSchedule
	rng    *rand.Rand
	events uint64
	// rebuild constructs a fresh protocol instance for a Restart fault;
	// required iff the fault schedule contains restarts.
	rebuild           func(id types.NodeID, amnesia bool) runtime.Protocol
	restartsScheduled bool
	// Stats
	delivered uint64
	dropped   uint64
}

// NewEngine builds an engine for the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Net == nil {
		panic("sim: Config.Net is required")
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 500_000_000
	}
	faults := cfg.Faults
	if faults == nil {
		faults = &FaultSchedule{}
	}
	e := &Engine{
		cfg:    cfg,
		faults: faults,
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
	}
	cfg.Net.bind(e)
	return e
}

// AddNode registers a protocol node; nodes must be added in ID order
// before Run. Init is deferred until Run starts.
func (e *Engine) AddNode(p runtime.Protocol) types.NodeID {
	id := types.NodeID(len(e.nodes))
	n := &simNode{
		engine: e,
		id:     id,
		timers: make(map[runtime.TimerTag]uint64),
		rng:    rand.New(rand.NewPCG(e.cfg.Seed^uint64(id+1), 0xda942042e4dd58b5^uint64(id))),
	}
	n.setProto(p)
	e.nodes = append(e.nodes, n)
	return id
}

// NumNodes returns the number of registered nodes.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Now returns current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn to run at virtual time t (>= Now).
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(&event{at: t, kind: evFunc, fn: fn})
}

// Every schedules fn at start, start+interval, ... while t < until.
func (e *Engine) Every(start, interval, until time.Duration, fn func(t time.Duration)) {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	var schedule func(t time.Duration)
	schedule = func(t time.Duration) {
		if t >= until {
			return
		}
		e.At(t, func() {
			fn(t)
			schedule(t + interval)
		})
	}
	schedule(start)
}

// SetRebuild registers the factory Restart faults use to re-instantiate
// a node's protocol (typically re-reading its journal; with amnesia the
// factory must hand the node a fresh journal instead).
func (e *Engine) SetRebuild(fn func(id types.NodeID, amnesia bool) runtime.Protocol) {
	e.rebuild = fn
}

// restartNode tears down a node's protocol state and re-initializes it
// (the process restarted). Pending timers of the old incarnation become
// stale; in-flight messages still deliver, as the network would redeliver
// to a restarted process.
func (e *Engine) restartNode(id types.NodeID, amnesia bool) {
	if e.rebuild == nil {
		panic(fmt.Sprintf("sim: Restart fault for %s scheduled without Engine.SetRebuild", id))
	}
	n := e.nodes[id]
	n.timers = make(map[runtime.TimerTag]uint64)
	n.setProto(e.rebuild(id, amnesia))
	n.proto.Init(n)
	n.flush()
}

// Run executes events until virtual time `until` (exclusive) or until the
// event queue drains. It returns the number of events processed.
func (e *Engine) Run(until time.Duration) uint64 {
	// Initialize nodes on first run.
	for _, n := range e.nodes {
		if !n.inited {
			n.inited = true
			n.proto.Init(n)
			n.flush()
		}
	}
	// Schedule Restart faults once nodes exist. Fault-free schedules push
	// no events here, keeping fixed-seed runs byte-identical.
	if !e.restartsScheduled {
		e.restartsScheduled = true
		for _, r := range e.faults.Restarts() {
			r := r
			e.push(&event{at: r.At, kind: evFunc, fn: func() { e.restartNode(r.Node, r.Amnesia) }})
		}
	}
	processed := uint64(0)
	for len(e.heap) > 0 {
		ev := e.heap[0]
		if ev.at >= until {
			break
		}
		heap.Pop(&e.heap)
		e.now = ev.at
		e.events++
		processed++
		if e.events > e.cfg.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%s", e.cfg.MaxEvents, e.now))
		}
		e.dispatch(ev)
	}
	if e.now < until {
		e.now = until
	}
	return processed
}

func (e *Engine) dispatch(ev *event) {
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evDeliver:
		n := e.nodes[ev.node]
		if e.faults.Down(e.now, ev.node) {
			e.dropped++
			return
		}
		// The ingress stage of every runtime: a peer's message whose
		// signatures do not verify never reaches the protocol.
		if n.pv != nil && ev.from != ev.node && n.pv.PreVerify(ev.from, ev.msg) != nil {
			e.dropped++
			return
		}
		e.delivered++
		n.proto.OnMessage(n, ev.from, ev.msg)
		n.flush()
	case evTimer:
		n := e.nodes[ev.node]
		// Stale timer epochs (cancelled or replaced) are ignored.
		if cur, ok := n.timers[ev.tag]; !ok || cur != ev.tseq {
			return
		}
		if until, down := e.faults.DownUntil(e.now, ev.node); down {
			// A crashed process's pending timers fire when it resumes
			// (the process restarts and its timer loops re-arm). Without
			// this, periodic timer chains would die permanently.
			ev2 := *ev
			ev2.at = until
			e.push(&ev2)
			return
		}
		delete(n.timers, ev.tag)
		n.proto.OnTimer(n, ev.tag)
		n.flush()
	}
}

func (e *Engine) push(ev *event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.heap, ev)
}

// SubmitBatch injects a client batch at node id at the current time
// (workload generators call this from At/Every callbacks).
func (e *Engine) SubmitBatch(id types.NodeID, b *types.Batch) {
	n := e.nodes[id]
	if e.faults.Down(e.now, id) {
		return
	}
	n.proto.OnClientBatch(n, b)
	n.flush()
}

// Stats returns (delivered, dropped) message counts; dropped includes
// messages that failed pre-verification.
func (e *Engine) Stats() (delivered, dropped uint64) { return e.delivered, e.dropped }

// NodeDown reports whether id is crashed at the current virtual time
// (workload generators redirect client load away from crashed replicas,
// as real clients re-submitting to another replica would).
func (e *Engine) NodeDown(id types.NodeID) bool { return e.faults.Down(e.now, id) }

// Network returns the engine's network model.
func (e *Engine) Network() *Network { return e.cfg.Net }

// send models the network pipeline for one message; called by simNode.
func (e *Engine) send(from, to types.NodeID, m types.Message) {
	if e.faults.Blocked(e.now, from, to) {
		e.dropped++
		return
	}
	deliverAt := e.cfg.Net.deliveryTime(e.now, from, to, m)
	e.push(&event{at: deliverAt, kind: evDeliver, node: to, from: from, msg: m})
}

// simNode adapts a protocol to the engine; it implements runtime.Context.
type simNode struct {
	engine *Engine
	id     types.NodeID
	proto  runtime.Protocol
	pv     runtime.PreVerifier // proto's ingress check, if it has one
	fl     runtime.Flusher     // proto's event barrier, if it has one
	inited bool
	timers map[runtime.TimerTag]uint64 // tag -> live epoch
	tseq   uint64
	rng    *rand.Rand
}

var _ runtime.Context = (*simNode)(nil)

// setProto installs a protocol instance with the optional hooks it
// implements.
func (n *simNode) setProto(p runtime.Protocol) {
	n.proto = p
	n.pv, _ = p.(runtime.PreVerifier)
	n.fl, _ = p.(runtime.Flusher)
}

// flush runs the protocol's barrier after an event, releasing whatever
// sends it gated (runtime.Flusher).
func (n *simNode) flush() {
	if n.fl != nil {
		n.fl.Flush(n)
	}
}

func (n *simNode) ID() types.NodeID   { return n.id }
func (n *simNode) Now() time.Duration { return n.engine.now }
func (n *simNode) Rand() uint64       { return n.rng.Uint64() }

func (n *simNode) Send(to types.NodeID, m types.Message) {
	if int(to) >= len(n.engine.nodes) {
		panic(fmt.Sprintf("sim: %s sends to unknown node %s", n.id, to))
	}
	n.engine.send(n.id, to, m)
}

func (n *simNode) Broadcast(m types.Message) {
	// Deterministic rotation starting after self spreads egress fairly.
	num := len(n.engine.nodes)
	for off := 1; off < num; off++ {
		to := types.NodeID((int(n.id) + off) % num)
		n.engine.send(n.id, to, m)
	}
}

func (n *simNode) SetTimer(d time.Duration, tag runtime.TimerTag) {
	if d < 0 {
		d = 0
	}
	n.tseq++
	n.timers[tag] = n.tseq
	n.engine.push(&event{
		at:   n.engine.now + d,
		kind: evTimer,
		node: n.id,
		tag:  tag,
		tseq: n.tseq,
	})
}

func (n *simNode) CancelTimer(tag runtime.TimerTag) {
	delete(n.timers, tag)
}
