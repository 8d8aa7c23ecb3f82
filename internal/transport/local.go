package transport

import (
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/types"
)

// LocalMesh connects n loops inside one process: messages pass by pointer
// with optional injected delay, giving examples and integration tests a
// real-time cluster without sockets.
type LocalMesh struct {
	loops []*Loop
	// egress[i] counts node i's outbound bytes per plane (message
	// WireSize, counted once per Send, faults excluded) — the in-process
	// stand-in for the TCP mesh's plane byte counters, so bandwidth
	// claims are assertable on LiveCluster benchmarks too.
	egress []*nodeEgress
	// Delay, if set, adds a fixed artificial latency to every delivery
	// (rough WAN emulation for demos).
	Delay time.Duration
	// Faults, if set, injects drop/delay/duplicate/reorder per peer and
	// plane into every delivery (see LinkFaults; the plane is derived
	// from the message type exactly as the TCP mesh does). Set before
	// Start.
	Faults *LinkFaults
}

type nodeEgress struct {
	control atomic.Uint64
	data    atomic.Uint64
}

// NewLocalMesh builds an empty mesh; attach loops with AddNode.
func NewLocalMesh() *LocalMesh { return &LocalMesh{} }

// AddNode creates a loop for proto wired to this mesh. Nodes must be
// added in ID order before Start.
func (m *LocalMesh) AddNode(proto runtime.Protocol, epoch time.Time) *Loop {
	l := NewLoop(types.NodeID(len(m.loops)), proto, m, epoch)
	m.loops = append(m.loops, l)
	m.egress = append(m.egress, &nodeEgress{})
	return l
}

// PlaneBytes returns node id's cumulative outbound bytes on the control
// and data planes.
func (m *LocalMesh) PlaneBytes(id types.NodeID) (control, data uint64) {
	e := m.egress[id]
	return e.control.Load(), e.data.Load()
}

// Loop returns the loop for a replica.
func (m *LocalMesh) Loop(id types.NodeID) *Loop { return m.loops[id] }

// Start launches every loop goroutine.
func (m *LocalMesh) Start() {
	for _, l := range m.loops {
		go l.Run()
	}
}

// Stop terminates every loop.
func (m *LocalMesh) Stop() {
	for _, l := range m.loops {
		l.Stop()
	}
}

// Send implements Sender.
func (m *LocalMesh) Send(from, to types.NodeID, msg types.Message) {
	if int(to) >= len(m.loops) {
		return
	}
	if from != to && int(from) < len(m.egress) {
		e := m.egress[from]
		if planeOf(msg.Type()) == planeData {
			e.data.Add(uint64(msg.WireSize()))
		} else {
			e.control.Add(uint64(msg.WireSize()))
		}
	}
	delay := m.Delay
	copies := 1
	if m.Faults != nil && from != to {
		v := m.Faults.decide(to, planeOf(msg.Type()))
		if v.drop {
			return
		}
		copies = v.copies
		delay += v.delay
	}
	l := m.loops[to]
	for i := 0; i < copies; i++ {
		if delay > 0 {
			time.AfterFunc(delay, func() { l.Deliver(from, msg) })
		} else {
			l.Deliver(from, msg)
		}
	}
}

// Broadcast implements Sender.
func (m *LocalMesh) Broadcast(from types.NodeID, msg types.Message) {
	for _, l := range m.loops {
		if l.id == from {
			continue
		}
		m.Send(from, l.id, msg)
	}
}
