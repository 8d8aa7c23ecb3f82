// Peer liveness: stall detection and jittered redial backoff for the
// TCP mesh.
//
// A wedged peer — one that keeps its TCP sessions open but stops
// reading or sending — is indistinguishable from a merely slow peer at
// the socket layer: writes eventually block in the kernel buffer,
// reads simply never return, and nothing errors. The stall detector
// makes the distinction with progress timestamps: if we have been
// sending to a peer but have heard nothing back for a full stall
// timeout (or an egress write has been blocked that long), the
// connections are torn down from outside, which fails the wedged
// writer and bounces the writeLoop into a redial. A healthy-but-idle
// peer never trips it, because we are not sending to it either.
//
// The redial backoff is jittered and seeded per (self, peer, plane):
// after a full-cluster restart every writer draws a different delay
// sequence, so recovered peers see a spread of reconnection attempts
// instead of a synchronized herd, while any single writer still backs
// off exponentially to the same cap as before.
package transport

import (
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/stream"
	"repro/internal/types"
)

// Redial backoff shape: exponential from backoffBase to backoffCap with
// uniform jitter in [d/2, 3d/2). The delay resets to the base only
// after a connection survives backoffResetAfter — a peer that accepts
// and immediately dies keeps the delay growing instead of resetting it
// on every doomed dial.
const (
	backoffBase       = 100 * time.Millisecond
	backoffCap        = 5 * time.Second
	backoffResetAfter = 2 * time.Second
)

// dialBackoff is one writer's redial schedule. Not safe for concurrent
// use; each writeLoop owns its own.
type dialBackoff struct {
	rng *rand.Rand
	cur time.Duration
}

func newDialBackoff(seed uint64) *dialBackoff {
	return &dialBackoff{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		cur: backoffBase,
	}
}

// next returns the delay to sleep before the upcoming dial attempt —
// uniform in [cur/2, 3cur/2) — and doubles cur toward the cap.
func (b *dialBackoff) next() time.Duration {
	d := b.cur
	jittered := d/2 + time.Duration(b.rng.Int64N(int64(d)))
	if b.cur < backoffCap {
		b.cur *= 2
		if b.cur > backoffCap {
			b.cur = backoffCap
		}
	}
	return jittered
}

// noteSuccess records that a connection survived for `alive` before
// failing; a long-enough life resets the schedule to the base delay.
func (b *dialBackoff) noteSuccess(alive time.Duration) {
	if alive >= backoffResetAfter {
		b.cur = backoffBase
	}
}

// backoffSeed derives a per-(self, peer, plane) jitter seed with a
// splitmix-style finalizer, so every writer in the cluster — across
// processes, not just within one — walks a different delay sequence.
func backoffSeed(self, to types.NodeID, plane int) uint64 {
	x := uint64(self)<<32 | uint64(to)<<8 | uint64(plane)
	x ^= 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sleepBackoff sleeps for the backoff's next delay, returning false if
// the mesh stopped first.
func (m *TCPMesh) sleepBackoff(bo *dialBackoff) bool {
	select {
	case <-m.stopped:
		return false
	case <-time.After(bo.next()):
		return true
	}
}

// unknownPeer keys inbound connections that have not completed the
// handshake yet (NodeIDs are committee indices, far below this).
const unknownPeer = types.NodeID(0xffff)

// peerHealth is one peer's liveness progress, shared by both planes'
// streams and that peer's readLoops. Timestamps are wall-clock unix
// nanoseconds; zero means "never".
type peerHealth struct {
	lastRecv atomic.Int64 // last frame received from the peer
	lastSend atomic.Int64 // last successful egress flush to the peer
	lastDrop atomic.Int64 // last stall teardown by the monitor
}

// SetStallTimeout arms the stall detector: a peer we are sending to
// that makes no receive progress for d (or holds an egress write
// blocked for d) gets its connections torn down and redialed. Call
// before Start; zero (the default) disables detection entirely,
// preserving the previous transport behavior.
func (m *TCPMesh) SetStallTimeout(d time.Duration) { m.stallTimeout = d }

// healthFor returns (creating if needed) a peer's liveness block.
func (m *TCPMesh) healthFor(id types.NodeID) *peerHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthForLocked(id)
}

func (m *TCPMesh) healthForLocked(id types.NodeID) *peerHealth {
	h, ok := m.health[id]
	if !ok {
		h = &peerHealth{}
		m.health[id] = h
	}
	return h
}

// stallMonitor periodically sweeps peers for stalls. Runs only when
// SetStallTimeout armed it.
func (m *TCPMesh) stallMonitor() {
	interval := m.stallTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stopped:
			return
		case <-t.C:
			m.checkStalls()
		}
	}
}

// checkStalls tears down the connections of every stalled peer. A peer
// is stalled when an outbound connection has been up longer than the
// stall timeout (grace for fresh reconnects) AND either:
//
//   - we sent to it more recently than we heard from it, and the
//     silence has lasted a full timeout (lastSend > lastRecv rules out
//     idle-but-healthy peers: if we are not talking to it, its silence
//     means nothing), or
//   - an egress write has been blocked for a full timeout — the
//     wedged-reader signature, visible even when lastSend cannot
//     advance because no flush completes.
//
// The remedy severs the peer's outbound connections (failing any
// blocked writer, sending the writeLoops to a backed-off redial) and
// its inbound ones (a half-dead session is not worth trusting), and
// bumps the peer's Stalls counter.
//
// Each teardown closes the stall *episode*: progress is measured
// against max(lastRecv, lastDrop), so the same silence is never
// re-declared sweep after sweep. A parked writeLoop only notices its
// severed connection on the next outbound frame — until then the dead
// conn stays registered with growing age and stale timestamps, and
// without the episode cut the monitor would flap forever on an idle
// cluster, repeatedly closing the (healthy) peer's fresh inbound
// connections. Re-declaring requires evidence from after the remedy: a
// successful egress flush (lastSend > lastDrop) followed by a full
// timeout of silence, or a newly wedged write.
func (m *TCPMesh) checkStalls() {
	now := time.Now()
	timeout := m.stallTimeout
	m.mu.Lock()
	type target struct {
		id      types.NodeID
		health  *peerHealth
		writers []*stream.Writer
	}
	var victims []target
	for id, pc := range m.conns {
		h := m.healthForLocked(id)
		progress := max(h.lastRecv.Load(), h.lastDrop.Load())
		lastSend := h.lastSend.Load()
		stalled := false
		aged := false
		for _, w := range pc.writers {
			age, ok := w.ConnAge(now)
			if !ok || age < timeout {
				continue
			}
			aged = true
			if ws := w.WriteStart(); ws != 0 && now.UnixNano()-ws > int64(timeout) {
				stalled = true // write wedged in the kernel buffer
			}
		}
		if aged && !stalled {
			silent := progress == 0 || now.UnixNano()-progress > int64(timeout)
			talking := lastSend > progress
			stalled = talking && silent
		}
		if stalled {
			victims = append(victims, target{id: id, health: h, writers: pc.writers[:]})
		}
	}
	// Collect each victim's inbound connections while still locked.
	inbound := make(map[types.NodeID][]net.Conn)
	for _, v := range victims {
		for conn, id := range m.inbound {
			if id == v.id {
				inbound[v.id] = append(inbound[v.id], conn)
			}
		}
	}
	m.mu.Unlock()
	for _, v := range victims {
		m.logger.Printf("transport: peer %s stalled (no progress in %v): tearing down connections", v.id, timeout)
		m.statsFor(v.id).Stalls.Add(1)
		v.health.lastDrop.Store(now.UnixNano())
		for _, w := range v.writers {
			w.Sever()
		}
		for _, conn := range inbound[v.id] {
			conn.Close()
		}
	}
}
