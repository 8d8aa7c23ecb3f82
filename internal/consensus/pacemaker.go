package consensus

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// The adaptive view timer (DESIGN.md §1.18). A replica derives its base
// view timeout from how long its own healthy slots take to decide: base =
// clamp(paceMultiplier × p99 of the last paceWindow samples, paceFloor,
// Config.ViewTimeout). A sample is the time from arming a slot's view-0
// timer to deciding it locally, taken only for slots decided in view 0:
// a slot that needed a view change is what the timer detects, so it never
// feeds the timer. Two such slots decided in a row back the timer off
// instead: the base shifts left by the view that decided the second, up
// to the ceiling, so that once the whole cluster slows beyond the base its
// slots decide in view 0 again and the window learns the new latency. A
// down leader between healthy slots never backs it off. A view-0 sample
// no slower than the window's rule drops the base back to the rule; a
// slower one keeps the backoff until the window has caught up. A faulty
// leader can only raise the base (by slow-walking its own slots or by
// forcing view changes on them), and the ceiling caps that at the fixed
// timer's behaviour; it cannot make correct leaders' slots look faster.
const (
	// paceWindow is how many recent decide latencies the timer keeps.
	paceWindow = 256
	// paceMultiplier scales the window's p99 into the base timeout.
	paceMultiplier = 4
	// paceFloor bounds the base from below: after a follower arms its
	// timer, a correct leader may still wait out its own coverage backstop
	// and the fast-path wait, so the floor is twice that.
	paceFloor = 2 * (coverageDelay + fastPathWait)
	// maxViewShift caps the doubling of later views.
	maxViewShift = 6
)

// pacemaker holds the adaptive view timer's window of decide latencies
// and the base timeout derived from it. It is driven from the engine's
// event loop; base is atomic because operators read it from outside.
type pacemaker struct {
	ceiling time.Duration
	ring    [paceWindow]time.Duration
	held    int  // samples in ring, at most paceWindow
	next    int  // ring index the next sample overwrites
	stalled bool // the last decision came after a view change
	base    atomic.Int64
}

func (p *pacemaker) init(ceiling time.Duration) {
	p.ceiling = ceiling
	p.base.Store(int64(ceiling))
}

// decided samples a slot decided at now in view v whose view-0 timer this
// replica armed at armed. Only view-0 decisions are sampled; one decided
// after this replica's own view-0 timer fired is, so a spurious timeout
// raises the base. A later-view decision right after another backs the
// base off instead.
func (p *pacemaker) decided(v types.View, armed, now time.Duration) {
	base := time.Duration(p.base.Load())
	if v != 0 {
		if p.stalled {
			p.base.Store(int64(min(base<<min(uint(v), maxViewShift), p.ceiling)))
		}
		p.stalled = true
		return
	}
	p.stalled = false
	took := now - armed
	p.ring[p.next] = took
	p.next = (p.next + 1) % paceWindow
	if p.held < paceWindow {
		p.held++
	}
	next := p.derive()
	if took > next {
		next = max(next, base)
	}
	p.base.Store(int64(next))
}

// derive computes the base from the window: paceMultiplier × the
// nearest-rank p99 (the 3rd largest of 256), clamped to [paceFloor,
// ceiling]. An empty window gives the ceiling.
func (p *pacemaker) derive() time.Duration {
	if p.held == 0 {
		return p.ceiling
	}
	var sorted [paceWindow]time.Duration
	w := sorted[:p.held]
	copy(w, p.ring[:p.held])
	slices.Sort(w)
	rank := (99*p.held + 99) / 100 // ceil(0.99 × held), 1-based
	base := paceMultiplier * w[rank-1]
	if base < paceFloor {
		base = paceFloor
	}
	if base > p.ceiling {
		base = p.ceiling
	}
	return base
}

// timeout is how long view v waits: the base doubled per view, capped.
func (p *pacemaker) timeout(v types.View) time.Duration {
	shift := uint(v)
	if shift > maxViewShift {
		shift = maxViewShift
	}
	return time.Duration(p.base.Load()) << shift
}
