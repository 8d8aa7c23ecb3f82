package consensus

import (
	"testing"
	"time"

	"repro/internal/types"
)

const testCeiling = time.Second

func newTestPacemaker() *pacemaker {
	p := &pacemaker{}
	p.init(testCeiling)
	return p
}

// fill feeds k view-0 samples of d each.
func (p *pacemaker) fill(k int, d time.Duration) {
	for i := 0; i < k; i++ {
		p.decided(0, 0, d)
	}
}

func TestPacemakerEmptyWindowIsCeiling(t *testing.T) {
	if got := newTestPacemaker().timeout(0); got != testCeiling {
		t.Fatalf("empty window waits %v, want the ceiling %v", got, testCeiling)
	}
}

func TestPacemakerFastSlotsGiveFloor(t *testing.T) {
	p := newTestPacemaker()
	p.fill(paceWindow, 2*time.Millisecond)
	if got := p.timeout(0); got != paceFloor {
		t.Fatalf("256 samples of 2ms wait %v, want the floor %v", got, paceFloor)
	}
	if paceFloor != 140*time.Millisecond {
		t.Fatalf("floor is %v, want 2 x (coverageDelay + fastPathWait) = 140ms", paceFloor)
	}
}

func TestPacemakerSlowSlotsGiveCeiling(t *testing.T) {
	p := newTestPacemaker()
	p.fill(paceWindow, testCeiling*9/10)
	if got := p.timeout(0); got != testCeiling {
		t.Fatalf("samples of 0.9 x ceiling wait %v, want exactly the ceiling %v", got, testCeiling)
	}
}

// TestPacemakerP99 checks the nearest-rank p99 (the 3rd largest of 256)
// and that the window forgets what is older than 256 samples.
func TestPacemakerP99(t *testing.T) {
	p := newTestPacemaker()
	p.fill(paceWindow, testCeiling)
	p.fill(paceWindow-2, 2*time.Millisecond)
	p.fill(2, 200*time.Millisecond) // two outliers sit above the p99
	if got := p.timeout(0); got != paceFloor {
		t.Fatalf("two outliers in 256 wait %v, want the floor %v", got, paceFloor)
	}
	p.fill(1, 100*time.Millisecond) // a third is the p99
	if got, want := p.timeout(0), 4*100*time.Millisecond; got != want {
		t.Fatalf("three outliers in 256 wait %v, want 4 x 100ms = %v", got, want)
	}
}

// TestPacemakerLaterViewsBackOff: a slot decided in a later view adds no
// sample. One alone (a down leader between healthy slots) leaves the base
// alone; each further one in a row shifts it left by its view, up to the
// ceiling. A view-0 sample no slower than the window's rule ends the run
// and drops the base back.
func TestPacemakerLaterViewsBackOff(t *testing.T) {
	p := newTestPacemaker()
	p.decided(1, 0, 5*time.Millisecond)
	if p.held != 0 {
		t.Fatalf("a view-1 decision was sampled")
	}
	p.fill(paceWindow, 2*time.Millisecond)
	for i, want := range []time.Duration{paceFloor, 2 * paceFloor, 4 * paceFloor, testCeiling} {
		p.decided(1, 0, 3*time.Second)
		if got := p.timeout(0); got != want {
			t.Fatalf("after %d view-1 decisions in a row the base is %v, want %v", i+1, got, want)
		}
	}
	if p.held != paceWindow || p.derive() != paceFloor {
		t.Fatalf("view-1 decisions changed the window")
	}
	p.fill(1, 2*time.Millisecond)
	if got := p.timeout(0); got != paceFloor {
		t.Fatalf("a fast view-0 sample after the backoff left the base at %v, want the floor %v", got, paceFloor)
	}
	// A down leader every few slots: one later-view decision between
	// view-0 ones never backs the timer off.
	for i := 0; i < 10; i++ {
		p.decided(1, 0, time.Second)
		p.fill(3, 2*time.Millisecond)
	}
	if got := p.timeout(0); got != paceFloor {
		t.Fatalf("isolated view-1 decisions moved the base to %v, want the floor %v", got, paceFloor)
	}
	p.decided(1, 0, time.Second)
	p.decided(2, 0, time.Second)
	if got, want := p.timeout(0), 4*paceFloor; got != want {
		t.Fatalf("a view-2 decision after a view-1 one backed the base off to %v, want %v", got, want)
	}
}

// TestPacemakerSlowSampleKeepsBackOff: after the backoff, a view-0 sample
// slower than the window's rule keeps the backed-off base until the
// window holds enough such samples to carry it (a cluster-wide slowdown).
func TestPacemakerSlowSampleKeepsBackOff(t *testing.T) {
	p := newTestPacemaker()
	p.fill(paceWindow, 2*time.Millisecond)
	p.decided(1, 0, time.Second)
	p.decided(2, 0, time.Second) // 140ms -> 560ms
	slow := 300 * time.Millisecond
	for i := 0; i < 2; i++ {
		p.fill(1, slow)
		if got, want := p.timeout(0), 4*paceFloor; got != want {
			t.Fatalf("after %d slow view-0 samples the base is %v, want the backoff %v", i+1, got, want)
		}
	}
	p.fill(1, slow) // the third is the window's p99
	if got := p.timeout(0); got != testCeiling {
		t.Fatalf("three samples of %v give %v, want 4 x %v capped at the ceiling %v", slow, got, slow, testCeiling)
	}
}

// TestPacemakerSpuriousTimeoutRaisesBase: view-0 decisions that came
// after this replica's own timer fired are sampled, so three of them in
// the window lift the base above what fired.
func TestPacemakerSpuriousTimeoutRaisesBase(t *testing.T) {
	p := newTestPacemaker()
	p.fill(paceWindow, 2*time.Millisecond)
	late := paceFloor + 10*time.Millisecond // the floor timer fired first
	for i := 0; i < 3; i++ {
		p.decided(0, time.Minute, time.Minute+late)
	}
	if got, want := p.timeout(0), 4*late; got != want {
		t.Fatalf("after three late view-0 decisions the base is %v, want %v", got, want)
	}
}

func TestPacemakerLaterViewsDouble(t *testing.T) {
	p := newTestPacemaker()
	p.fill(paceWindow, 2*time.Millisecond)
	for v := types.View(0); v <= 10; v++ {
		shift := min(uint(v), maxViewShift)
		if got, want := p.timeout(v), paceFloor<<shift; got != want {
			t.Fatalf("view %d waits %v, want %v", v, got, want)
		}
	}
}

// TestEngineSamplesViewZeroDecisions wires the rule through the engine:
// a replica decides slot 1 in view 0 a few ms after arming its timer and
// drops to the floor, while one whose view-0 timer fired before the
// decision takes the late sample; a slot decided in view 1 samples
// nothing and only backs the base off.
func TestEngineSamplesViewZeroDecisions(t *testing.T) {
	const ceiling = 2 * time.Second
	n := newNet(t, func(_ types.NodeID, cfg *Config) { cfg.ViewTimeout = ceiling })
	leader := types.NewCommittee(4).Leader(1, 0)
	late := types.NodeID((int(leader) + 1) % 4)
	initAll(n) // every replica arms slot 1's view-0 timer at 0
	for _, e := range n.engines {
		if got := e.BaseViewTimeout(); got != ceiling {
			t.Fatalf("fresh engine base %v, want the ceiling %v", got, ceiling)
		}
	}
	for _, env := range n.envs {
		env.now = 3 * time.Millisecond
	}
	// The late replica's timer fires (a spurious timeout: one complaint
	// is not enough for anyone to join) and it decides at 300ms.
	n.envs[late].now = 300 * time.Millisecond
	n.engines[late].OnTimer(Timer{Kind: TimerView, Slot: 1, View: 0})
	n.pump(t, nil)
	n.fireFastTimers() // the late replica did not vote: 3 of 4
	n.pump(t, nil)
	for i, e := range n.engines {
		if !e.Decided(1) || n.envs[i].decided[1].View != 0 {
			t.Fatalf("r%d did not decide slot 1 in view 0", i)
		}
		want := paceFloor
		if types.NodeID(i) == late {
			want = 4 * 300 * time.Millisecond
		}
		if got := e.BaseViewTimeout(); got != want {
			t.Fatalf("r%d base %v after deciding in view 0, want %v", i, got, want)
		}
	}

	// A silent leader: slot 1 is decided in view 1 and adds no sample.
	n = newNet(t, func(_ types.NodeID, cfg *Config) { cfg.ViewTimeout = ceiling })
	skip := map[types.NodeID]bool{leader: true}
	for i, e := range n.engines {
		if types.NodeID(i) != leader {
			e.Init()
		}
	}
	n.pump(t, skip)
	for i, env := range n.envs {
		env.now = ceiling
		timers := env.timers
		env.timers = nil
		for _, tm := range timers {
			if tm.Kind == TimerView && tm.Slot == 1 && tm.View == 0 {
				n.engines[i].OnTimer(tm)
			}
		}
	}
	n.pump(t, skip)
	n.fireFastTimers()
	n.pump(t, skip)
	for i, e := range n.engines {
		if types.NodeID(i) == leader {
			continue
		}
		if !e.Decided(1) || n.envs[i].decided[1].View != 1 {
			t.Fatalf("r%d did not decide slot 1 in view 1", i)
		}
		// Slot 2 started on slot 1's view-1 Prepare and decided in view 0
		// at once: its sample alone gives the floor, where slot 1's 2s
		// would have lifted the p99 to the ceiling.
		if !e.Decided(2) || n.envs[i].decided[2].View != 0 {
			t.Fatalf("r%d did not decide slot 2 in view 0", i)
		}
		if got := e.BaseViewTimeout(); got != paceFloor {
			t.Fatalf("r%d base %v, want the floor %v: the view-1 decision was sampled", i, got, paceFloor)
		}
	}
}

// TestBaseViewTimeoutConcurrentRead: operators poll the base from outside
// the event loop while decisions update it (run under -race).
func TestBaseViewTimeoutConcurrentRead(t *testing.T) {
	n := newNet(t, nil)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if b := n.engines[0].BaseViewTimeout(); b < paceFloor || b > time.Second {
					t.Errorf("base %v outside [floor, ceiling]", b)
					return
				}
			}
		}
	}()
	initAll(n)
	n.pump(t, nil)
	close(stop)
	<-done
	if !n.engines[0].Decided(1) {
		t.Fatal("slot 1 not decided")
	}
}
