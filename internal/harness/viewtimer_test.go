package harness

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/types"
)

// oneRegion is a single-region deployment: every pair of replicas is
// 4 ms apart (round trip), the loopback-like case in which a healthy
// slot decides in a few ms.
func oneRegion() *sim.Network {
	return sim.NewNetwork(sim.DefaultNetConfig(sim.NewRegionTopology([][]float64{{4}})))
}

// timerRun is one n = 4 Autobahn run; it records replica 0's commit
// times.
type timerRun struct {
	c       *Cluster
	commits []time.Duration
}

func runTimer(net *sim.Network, faults *sim.FaultSchedule, load, until time.Duration) *timerRun {
	r := newTimerRun(net, faults, 0)
	r.c.RunLoad(5e3, 0, load, until)
	return r
}

// newTimerRun builds the run with the given view timeout ceiling (0: the
// default 1 s).
func newTimerRun(net *sim.Network, faults *sim.FaultSchedule, ceiling time.Duration) *timerRun {
	r := &timerRun{}
	r.c = Build(ClusterConfig{
		System:      Autobahn,
		N:           4,
		ViewTimeout: ceiling,
		Net:         net,
		Faults:      faults,
		WrapSink: func(next runtime.CommitSink) runtime.CommitSink {
			return runtime.CommitSinkFunc(func(id types.NodeID, now time.Duration, c runtime.Committed) {
				if id == 0 {
					r.commits = append(r.commits, now)
				}
				next.OnCommit(id, now, c)
			})
		},
	})
	return r
}

// longestGap is the longest stretch without a replica-0 commit in
// [from, to].
func (r *timerRun) longestGap(from, to time.Duration) time.Duration {
	var gap time.Duration
	last := from
	for _, at := range r.commits {
		if at < from || at > to {
			continue
		}
		gap = max(gap, at-last)
		last = at
	}
	return max(gap, to-last)
}

func (r *timerRun) timeouts() uint64 {
	var sent uint64
	for _, nd := range r.c.Nodes {
		sent += nd.(*core.Node).Stats().TimeoutsSent
	}
	return sent
}

// TestDownLeaderCostsTheAdaptiveTimer: with a replica down, each slot it
// leads waits out the view timer, so the longest commit gap is one
// timeout plus a view change. On a network where slots decide in a few
// ms the adaptive timer sits at its 140 ms floor, not at the 1 s
// ceiling the fixed timer waited.
func TestDownLeaderCostsTheAdaptiveTimer(t *testing.T) {
	const crash, heal = 3 * time.Second, 5 * time.Second
	faults := (&sim.FaultSchedule{}).AddDown(blipCrashNode, crash, heal)
	r := runTimer(oneRegion(), faults, 7*time.Second, 9*time.Second)
	gap := r.longestGap(crash, heal)
	base := r.c.Nodes[0].(*core.Node).Engine().BaseViewTimeout()
	t.Logf("longest commit gap while replica %d is down: %v (base timeout %v, %d Timeouts sent)", blipCrashNode, gap, base, r.timeouts())
	if gap > 300*time.Millisecond {
		t.Fatalf("longest commit gap while replica %d is down is %v, want <= 300ms", blipCrashNode, gap)
	}
	if gap < 100*time.Millisecond {
		t.Fatalf("longest commit gap %v: no slot waited for a timeout, the crash did not bite", gap)
	}
}

// TestFaultFreeRunsSendNoTimeouts: the adaptive timer never fires on a
// healthy deployment, on one region or on the paper's WAN.
func TestFaultFreeRunsSendNoTimeouts(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *sim.Network
	}{
		{"one-region", oneRegion()},
		{"wan", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := runTimer(tc.net, nil, 6*time.Second, 7*time.Second)
			base := r.c.Nodes[0].(*core.Node).Engine().BaseViewTimeout()
			t.Logf("%d commits at replica 0, base timeout %v", len(r.commits), base)
			if len(r.commits) == 0 {
				t.Fatal("nothing committed")
			}
			if n := r.timeouts(); n != 0 {
				t.Fatalf("a fault-free run sent %d Timeouts (base timeout %v)", n, base)
			}
		})
	}
}

// steppedTopology is one region whose round trip steps from fast to slow
// once slowed is set.
type steppedTopology struct {
	fast, slow sim.Topology
	slowed     bool
}

func (t *steppedTopology) Delay(a, b types.NodeID) time.Duration {
	if t.slowed {
		return t.slow.Delay(a, b)
	}
	return t.fast.Delay(a, b)
}

func (t *steppedTopology) Regions() int { return 1 }

// TestSlowdownBacksTheTimerOff: once the base has settled at its floor,
// the one-region round trip steps from 4 ms to 300 ms. Slots then take
// 0.5-1 s to decide, well above the base and well below the 3 s ceiling,
// so every replica times out and joins the mutiny. Those slots decide
// after a view change and feed no sample; only the backoff on
// later-view decisions in a row lets view-0 slots decide again and the
// window learn the new latency (13 slots here). Without it the base stays
// at the floor and every slot pays a view change for as long as the
// slowdown lasts.
func TestSlowdownBacksTheTimerOff(t *testing.T) {
	const step, end = 3 * time.Second, 12 * time.Second
	topo := &steppedTopology{
		fast: sim.NewRegionTopology([][]float64{{4}}),
		slow: sim.NewRegionTopology([][]float64{{300}}),
	}
	r := newTimerRun(sim.NewNetwork(sim.DefaultNetConfig(topo)), nil, 3*time.Second)
	engine := r.c.Nodes[0].(*core.Node).Engine()
	var settled time.Duration
	var atStep, atLast int // replica-0 commits at the step and at the last Timeout
	var lastAt time.Duration
	var sent uint64
	r.c.Engine.At(step, func() {
		topo.slowed = true
		settled, atStep, atLast, sent = engine.BaseViewTimeout(), len(r.commits), len(r.commits), r.timeouts()
	})
	r.c.Engine.Every(step, time.Millisecond, end, func(now time.Duration) {
		if n := r.timeouts(); n != sent {
			sent, lastAt, atLast = n, now, len(r.commits)
		}
	})
	r.c.RunLoad(5e3, 0, end, end)
	after := len(r.commits) - atLast
	t.Logf("base %v at the step, %v at the end; %d Timeouts sent, the last %v after the step, %d slots in; %d slots committed after it",
		settled, engine.BaseViewTimeout(), sent, lastAt-step, atLast-atStep, after)
	if settled != 140*time.Millisecond {
		t.Fatalf("base %v at the step, want the 140ms floor: the run did not settle", settled)
	}
	if atLast-atStep > 16 {
		t.Fatalf("Timeouts went on for %d slots after the round trip stepped to 300ms, want <= 16", atLast-atStep)
	}
	if after < 50 {
		t.Fatalf("only %d slots committed after the last Timeout", after)
	}
}
