package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestBlipCatchUpSingleCopy pins the single-copy invariant (DESIGN.md
// §1.14) where it decides the paper's headline: n = 4 on the paper's WAN
// at 200k tx/s, replica 1 down for 1.5 s. The crash slides over three
// leader tenures (leaders rotate every ~50 ms); whichever replica leads
// when it lands, the recovering replica must ingest what it missed once —
// its ingest path has 23 MB/s of headroom beside the live lanes, so a
// second copy of the ~150 MB gap is the difference between catching up in
// seconds and never — and the fast path must be back once it has.
func TestBlipCatchUpSingleCopy(t *testing.T) {
	const (
		victim  = types.NodeID(1)
		crashAt = 10 * time.Second
		downFor = 1500 * time.Millisecond
		loadEnd = 30 * time.Second
		settle  = 12 * time.Second // after the fault clears
	)
	for _, phase := range []time.Duration{0, 25 * time.Millisecond, 50 * time.Millisecond} {
		t.Run(fmt.Sprintf("phase=%v", phase), func(t *testing.T) {
			heal := crashAt + phase + downFor
			slots := make([]types.Slot, 4)
			c := Build(ClusterConfig{
				System: Autobahn,
				Faults: (&sim.FaultSchedule{}).AddDown(victim, crashAt+phase, heal),
				WrapSink: func(inner runtime.CommitSink) runtime.CommitSink {
					return runtime.CommitSinkFunc(func(node types.NodeID, now time.Duration, cm runtime.Committed) {
						slots[node] = cm.Slot
						inner.OnCommit(node, now, cm)
					})
				},
			})
			var peak, late time.Duration // worst ingest backlog: ever, and once settled
			var lag types.Slot           // victim's distance from replica 0 when settled
			var fast, decided int        // replica 0's commits once settled
			var tallied types.Slot
			c.Engine.Every(crashAt, 100*time.Millisecond, loadEnd, func(now time.Duration) {
				backlog := c.Engine.Network().ProcBacklog(now, victim)
				if backlog > peak {
					peak = backlog
				}
				if now < heal+settle {
					return
				}
				if backlog > late {
					late = backlog
				}
				// The engine retains recent decisions only: tally as they come.
				eng := c.Nodes[0].(*core.Node).Engine()
				if tallied == 0 {
					tallied = eng.MaxDecided()
					lag = slots[0] - slots[victim]
				}
				for s := tallied + 1; s <= eng.MaxDecided(); s++ {
					if qc := eng.CommitQCFor(s); qc != nil {
						decided++
						if qc.Fast {
							fast++
						}
					}
				}
				tallied = eng.MaxDecided()
			})
			c.RunLoad(200e3, 0, loadEnd, loadEnd+10*time.Second)

			st := c.Nodes[victim].(*core.Node).Stats()
			t.Logf("victim: %d sync requests, %.1f MB synced, %.1f MB redundant; backlog peak %v, settled %v; lag %d slots; fast %d/%d",
				st.SyncRequestsSent, float64(st.SyncBytesReceived)/1e6, float64(st.DataBytesRedundant)/1e6, peak, late, lag, fast, decided)
			if st.SyncBytesReceived == 0 {
				t.Fatal("the victim synced nothing: the scenario did not open a gap")
			}
			if st.DataBytesRedundant*10 > st.SyncBytesReceived {
				t.Errorf("redundant %d B > 10%% of the %d B synced: some car crossed the ingest path twice",
					st.DataBytesRedundant, st.SyncBytesReceived)
			}
			if peak > 3*time.Second {
				t.Errorf("victim ingest backlog peaked at %v, want <= 3s", peak)
			}
			if late >= 100*time.Millisecond {
				t.Errorf("victim ingest backlog still %v more than %v after the fault cleared, want < 100ms", late, settle)
			}
			if lag > 2 {
				t.Errorf("victim %d slots behind replica 0 %v after the fault cleared, want <= 2", lag, settle)
			}
			if decided == 0 || float64(fast) < 0.9*float64(decided) {
				t.Errorf("replica 0 committed %d/%d slots on the fast path once the victim had settled, want >= 90%%", fast, decided)
			}
		})
	}
}
