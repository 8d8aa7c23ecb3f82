package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/workload"
)

// logEntry identifies one committed batch for cross-replica comparison.
type logEntry struct {
	Lane types.NodeID
	Pos  types.Pos
	Dig  types.Digest
}

// logCollector records each replica's committed sequence.
type logCollector struct {
	logs  [][]logEntry
	inner runtime.CommitSink
}

func newLogCollector(n int, inner runtime.CommitSink) *logCollector {
	return &logCollector{logs: make([][]logEntry, n), inner: inner}
}

func (lc *logCollector) OnCommit(node types.NodeID, now time.Duration, c runtime.Committed) {
	lc.logs[node] = append(lc.logs[node], logEntry{Lane: c.Lane, Pos: c.Position, Dig: c.Batch.Digest()})
	if lc.inner != nil {
		lc.inner.OnCommit(node, now, c)
	}
}

// checkPrefixAgreement asserts every pair of replica logs agree on their
// common prefix (consensus safety: identical total order).
func checkPrefixAgreement(t *testing.T, logs [][]logEntry) {
	t.Helper()
	for i := 0; i < len(logs); i++ {
		for j := i + 1; j < len(logs); j++ {
			n := len(logs[i])
			if len(logs[j]) < n {
				n = len(logs[j])
			}
			for k := 0; k < n; k++ {
				if logs[i][k] != logs[j][k] {
					t.Fatalf("log divergence: r%d[%d]=%+v, r%d[%d]=%+v", i, k, logs[i][k], j, k, logs[j][k])
				}
			}
		}
	}
}

type clusterOpts struct {
	n              int
	verifySigs     bool
	fastPath       bool
	optimisticTips bool
	weakVotes      bool
	groupCommit    bool // with a MemJournal per node
	shards         int
	faults         *sim.FaultSchedule
	seed           uint64
	viewTimeout    time.Duration
}

// newClusterWith builds a cluster from a mutated default option set.
func newClusterWith(t *testing.T, mutate func(*clusterOpts)) *cluster {
	t.Helper()
	o := clusterOpts{n: 4}
	mutate(&o)
	return newCluster(o)
}

type cluster struct {
	engine   *sim.Engine
	nodes    []*core.Node
	logs     *logCollector
	recorder *metrics.Recorder
	ids      []types.NodeID
}

func newCluster(o clusterOpts) *cluster {
	if o.seed == 0 {
		o.seed = 42
	}
	committee := types.NewCommittee(o.n)
	var suite crypto.Suite
	if o.verifySigs {
		suite = crypto.NewEd25519Suite(o.n, o.seed)
	} else {
		suite = crypto.NewNopSuite(o.n)
	}
	rec := metrics.NewRecorder(5 * time.Minute)
	lc := newLogCollector(o.n, rec.Sink())
	eng := sim.NewEngine(sim.Config{
		Net:    sim.NewNetwork(sim.DefaultNetConfig(sim.IntraUSTopology())),
		Faults: o.faults,
		Seed:   o.seed,
	})
	c := &cluster{engine: eng, logs: lc, recorder: rec}
	for i := 0; i < o.n; i++ {
		var journal core.Journal
		if o.groupCommit {
			journal = core.NewMemJournal()
		}
		nd := core.NewNode(core.Config{
			Committee:      committee,
			Self:           types.NodeID(i),
			Suite:          suite,
			VerifySigs:     o.verifySigs,
			FastPath:       o.fastPath,
			OptimisticTips: o.optimisticTips,
			WeakVotes:      o.weakVotes,
			Shards:         o.shards,
			ViewTimeout:    o.viewTimeout,
			Journal:        journal,
			GroupCommit:    o.groupCommit,
			Sink:           lc,
		})
		c.nodes = append(c.nodes, nd)
		eng.AddNode(nd)
		c.ids = append(c.ids, types.NodeID(i))
	}
	return c
}

func TestClusterCommitsUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts clusterOpts
	}{
		{"slow-path-certified", clusterOpts{n: 4, fastPath: false, optimisticTips: false}},
		{"fast-path-certified", clusterOpts{n: 4, fastPath: true, optimisticTips: false}},
		{"fast-path-optimistic", clusterOpts{n: 4, fastPath: true, optimisticTips: true}},
		{"slow-path-optimistic", clusterOpts{n: 4, fastPath: false, optimisticTips: true}},
		{"n7-fast-optimistic", clusterOpts{n: 7, fastPath: true, optimisticTips: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(tc.opts)
			workload.Install(c.engine, c.ids, workload.Config{
				TotalRate: 20000, Start: 0, End: 10 * time.Second,
			})
			c.engine.Run(14 * time.Second)

			total := c.recorder.Total()
			// 20k tx/s for 10s = 200k submitted; expect the vast majority
			// committed (tail flush included).
			if total < 190_000 {
				t.Fatalf("committed only %d of ~200000 txs", total)
			}
			lat := c.recorder.MeanLatency(2*time.Second, 9*time.Second)
			if lat <= 0 || lat > 2*time.Second {
				t.Fatalf("implausible steady-state latency %v", lat)
			}
			checkPrefixAgreement(t, c.logs.logs)
			t.Logf("committed=%d meanLat=%v p99=%v", total, lat, c.recorder.Percentile(0.99))
		})
	}
}

func TestClusterWithRealSignatures(t *testing.T) {
	c := newCluster(clusterOpts{n: 4, verifySigs: true, fastPath: true, optimisticTips: true})
	workload.Install(c.engine, c.ids, workload.Config{
		TotalRate: 4000, Start: 0, End: 3 * time.Second,
	})
	c.engine.Run(6 * time.Second)
	if c.recorder.Total() < 10_000 {
		t.Fatalf("committed only %d txs with real crypto", c.recorder.Total())
	}
	checkPrefixAgreement(t, c.logs.logs)
}

func TestSeamlessLeaderFailure(t *testing.T) {
	// Crash one replica for 3 seconds mid-run. Consensus slots it leads
	// view-change past it; lanes keep growing; after the blip, commits
	// resume with no protocol-induced hangover (§A.3).
	faults := (&sim.FaultSchedule{}).AddDown(1, 5*time.Second, 8*time.Second)
	c := newCluster(clusterOpts{n: 4, fastPath: true, optimisticTips: true, faults: faults, viewTimeout: time.Second})
	workload.Install(c.engine, c.ids, workload.Config{
		TotalRate: 20000, Start: 0, End: 20 * time.Second,
	})
	c.engine.Run(25 * time.Second)

	total := c.recorder.Total()
	if total < 350_000 { // 20k*20s = 400k minus the crashed replica's share shortfall
		t.Fatalf("committed only %d txs across leader failure", total)
	}
	checkPrefixAgreement(t, c.logs.logs)

	// Post-blip latency should return to steady state promptly.
	baseline := c.recorder.MeanLatency(2*time.Second, 5*time.Second)
	post := c.recorder.MeanLatency(10*time.Second, 19*time.Second)
	if post > 3*baseline+200*time.Millisecond {
		t.Fatalf("hangover: post-blip latency %v vs baseline %v", post, baseline)
	}
	t.Logf("baseline=%v post=%v total=%d", baseline, post, total)
}

func TestPartitionRecovery(t *testing.T) {
	// 2-2 split for 10s: consensus stalls (no quorum), lanes keep growing
	// within halves (f+1 reachable incl. self); on heal, the backlog
	// commits promptly.
	faults := (&sim.FaultSchedule{}).SplitPartition(4, []types.NodeID{2, 3}, 5*time.Second, 15*time.Second)
	c := newCluster(clusterOpts{n: 4, fastPath: true, optimisticTips: false, faults: faults, viewTimeout: time.Second})
	workload.Install(c.engine, c.ids, workload.Config{
		TotalRate: 10000, Start: 0, End: 20 * time.Second,
	})
	c.engine.Run(40 * time.Second)

	total := c.recorder.Total()
	if total < 190_000 { // all 200k submitted should eventually commit
		t.Fatalf("committed only %d txs across partition", total)
	}
	checkPrefixAgreement(t, c.logs.logs)

	// Lanes must have kept growing during the partition: transactions
	// arriving mid-partition commit shortly after heal, not tens of
	// seconds later (throughput-hangover bound).
	series := c.recorder.ArrivalSeries()
	var worst time.Duration
	for _, p := range series {
		if p.Second >= 5 && p.Second < 15 && p.MeanLat > worst {
			worst = p.MeanLat
		}
	}
	// A tx arriving at t=5s can commit no earlier than heal (t=15s): 10s
	// latency. It must not take much longer than the remaining blip.
	if worst > 13*time.Second {
		t.Fatalf("partition backlog commit too slow: worst in-blip latency %v", worst)
	}
	t.Logf("total=%d worstInBlipLatency=%v", total, worst)
}

func TestLeaderScheduleOffset(t *testing.T) {
	c := types.NewCommittee(4)
	got := fmt.Sprint(c.Leader(1, 0), c.Leader(2, 0), c.Leader(1, 1))
	if got != "r3 r2 r0" {
		t.Fatalf("leader schedule = %s", got)
	}
}
