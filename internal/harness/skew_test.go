package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/workload"
)

// skewedRun is one deterministic n=4 run on the paper's WAN with clients
// attached to replicas 0 and 1 only — the shape of a gateway-fronted
// deployment: two of four lanes carry cars, the other two stay idle.
func skewedRun(seed uint64) (fingerprint string, starts consensus.StartCounts, mean time.Duration) {
	const (
		rate = 4000.0
		end  = 10 * time.Second
	)
	c := Build(ClusterConfig{System: Autobahn, N: 4, Seed: seed})
	workload.Install(c.Engine, c.IDs[:2], workload.Config{
		TotalRate: rate,
		Start:     0,
		End:       end,
		Batch:     mempool.Config{MaxBatchDelay: 10 * time.Millisecond},
	})
	c.Engine.Run(end + 3*time.Second)
	for _, nd := range c.Nodes {
		s := nd.(*core.Node).Engine().StartCounts()
		starts.Covered += s.Covered
		starts.Lowered += s.Lowered
		starts.Backstop += s.Backstop
	}
	mean = c.Recorder.MeanLatency(time.Second, end)
	fingerprint = fmt.Sprintf("%d txs, mean %d ns, p99 %d ns, starts %+v",
		c.Recorder.Total(), mean, c.Recorder.Percentile(0.99), starts)
	return fingerprint, starts, mean
}

// TestSimSkewedLoadCadence: with load on two of four lanes the coverage
// threshold follows the two active lanes, so slots start when both show a
// new car instead of waiting out the coverageDelay backstop for a third
// lane that has nothing to send. The simulator is deterministic, so the
// run repeats byte for byte and the comparison against the previous start
// rule is a pinned number, not a second code path.
func TestSimSkewedLoadCadence(t *testing.T) {
	// Mean commit latency of this exact run under the fixed n-f threshold,
	// measured at the commit before the rule changed (40000 txs, p99
	// 177083296 ns): with two lanes silent, n-f = 3 new tips never showed
	// and the 50 ms backstop released every slot.
	const (
		fixedThresholdMean = 130225026 * time.Nanosecond
		coverageDelay      = 50 * time.Millisecond
	)
	fp, starts, mean := skewedRun(7)
	t.Logf("%s", fp)
	if again, _, _ := skewedRun(7); again != fp {
		t.Fatalf("skewed run is not deterministic:\n  %s\n  %s", fp, again)
	}
	total := starts.Covered + starts.Lowered + starts.Backstop
	if total == 0 || starts.Backstop*10 >= total {
		t.Fatalf("backstop released %d of %d slot starts, want < 10%%", starts.Backstop, total)
	}
	if starts.Lowered == 0 {
		t.Fatalf("no start used a lowered threshold: %+v", starts)
	}
	if mean > fixedThresholdMean-coverageDelay/4 {
		t.Fatalf("mean commit latency %v, want at least coverageDelay/4 below the fixed threshold's %v", mean, fixedThresholdMean)
	}
}
