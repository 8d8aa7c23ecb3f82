package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0.01, 10},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
}

// Python: statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5];
// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]; quantiles([1,2,3], n=4)
// == [1.0, 2.0, 3.0]; quantiles([7, 1], n=4) == [-0.5, 4.0, 8.5].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{7, 1}, [3]float64{-0.5, 4, 8.5}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if got := relSpread([]float64{5, 1, 4, 2, 3}); !near(got, 1.0) {
		t.Errorf("relSpread = %v, want 1", got)
	}
}

func TestPartsFloorTakesTheLowerQuartile(t *testing.T) {
	// Five one-second sub-windows of 100 samples each; the sample at
	// rank 99 of sub-window w is 10*(w+1), every other is 1. One noisy
	// sub-window must not move the answer.
	var s []sample
	tails := []float64{10, 20, 30, 40, 500}
	for w, tail := range tails {
		for i := 0; i < 100; i++ {
			lat := 1.0
			if i >= 98 {
				lat = tail
			}
			s = append(s, sample{dueS: float64(w) + float64(i)/100, latMs: lat, weight: 1})
		}
	}
	// p99 per sub-window = tails; Python quantiles(tails, n=4)[0] == 15.
	if got := partsFloor(s, 0, 5, 5, 0.99); !near(got, 15) {
		t.Errorf("partsFloor p99 = %v, want 15", got)
	}
	if got := partsFloor(s, 0, 5, 5, 0.5); got != 1 {
		t.Errorf("partsFloor p50 = %v, want 1", got)
	}
	// Weighted percentile: one batch of 99 fast transactions and one slow
	// transaction put the p99 on the fast batch, the p100 on the slow one.
	w := []sample{{latMs: 5, weight: 99}, {latMs: 900, weight: 1}}
	if got := weightedPercentile(w, 0.99); got != 5 {
		t.Errorf("weighted p99 = %v, want 5", got)
	}
	if got := weightedPercentile(w, 1); got != 900 {
		t.Errorf("weighted p100 = %v, want 900", got)
	}
	if got := weightedMean(w); !near(got, (5*99+900)/100.0) {
		t.Errorf("weighted mean = %v", got)
	}
}

func TestLongestGap(t *testing.T) {
	ev := []float64{0.5, 1.0, 1.1, 2.4, 2.5, 4.0}
	if got := longestGap(ev, 1, 3); !near(got, 1.3) {
		t.Errorf("gap inside = %v, want 1.3", got)
	}
	if got := longestGap(ev, 2.6, 3.9); !near(got, 1.3) {
		t.Errorf("silent window = %v, want its whole length 1.3", got)
	}
	if got := longestGap(ev, 3, 4.5); !near(got, 1.0) {
		t.Errorf("leading edge = %v, want 1.0", got)
	}
}

func TestOpenLoopScheduleDoesNotDrift(t *testing.T) {
	s := schedule{startNs: 12345, rate: 50000, total: 2_000_000}
	if got := s.due(1_000_000) - s.startNs; got != 20_000_000_000 {
		t.Fatalf("millionth transaction due after %d ns, want exactly 20 s", got)
	}
	// A rate that does not divide a second still never accumulates error:
	// due(k) is within 1 ns of the exact k/rate.
	odd := schedule{rate: 30001, total: 2_000_000}
	for _, k := range []int64{1, 999_999, 1_000_000, 1_999_999} {
		exact := float64(k) * 1e9 / 30001
		if d := float64(odd.due(k)) - exact; d > 0 || d <= -1 {
			t.Errorf("due(%d) off by %v ns", k, d)
		}
	}
	// dueCount agrees with due at every nanosecond around the first ticks.
	for now := s.startNs - 5; now < s.startNs+100_000; now++ {
		want := int64(0)
		for k := int64(0); k < 10 && s.due(k) <= now; k++ {
			want++
		}
		if got := s.dueCount(now); got != want {
			t.Fatalf("dueCount(start%+d) = %d, want %d", now-s.startNs, got, want)
		}
	}
	if got := s.dueCount(s.startNs + 100e9); got != s.total {
		t.Errorf("dueCount past the end = %d, want total %d", got, s.total)
	}
	for _, off := range []int64{0, 1, 20_000, 20_001, 2_000_000_000} {
		k := s.firstAt(off)
		if s.due(k)-s.startNs < off || (k > 0 && s.due(k-1)-s.startNs >= off) {
			t.Errorf("firstAt(%d) = %d is not the first due at or after it", off, k)
		}
	}
}

func TestCatchUpCap(t *testing.T) {
	// Generator 1 of 2 (k = 1, 3, 5, ...), nothing sent yet.
	if got := batchOf(1, 0, 2, 100); got != 0 {
		t.Errorf("nothing due: %d", got)
	}
	if got := batchOf(1, 1, 2, 100); got != 0 {
		t.Errorf("only k=0 due, which is the other generator's: %d", got)
	}
	if got := batchOf(1, 8, 2, 100); got != 4 { // 1, 3, 5, 7
		t.Errorf("k<8: %d, want 4", got)
	}
	if got := batchOf(1, 9, 2, 100); got != 4 {
		t.Errorf("k<9: %d, want 4", got)
	}
	// After a stall a million are due; one slab takes the cap and no more.
	if got := batchOf(1, 1_000_000, 2, 100); got != 100 {
		t.Errorf("after a stall: %d, want the cap 100", got)
	}
}

func TestEpochOffsetTakesTheTightestObservation(t *testing.T) {
	// A replica whose epoch is 1 000 000 ns after the benchmark's. Its
	// observer runs 700, 90 and 4 000 ns after three stamps were taken.
	var e epochOffset
	e.observe(1_000_000+500+700, 500)
	e.observe(1_000_000+900+90, 900)
	e.observe(1_000_000+2_000+4_000, 2_000)
	if got := e.toBench(10_000); got != 1_000_000+90+10_000 {
		t.Errorf("toBench = %d, want %d", got, 1_000_000+90+10_000)
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	root := span{1, "tx", "", 0, 100}
	kids := []span{
		{1, "a", "tx", 0, 10},
		{1, "b", "tx", 10, 50},
		{1, "c", "tx", 40, 70},   // overlaps b by 10
		{1, "d", "tx", 90, 130},  // sticks out past the root by 30
		{1, "e", "tx", -20, -10}, // wholly outside
	}
	// Covered: [0,70) and [90,100) = 80; self time 20.
	if got := selfTime(root, kids); got != 20 {
		t.Errorf("self time = %d, want 20", got)
	}
	grand := span{1, "b1", "b", 20, 30}
	trees := [][]span{append(append([]span{root}, kids...), grand)}
	rep := spanReport(trees)
	if !near(rep.coverage, 0.8) {
		t.Errorf("coverage = %v, want 0.8", rep.coverage)
	}
	for _, r := range rep.rows {
		if r.name == "b" && !near(r.own, 0.30) { // 40 long, child covers 10
			t.Errorf("b self share = %v, want 0.30", r.own)
		}
	}
	if got := rep.p50("c"); got != 30e-6 {
		t.Errorf("p50(c) = %v ms, want 30 ns", got)
	}
}

// benchmarkJSON mirrors the driver's contract for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, the program has %d", len(b.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w != workloadDefs[i] {
			t.Errorf("workload %d: %+v, the program has %+v", i, w, workloadDefs[i])
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why too long", w.Name)
		}
		seen[w.Name] = true
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEndDefs))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		if m != endToEndDefs[i] {
			t.Errorf("end_to_end %d: %+v, the program has %+v", i, m, endToEndDefs[i])
		}
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bad name, unit or bound", m.Name)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayerDefs) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, m := range b.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v, the program has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) {
			t.Errorf("per_layer %q: bad or repeated name, or bad unit", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSimSmokePrintsEveryMetric runs sim_wan_blip over two virtual seconds
// of load, untraced and traced, and checks that the result line carries
// every metric BENCHMARK.json names, with its unit.
func TestSimSmokePrintsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	o := options{workload: "sim_wan_blip", seed: 7, seconds: 1, tmpRoot: t.TempDir()}
	check := func(trace bool, want map[string]string) {
		o.trace = trace
		res, err := runWorkload(o)
		if err != nil {
			t.Fatal(err)
		}
		line, err := res.json(trace)
		if err != nil {
			t.Fatal(err)
		}
		var jr jsonResult
		if err := json.Unmarshal(line, &jr); err != nil {
			t.Fatal(err)
		}
		if !jr.Correct || jr.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d", trace, jr.Correct, jr.Attempted)
		}
		if len(jr.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics printed, want %d", trace, len(jr.Metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := jr.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("trace=%v: metric %s (%s) not printed: %+v", trace, name, unit, m)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	check(false, e2e)
	check(true, layers)
}
