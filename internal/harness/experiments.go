package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/types"
)

// --- Table 1: RTT matrix ---

// Table1 renders the configured inter-region RTT matrix (the paper's
// Table 1, which the simulator's topology reproduces verbatim).
func Table1(w io.Writer) {
	fmt.Fprintf(w, "%-10s", "RTT(ms)")
	for _, r := range sim.IntraUSRegions {
		fmt.Fprintf(w, "%12s", r)
	}
	fmt.Fprintln(w)
	for i, r := range sim.IntraUSRegions {
		fmt.Fprintf(w, "%-10s", r)
		for j := range sim.IntraUSRegions {
			fmt.Fprintf(w, "%12.1f", sim.IntraUSRTTms[i][j])
		}
		fmt.Fprintln(w)
	}
}

// --- Fig. 5: latency vs throughput under increasing load ---

// LoadPoint is one point of the latency/throughput curve.
type LoadPoint struct {
	Load       float64 // offered tx/s
	Throughput float64 // committed tx/s over the steady window
	MeanLat    time.Duration
	P99        time.Duration
}

// Fig5Config parameterizes the load sweep.
type Fig5Config struct {
	N        int
	Loads    []float64 // offered loads; zero = paper-like default sweep
	Duration time.Duration
	Seed     uint64
}

// fig5LatCutoff stops a system's sweep once mean latency exceeds it,
// past the paper's plotted range.
const fig5LatCutoff = 4 * time.Second

func (c *Fig5Config) fill() {
	if c.N == 0 {
		c.N = 4
	}
	if len(c.Loads) == 0 {
		c.Loads = []float64{10e3, 25e3, 50e3, 100e3, 150e3, 200e3, 220e3, 240e3, 260e3}
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Fig5 sweeps offered load and measures steady-state latency/throughput
// for each system (the paper's Figure 5).
func Fig5(cfg Fig5Config) map[System][]LoadPoint {
	cfg.fill()
	out := make(map[System][]LoadPoint)
	for _, sys := range AllSystems {
		for _, load := range cfg.Loads {
			p := MeasurePoint(sys, cfg.N, load, cfg.Duration, cfg.Seed)
			out[sys] = append(out[sys], p)
			if p.MeanLat > fig5LatCutoff {
				break // saturated: later points only get worse
			}
		}
	}
	return out
}

// MeasurePoint runs one (system, n, load) cell and returns its steady
// window measurements. The first and last fifths of the run are excluded
// as warmup/drain.
func MeasurePoint(sys System, n int, load float64, duration time.Duration, seed uint64) LoadPoint {
	c := Build(ClusterConfig{System: sys, N: n, Seed: seed})
	c.RunLoad(load, 0, duration, duration+10*time.Second)
	warm := duration / 5
	p := LoadPoint{
		Load:       load,
		Throughput: c.Recorder.Throughput(warm, duration-warm),
		MeanLat:    c.Recorder.MeanLatency(warm, duration-warm),
		P99:        c.Recorder.Percentile(0.99),
	}
	if p.MeanLat == 0 {
		// Nothing committed in the window: report as saturated.
		p.MeanLat = time.Hour
	}
	return p
}

// PrintFig5 renders the sweep like the paper's Figure 5 series.
func PrintFig5(w io.Writer, res map[System][]LoadPoint) {
	fmt.Fprintf(w, "%-10s %12s %14s %12s %12s\n", "system", "load(tx/s)", "tput(tx/s)", "mean(ms)", "p99(ms)")
	for _, sys := range AllSystems {
		for _, p := range res[sys] {
			fmt.Fprintf(w, "%-10s %12.0f %14.0f %12.1f %12.1f\n",
				sys, p.Load, p.Throughput, ms(p.MeanLat), ms(p.P99))
		}
	}
}

// --- Fig. 6: peak throughput scaling with n ---

// PeakPoint is the peak sustainable throughput of one (system, n) cell,
// annotated with the latency at peak (the numbers atop the paper's bars).
type PeakPoint struct {
	Peak      float64
	LatAtPeak time.Duration
}

// fig6LatBound is the latency cap defining "peak" (the paper bounds
// latency at 2s).
const fig6LatBound = 2 * time.Second

// Fig6Config parameterizes the scaling experiment.
type Fig6Config struct {
	Ns       []int
	Duration time.Duration
	Seed     uint64
	// Loads is the candidate load ladder searched for the peak.
	Loads []float64
}

func (c *Fig6Config) fill() {
	if len(c.Ns) == 0 {
		c.Ns = []int{4, 12, 20}
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Loads) == 0 {
		c.Loads = []float64{1.5e3, 5e3, 10e3, 15e3, 20e3, 30e3, 50e3, 75e3, 100e3,
			125e3, 150e3, 175e3, 200e3, 220e3, 240e3, 260e3}
	}
}

// Fig6 finds, per system and committee size, the highest offered load the
// system sustains (committed throughput >= 90% of offered, mean latency
// within the bound), reporting throughput and latency at that peak.
func Fig6(cfg Fig6Config) map[int]map[System]PeakPoint {
	cfg.fill()
	out := make(map[int]map[System]PeakPoint)
	for _, n := range cfg.Ns {
		out[n] = make(map[System]PeakPoint)
		for _, sys := range AllSystems {
			out[n][sys] = peakSearch(sys, n, cfg)
		}
	}
	return out
}

func peakSearch(sys System, n int, cfg Fig6Config) PeakPoint {
	var best PeakPoint
	for _, load := range cfg.Loads {
		p := MeasurePoint(sys, n, load, cfg.Duration, cfg.Seed)
		if p.MeanLat <= fig6LatBound && p.Throughput >= 0.9*load {
			if p.Throughput > best.Peak {
				best = PeakPoint{Peak: p.Throughput, LatAtPeak: p.MeanLat}
			}
			continue
		}
		break // saturated; the ladder is increasing
	}
	return best
}

// PrintFig6 renders the peak table like the paper's Figure 6 bars.
func PrintFig6(w io.Writer, res map[int]map[System]PeakPoint, ns []int) {
	if len(ns) == 0 {
		ns = []int{4, 12, 20}
	}
	fmt.Fprintf(w, "%-10s", "system")
	for _, n := range ns {
		fmt.Fprintf(w, "%16s", fmt.Sprintf("n=%d peak", n))
		fmt.Fprintf(w, "%12s", "lat(ms)")
	}
	fmt.Fprintln(w)
	for _, sys := range AllSystems {
		fmt.Fprintf(w, "%-10s", sys)
		for _, n := range ns {
			p := res[n][sys]
			fmt.Fprintf(w, "%16.0f%12.0f", p.Peak, ms(p.LatAtPeak))
		}
		fmt.Fprintln(w)
	}
}

// --- §6.1 ablation: fast path & optimistic tips ---

// AblationResult reports Autobahn's latency under the four toggle
// combinations at a fixed load (the paper reports +40ms without the fast
// path and +33ms with certified-only tips).
type AblationResult struct {
	Full          time.Duration // fast path + optimistic tips
	NoFastPath    time.Duration
	CertifiedTips time.Duration
	Neither       time.Duration
	// WeakVotes is the §5.5.2 refinement on top of the full configuration.
	WeakVotes time.Duration
}

// Ablation measures the §6.1 optimization deltas (plus the §5.5.2
// weak-vote refinement).
func Ablation(n int, load float64, duration time.Duration, seed uint64) AblationResult {
	run := func(noFast, noTips, weak bool) time.Duration {
		c := Build(ClusterConfig{
			System: Autobahn, N: n, Seed: seed,
			FastPathOff: noFast, OptimisticTipsOff: noTips, WeakVotes: weak,
		})
		c.RunLoad(load, 0, duration, duration+5*time.Second)
		warm := duration / 5
		return c.Recorder.MeanLatency(warm, duration-warm)
	}
	return AblationResult{
		Full:          run(false, false, false),
		NoFastPath:    run(true, false, false),
		CertifiedTips: run(false, true, false),
		Neither:       run(true, true, false),
		WeakVotes:     run(false, false, true),
	}
}

// PrintAblation renders the ablation table.
func PrintAblation(w io.Writer, r AblationResult) {
	fmt.Fprintf(w, "%-34s %10s %10s\n", "configuration", "mean(ms)", "delta(ms)")
	fmt.Fprintf(w, "%-34s %10.1f %10s\n", "fast path + optimistic tips", ms(r.Full), "-")
	fmt.Fprintf(w, "%-34s %10.1f %+10.1f\n", "slow path (fast path off)", ms(r.NoFastPath), ms(r.NoFastPath-r.Full))
	fmt.Fprintf(w, "%-34s %10.1f %+10.1f\n", "certified tips only", ms(r.CertifiedTips), ms(r.CertifiedTips-r.Full))
	fmt.Fprintf(w, "%-34s %10.1f %+10.1f\n", "neither optimization", ms(r.Neither), ms(r.Neither-r.Full))
	fmt.Fprintf(w, "%-34s %10.1f %+10.1f\n", "full + weak votes (§5.5.2)", ms(r.WeakVotes), ms(r.WeakVotes-r.Full))
}

// --- Figs. 1, 7: leader-failure blips & hangovers ---

// BlipResult captures one blip experiment: the latency-vs-request-start
// series plus the §2.1 hangover analysis.
type BlipResult struct {
	System    System
	Load      float64
	FaultFrom time.Duration
	FaultTo   time.Duration
	// Baseline is the pre-blip steady-state mean latency.
	Baseline time.Duration
	// BlipEnd estimates when commits resumed (end of the blip proper).
	BlipEnd time.Duration
	// Hangover is how long past BlipEnd per-second mean latency stayed
	// above 2x baseline: a request backlog being worked off, the paper's
	// hangover (§2.1).
	Hangover time.Duration
	// Plateau is how long past BlipEnd per-second mean latency stayed
	// above 1.25x baseline. A recovering replica that is still ingesting
	// what it missed cannot vote on fresh tips in time, so every slot it
	// does not lead loses the fast path (+1 WAN round + fastPathWait):
	// well under 2x, invisible to Hangover, and over only when the
	// replica has caught up. With single-copy catch-up (DESIGN.md §1.14)
	// that takes missed bytes / ingest headroom; before it, the plateau
	// ran to the end of the load.
	Plateau time.Duration
	// PeakLat is the worst per-second latency during/after the blip.
	PeakLat time.Duration
	Series  []metrics.SeriesPoint
	Total   uint64
}

// blipCrashNode is the replica a blip experiment crashes.
const blipCrashNode types.NodeID = 1

// BlipConfig parameterizes a leader-failure blip run.
type BlipConfig struct {
	System System
	N      int
	Load   float64
	// Timeout is the view timeout (1s or 5s in Fig. 7).
	Timeout time.Duration
	// StableLeaders selects the paper's single-timeout scenarios; the
	// default rotating regime produces the "Dbl" double timeout.
	StableLeaders bool
	// CrashFrom/CrashFor crash blipCrashNode (default: 10s, long
	// enough to cover the relevant leadership moments).
	CrashFrom time.Duration
	CrashFor  time.Duration
	Duration  time.Duration
	Seed      uint64
}

func (c *BlipConfig) fill() {
	if c.N == 0 {
		c.N = 4
	}
	if c.Timeout == 0 {
		c.Timeout = time.Second
	}
	if c.CrashFrom == 0 {
		c.CrashFrom = 10 * time.Second
	}
	if c.CrashFor == 0 {
		c.CrashFor = 1500 * time.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RunBlip crashes one replica mid-run and analyzes the hangover.
func RunBlip(cfg BlipConfig) BlipResult {
	cfg.fill()
	faults := (&sim.FaultSchedule{}).AddDown(blipCrashNode, cfg.CrashFrom, cfg.CrashFrom+cfg.CrashFor)
	return runBlipWith(cfg, faults)
}

// RunRestartBlip crashes one Autobahn replica mid-run and restarts its
// process at the end of the down window — rebuilt from its journal, or
// blank when amnesia is set — then analyzes the blip exactly like
// RunBlip. This is the recovery analog of Fig. 7: the restarted replica
// must rejoin without a safety violation and without a hangover beyond
// the down window.
func RunRestartBlip(cfg BlipConfig, amnesia bool) BlipResult {
	cfg.System = Autobahn
	cfg.fill()
	faults := (&sim.FaultSchedule{}).
		AddDown(blipCrashNode, cfg.CrashFrom, cfg.CrashFrom+cfg.CrashFor).
		Restart(blipCrashNode, cfg.CrashFrom+cfg.CrashFor, amnesia)
	return runBlipWith(cfg, faults)
}

func runBlipWith(cfg BlipConfig, faults *sim.FaultSchedule) BlipResult {
	c := Build(ClusterConfig{
		System:        cfg.System,
		N:             cfg.N,
		Seed:          cfg.Seed,
		ViewTimeout:   cfg.Timeout,
		StableLeaders: cfg.StableLeaders,
		Faults:        faults,
	})
	c.RunLoad(cfg.Load, 0, cfg.Duration, cfg.Duration+15*time.Second)

	rec := c.Recorder
	baseline := rec.MeanLatency(2*time.Second, cfg.CrashFrom-time.Second)
	blipEnd := commitResumeTime(rec, cfg.CrashFrom)
	// The blip lasts at least until the fault clears; a seamless system
	// may never fully stall commits, which would under-report the end.
	if faultEnd := cfg.CrashFrom + cfg.CrashFor; blipEnd < faultEnd {
		blipEnd = faultEnd
	}
	res := BlipResult{
		System:    cfg.System,
		Load:      cfg.Load,
		FaultFrom: cfg.CrashFrom,
		FaultTo:   cfg.CrashFrom + cfg.CrashFor,
		Baseline:  baseline,
		BlipEnd:   blipEnd,
		Hangover:  rec.Hangover(blipEnd, baseline, 2.0),
		Plateau:   rec.Hangover(blipEnd, baseline, 1.25),
		Series:    rec.ArrivalSeries(),
		Total:     rec.Total(),
	}
	for _, p := range res.Series {
		if p.MeanLat > res.PeakLat {
			res.PeakLat = p.MeanLat
		}
	}
	return res
}

// commitResumeTime finds when per-second committed throughput first
// returns to a nonzero level after a stall that begins within a few
// seconds of the fault. Seamless systems may never fully stall (parallel
// slots keep committing); then the blip end is the fault start itself.
func commitResumeTime(rec *metrics.Recorder, faultStart time.Duration) time.Duration {
	commits := rec.CommitSeries()
	start := int(faultStart / time.Second)
	stalled := -1
	for s := start; s < len(commits) && s < start+5; s++ {
		if commits[s] == 0 {
			stalled = s
			break
		}
	}
	if stalled < 0 {
		return faultStart
	}
	for s := stalled; s < len(commits); s++ {
		if commits[s] > 0 {
			return time.Duration(s) * time.Second
		}
	}
	return faultStart
}

// PrintBlip renders a blip run: header plus the per-second series the
// paper plots (latency by request start time).
func PrintBlip(w io.Writer, r BlipResult, maxSec int) {
	fmt.Fprintf(w, "%s @ %.0f tx/s: fault [%.0fs,%.0fs) baseline=%.0fms peak=%.1fs resume=%.0fs hangover=%.1fs plateau=%.1fs total=%d\n",
		r.System, r.Load, r.FaultFrom.Seconds(), r.FaultTo.Seconds(),
		ms(r.Baseline), r.PeakLat.Seconds(), r.BlipEnd.Seconds(), r.Hangover.Seconds(), r.Plateau.Seconds(), r.Total)
	for _, p := range r.Series {
		if p.Second > maxSec {
			break
		}
		bar := int(p.MeanLat / (100 * time.Millisecond))
		if bar > 60 {
			bar = 60
		}
		fmt.Fprintf(w, "  t=%3ds lat=%8.1fms |%s\n", p.Second, ms(p.MeanLat), stars(bar))
	}
}

// --- Fig. 8: partial partition ---

// PartitionResult captures the Fig. 8 experiment for one system.
type PartitionResult struct {
	System System
	// RecoverySecs is how long after heal until per-second latency (by
	// request start) returns to <= 2x the pre-partition baseline.
	Recovery time.Duration
	// WorstInBlip is the worst latency experienced by transactions
	// arriving during the partition.
	WorstInBlip time.Duration
	Baseline    time.Duration
	Total       uint64
	Series      []metrics.SeriesPoint
}

// PartitionConfig parameterizes the Fig. 8 run.
type PartitionConfig struct {
	System   System
	N        int
	Load     float64
	From, To time.Duration
	Duration time.Duration
	Seed     uint64
}

func (c *PartitionConfig) fill() {
	if c.N == 0 {
		c.N = 4
	}
	if c.Load == 0 {
		c.Load = 15e3
	}
	if c.From == 0 {
		c.From = 10 * time.Second
	}
	if c.To == 0 {
		c.To = 30 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 50 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// buildPartitionCluster constructs the Fig. 8 deployment without load.
func buildPartitionCluster(cfg PartitionConfig) *Cluster {
	half := make([]types.NodeID, 0, cfg.N/2)
	for i := cfg.N / 2; i < cfg.N; i++ {
		half = append(half, types.NodeID(i))
	}
	faults := (&sim.FaultSchedule{}).SplitPartition(cfg.N, half, cfg.From, cfg.To)
	return Build(ClusterConfig{System: cfg.System, N: cfg.N, Seed: cfg.Seed, Faults: faults})
}

// RunPartition splits the committee in half for [From, To) and measures
// backlog recovery (the paper's Figure 8).
func RunPartition(cfg PartitionConfig) PartitionResult {
	cfg.fill()
	c := buildPartitionCluster(cfg)
	c.RunLoad(cfg.Load, 0, cfg.Duration, cfg.Duration+30*time.Second)

	rec := c.Recorder
	baseline := rec.MeanLatency(2*time.Second, cfg.From-time.Second)
	res := PartitionResult{
		System:   cfg.System,
		Baseline: baseline,
		Total:    rec.Total(),
		Series:   rec.ArrivalSeries(),
	}
	healSec := int(cfg.To / time.Second)
	last := healSec
	for _, p := range res.Series {
		if p.Second >= int(cfg.From/time.Second) && p.Second < healSec && p.MeanLat > res.WorstInBlip {
			res.WorstInBlip = p.MeanLat
		}
		if p.Second >= healSec && p.Committed > 0 && p.MeanLat > 2*baseline+100*time.Millisecond {
			last = p.Second + 1
		}
	}
	res.Recovery = time.Duration(last-healSec) * time.Second
	return res
}

// PrintPartition renders the partition run summary.
func PrintPartition(w io.Writer, r PartitionResult) {
	fmt.Fprintf(w, "%-10s baseline=%6.0fms worstInBlip=%6.1fs recoveryAfterHeal=%5.1fs committed=%d\n",
		r.System, ms(r.Baseline), r.WorstInBlip.Seconds(), r.Recovery.Seconds(), r.Total)
}

// --- helpers ---

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '*'
	}
	return string(s)
}
