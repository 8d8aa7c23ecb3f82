package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	autobahn "repro"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/types"
)

// sim_wan_blip runs the paper's WAN (Table 1) in virtual time with
// R = -seconds (30 by default) and F = R + phase:
//
//	load        [0, 2R) at 200 000 tx/s x 512 B, synthetic batches
//	good        [0.1R, 0.95R)
//	replica 1   down for [F, F + 1.5)
//	blip        [F, F + 3.5)
//	recovered   [F + 6.5, 2R)
//	run ends    2R + 15, or later: when the crashed replica has caught up
//
// Below R = 20 the fixed lengths shrink in proportion.
//
// Windows select batches by mean arrival time. One seed gives one event
// order, so every virtual-time number repeats exactly.
//
// What a crash costs depends on which replica leads the slot it lands in:
// leaders rotate every ~50 ms, and sliding the crash by 25 ms moves
// rejoin_s between 1 s and 36 s. One crash time is therefore a lottery
// ticket, not a measurement. The workload sweeps the crash over simPhases
// offsets, one full run each, and reports the mean of each fault metric:
// its expected value for a crash at a random moment. fault.rejoin_s alone
// is the median over the phases: its two modes are 40x apart, and the
// mean of such a coin needs four times the phases to settle.
const (
	simRate      = 200000
	simN         = 4
	simVictim    = types.NodeID(1)
	simLoadEnd   = 2.0
	simGoodFrom  = 0.1
	simGoodTo    = 0.95
	simDownFrom  = 1.0
	simDownLen   = 1.5  // seconds
	simBlipLen   = 3.5  // seconds
	simRecAfter  = 6.5  // seconds
	simDrain     = 15.0 // seconds the run continues past the load
	simPhases    = 32
	simPhaseStep = 25 * time.Millisecond
	// simRunCap bounds the wait for the crashed replica to catch up.
	simRunCap = 8.0
)

// simTimes are one run's fixed lengths, in seconds.
type simTimes struct{ down, blip, recAfter, runEnd, phaseStep float64 }

func newSimTimes(R float64) simTimes {
	scale := math.Min(1, R/20)
	return simTimes{
		down: simDownLen * scale, blip: simBlipLen * scale, recAfter: simRecAfter * scale,
		runEnd:    simLoadEnd*R + simDrain*scale,
		phaseStep: simPhaseStep.Seconds() * scale,
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// vt is a share of R as virtual time.
func vt(share, R float64) time.Duration { return secs(share * R) }

// simCollector sees every replica's commits.
type simCollector struct {
	oracle  *harness.CommitInterceptor
	slots   [simN]types.Slot
	samples []sample  // replica 0, one per batch
	commits []float64 // replica 0 commit times, seconds
	healS   float64
	rejoinS float64
	// Batch-level stamps within the good window, for the per-layer view.
	goodFrom, goodTo float64
	wait, sealTo     []sample
	spreads          []sample
	first            map[[2]uint64]float64
	seen             map[[2]uint64]int
}

func (c *simCollector) onCommit(cm autobahn.Committed) {
	at := cm.At.Seconds()
	c.oracle.Record(cm.Replica, cm.Lane, cm.Position, cm.Batch.Digest(), cm.AppHash)
	c.slots[cm.Replica] = cm.Slot
	w := float64(cm.Batch.Count)
	if cm.Replica == 0 {
		c.samples = append(c.samples, sample{
			dueS:   cm.Batch.MeanArrival.Seconds(),
			latMs:  float64(cm.At-cm.Batch.MeanArrival) / 1e6,
			weight: w,
		})
		c.commits = append(c.commits, at)
	}
	if cm.Replica == simVictim && c.rejoinS == 0 && at >= c.healS && cm.Slot+2 >= c.slots[0] {
		c.rejoinS = at - c.healS
	}
	if at < c.goodFrom || at >= c.goodTo {
		return
	}
	if cm.Replica == cm.Lane {
		c.wait = append(c.wait, sample{latMs: float64(cm.Batch.CreatedAt-cm.Batch.MeanArrival) / 1e6, weight: w})
		c.sealTo = append(c.sealTo, sample{latMs: float64(cm.At-cm.Batch.CreatedAt) / 1e6, weight: w})
	}
	key := [2]uint64{uint64(cm.Lane), uint64(cm.Position)}
	if c.seen[key] == 0 {
		c.first[key] = at
	}
	c.seen[key]++
	if c.seen[key] == simN {
		c.spreads = append(c.spreads, sample{latMs: (at - c.first[key]) * 1e3, weight: 1})
		delete(c.first, key)
		delete(c.seen, key)
	}
}

// settled reports whether every replica has committed up to one slot.
func (c *simCollector) settled() bool {
	for _, s := range c.slots {
		if s != c.slots[0] {
			return false
		}
	}
	return true
}

// newSim builds the deployment and installs the load. crashAt < 0 means
// no fault.
func newSim(seed uint64, R float64, crashAt time.Duration) (*autobahn.SimCluster, *simCollector) {
	col := &simCollector{
		oracle:   harness.NewCommitInterceptor(),
		first:    make(map[[2]uint64]float64),
		seen:     make(map[[2]uint64]int),
		goodFrom: simGoodFrom * R,
		goodTo:   simGoodTo * R,
	}
	var faults *sim.FaultSchedule
	if crashAt >= 0 {
		heal := crashAt + secs(newSimTimes(R).down)
		col.healS = heal.Seconds()
		faults = (&sim.FaultSchedule{}).AddDown(simVictim, crashAt, heal)
	}
	c := autobahn.NewSimCluster(autobahn.SimOptions{
		Options:  autobahn.Options{N: simN, Seed: seed, ViewTimeout: time.Second},
		Faults:   faults,
		OnCommit: col.onCommit,
		Horizon:  vt(simRunCap, R) + time.Minute,
	})
	c.SubmitLoad(simRate, txBytes, 0, vt(simLoadEnd, R))
	return c, col
}

func simCounters(c *autobahn.SimCluster) counters {
	m := make(counters)
	for _, id := range c.Nodes() {
		nodeCounters(m, id, c.Node(id))
	}
	return m
}

// simOutcome is what one simulator run produced.
type simOutcome struct {
	virtual map[string]metricValue // end-to-end, virtual time
	layers  counters
	attempt int
	failed  int
	setupS  float64 // wall: construction and the virtual warm-up
	cpuS    float64 // process CPU for the whole run
	heap    [2]uint64
}

// simOnce runs the whole scenario once, with the crash phase later than
// its nominal time.
func simOnce(seed uint64, R float64, phase time.Duration) (*simOutcome, error) {
	wall0, cpu0, heap0 := nowNs(), cpuNs(), heapAllocs()
	crash := vt(simDownFrom, R) + phase
	F, tm := crash.Seconds(), newSimTimes(R)
	c, col := newSim(seed, R, crash)

	// Counter snapshots at the window edges, and the fast-path tally
	// (the engine only retains recent decisions), ride on the event queue.
	var good0, good1, fault0 counters
	c.Engine.At(vt(simGoodFrom, R), func() { good0 = simCounters(c) })
	c.Engine.At(vt(simGoodTo, R), func() { good1 = simCounters(c) })
	c.Engine.At(crash, func() { fault0 = simCounters(c) })
	var fast, decided float64
	var tallied types.Slot
	c.Engine.Every(time.Second, time.Second, vt(simRunCap, R), func(time.Duration) {
		eng := c.Node(0).Engine()
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
	c.Engine.Run(vt(simGoodFrom, R))
	out := &simOutcome{setupS: float64(nowNs()-wall0) / 1e9}
	c.Engine.Run(secs(tm.runEnd))
	for end := tm.runEnd; !col.settled() && end < simRunCap*R; end++ {
		c.Engine.Run(secs(end))
	}
	end := simCounters(c)
	out.cpuS = float64(cpuNs()-cpu0) / 1e9
	heap1 := heapAllocs()
	out.heap = [2]uint64{heap1[0] - heap0[0], heap1[1] - heap0[1]}

	if v := col.oracle.Violation(); v != "" {
		return nil, violation("safety oracle: " + v)
	}
	if !col.settled() {
		return nil, violation(fmt.Sprintf("replicas ended on different slot frontiers: %v", col.slots))
	}
	if col.rejoinS == 0 {
		return nil, violation("the crashed replica never caught up")
	}

	out.attempt = int(simRate * simLoadEnd * R)
	var inTime float64
	for _, s := range col.samples {
		limit := steadyDeadline
		if s.dueS >= simGoodTo*R {
			limit = faultDeadline
		}
		if s.latMs <= float64(limit)/1e6 {
			inTime += s.weight
		}
	}
	out.failed = out.attempt - int(inTime)

	good := window(col.samples, simGoodFrom*R, simGoodTo*R)
	var committedGood float64
	for i, t := range col.commits {
		if t >= simGoodFrom*R && t < simGoodTo*R {
			committedGood += col.samples[i].weight
		}
	}
	sort.Float64s(col.commits)
	blip := window(col.samples, F, F+tm.blip)
	rec := window(col.samples, F+tm.recAfter, simLoadEnd*R)
	out.virtual = map[string]metricValue{
		"commit_p50_ms":    {weightedPercentile(good, 0.50), int(totalWeight(good))},
		"commit_p99_ms":    {weightedPercentile(good, 0.99), int(totalWeight(good))},
		"committed_tps":    {committedGood / ((simGoodTo - simGoodFrom) * R), int(committedGood)},
		"blip_unavail_s":   {longestGap(col.commits, F, F+tm.blip), 0},
		"recovered_p50_ms": {weightedPercentile(rec, 0.50), int(totalWeight(rec))},
	}

	st, ft := good1.minus(good0), end.minus(fault0)
	S := (simGoodTo - simGoodFrom) * R
	tx := st["core.tx_ordered0"]
	out.layers = counters{
		"core.cars_per_s":             st["core.cars"] / S,
		"core.txs_per_car":            ratio(tx, st["core.cars"]),
		"core.slots_per_s":            st["core.slots0"] / S,
		"core.txs_per_slot":           ratio(tx, st["core.slots0"]),
		"core.votes_per_batch":        ratio(st["core.votes"], st["core.cars"]),
		"core.timeouts_sent":          ft["core.timeouts"],
		"consensus.view_changes":      ft["core.timeouts"] / simN,
		"consensus.fast_commit_ratio": ratio(fast, decided),
		"fetch.sync_requests":         ft["fetch.sync_requests"],
		"fetch.sync_replies_served":   ft["fetch.sync_replies_served"],
		"fetch.snapshots_installed":   ft["fetch.snapshots_installed"],
		"mempool.wait_ms":             weightedMean(col.wait),
		"mempool.txs_per_batch":       ratio(totalWeight(col.wait), float64(len(col.wait))),
		"core.seal_to_commit_ms":      weightedPercentile(col.sealTo, 0.5),
		"core.commit_spread_ms":       weightedPercentile(col.spreads, 0.5),
		"fault.blip_mean_ms":          weightedMean(blip),
		"fault.rejoin_s":              col.rejoinS,
	}
	return out, nil
}

// faultMetrics are averaged over the crash phases; the rest are the same
// in every phase, because the crash comes after the good window.
var faultMetrics = []string{"blip_unavail_s", "recovered_p50_ms"}

func runSim(o options, res *result) error {
	R := o.seconds
	var first *simOutcome
	var setups, cpus []float64
	perPhase := map[string][]float64{}
	step := newSimTimes(R).phaseStep
	for p := 0; p < simPhases; p++ {
		out, err := simOnce(o.seed, R, secs(float64(p)*step))
		if err != nil {
			return err
		}
		setups = append(setups, out.setupS)
		cpus = append(cpus, out.cpuS)
		res.failed += out.failed
		res.attempted += out.attempt
		for _, name := range faultMetrics {
			perPhase[name] = append(perPhase[name], out.virtual[name].v)
		}
		for _, name := range []string{"fault.blip_mean_ms", "fault.rejoin_s"} {
			perPhase[name] = append(perPhase[name], out.layers[name])
		}
		if first == nil {
			first = out
		}
	}
	// One seed, one answer: phase 0 again must reproduce phase 0 exactly.
	again, err := simOnce(o.seed, R, 0)
	if err != nil {
		return err
	}
	if a, b := fmt.Sprint(first.virtual, first.failed), fmt.Sprint(again.virtual, again.failed); a != b {
		return violation(fmt.Sprintf("two runs with seed %d disagree:\n  %s\n  %s", o.seed, a, b))
	}
	for name, v := range first.virtual {
		res.metrics[name] = v
	}
	for _, name := range faultMetrics {
		res.set(name, mean(perPhase[name]), simPhases)
	}
	res.set("setup_s", median(setups), len(setups))
	// Interference from neighbours only ever adds CPU time to a fixed
	// computation, so the lower quartile over the phases is the estimate.
	txs := float64(first.attempt - first.failed)
	res.layer("process.cpu_us_per_tx", quartiles(cpus)[0]*1e6/txs)
	res.layer("process.alloc_bytes_per_tx", float64(first.heap[0])/txs)
	res.layer("process.allocs_per_tx", float64(first.heap[1])/txs)
	res.set("peak_rss_mb", peakRSSMB(), 0)
	res.layer("fault.blip_mean_ms", mean(perPhase["fault.blip_mean_ms"]))
	res.layer("fault.rejoin_s", median(perPhase["fault.rejoin_s"]))
	if o.trace {
		for name, v := range first.layers {
			if _, swept := perPhase[name]; !swept {
				res.layer(name, v)
			}
		}
		res.layer("trace.commit_p50_ms", first.virtual["commit_p50_ms"].v)
	}
	return nil
}

// simFaultFree runs the same deployment with no fault for 300 virtual
// seconds: the single-threaded cost of the protocol handlers with
// cryptography and I/O modelled out.
func simFaultFree(seed uint64, res *result) {
	const virtualS = 300
	c, col := newSim(seed, virtualS/simLoadEnd, -1)
	t0 := nowNs()
	events := c.Engine.Run(virtualS * time.Second)
	wallNs := float64(nowNs() - t0)
	msgs, _ := c.Engine.Stats()
	txs := totalWeight(col.samples)
	res.layer("core.handler_us_per_event", wallNs/1e3/float64(events))
	res.layer("sim.events_per_tx", ratio(float64(events), txs))
	res.layer("sim.msgs_per_tx", ratio(float64(msgs), txs))
	res.layer("sim.wall_ms_per_virtual_s", wallNs/1e6/virtualS)
}
