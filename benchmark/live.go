package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	autobahn "repro"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/types"
)

// Live workloads share one timeline, in seconds from the start of the
// measured run (R = -seconds, 30 by default):
//
//	[-2, 0)              warm-up, on schedule but not measured
//	[0, 0.6R)            steady window                      [0, 18)
//	0.6R + 0.5           fault injected                     18.5
//	+ 1.5                fault cleared                      20
//	[fault, clear + 2)   blip window                        [18.5, 22)
//	[0.8R, R)            recovered window                   [24, 30)
//
// Windows select transactions by due time. Below R = 20 the fixed
// lengths shrink in proportion.
const (
	liveWarmup   = 2 * time.Second
	steadyShare  = 0.6
	recoverShare = 0.8
	faultGap     = 0.5 // seconds between the steady window and the fault
	faultLen     = 1.5
	blipTail     = 2.0
	subWindows   = 5
	cpuParts     = 6
	// A transaction due in the steady window must commit within
	// steadyDeadline of its due time, one due after it within
	// faultDeadline; otherwise it is a failed operation.
	steadyDeadline = time.Second
	faultDeadline  = 10 * time.Second
	// traceSample is the share of transactions a traced run follows.
	traceSample = 64
	// lateLimitMs invalidates a run whose generator was this late at the
	// 99th percentile of the steady window: a starved generator closes the
	// open loop.
	lateLimitMs = 25.0
	// cpuCeiling is the share of all cores above which queueing, not the
	// code under test, starts to set latency.
	cpuCeiling = 0.75
)

type timeline struct {
	run, steadyEnd, faultAt, healAt, blipEnd, recoverStart float64 // seconds
}

func newTimeline(seconds float64) timeline {
	scale := math.Min(1, seconds/20)
	t := timeline{run: seconds, steadyEnd: steadyShare * seconds, recoverStart: recoverShare * seconds}
	t.faultAt = t.steadyEnd + faultGap*scale
	t.healAt = t.faultAt + faultLen*scale
	t.blipEnd = t.healAt + blipTail*scale
	return t
}

// liveSpec is what distinguishes one live workload from another.
type liveSpec struct {
	name     string
	rate     int64
	txSize   int
	n        int
	victim   types.NodeID
	ackBased bool // committed means the client saw the ack
	build    func(seed uint64, dir string, r *liveRun) (*liveCluster, error)
}

// liveCluster is a started deployment and the handles the run needs.
type liveCluster struct {
	// submit has one entry per generator goroutine.
	submit []func(k int64, tx []byte) error
	// probe submits one off-schedule transaction through the same door.
	probe func(tx []byte) error
	// inject starts the fault, heal clears it.
	inject func() error
	heal   func() error
	// counters sums the public snapshots over every replica.
	counters func() counters
	// stop shuts everything down and waits for it.
	stop func()
	// finish reads what is only safe to read once stopped.
	finish func(m counters)
}

type counters map[string]float64

func (c counters) minus(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// batchStat is one own-lane batch as its origin replica committed it.
type batchStat struct {
	commitNs int64
	sealToNs int64 // Committed.At − Batch.CreatedAt
	count    uint32
}

// liveRun holds one deployment's observers: the oracle, the transaction
// log, and (traced) the span sources.
type liveRun struct {
	spec   liveSpec
	traced bool
	log    *txLog
	oracle *harness.CommitInterceptor
	slots  []atomic.Uint64 // latest committed slot per replica
	probed chan struct{}   // a probe transaction reached its outcome

	healNs   atomic.Int64
	rejoinNs atomic.Int64

	// seqK maps a gateway client's sequence number to the schedule index.
	seqK [][]atomic.Int64

	// Traced state. epoch[i] and stats[i] are written only by replica
	// i's observer.
	epoch    []epochOffset
	stats    [][]batchStat
	spreadMu sync.Mutex
	spread   map[[2]uint64]*[3]int64 // (lane, pos) -> first, last, replicas seen
}

func newLiveRun(spec liveSpec, sched schedule, traced bool) *liveRun {
	every := int64(0)
	if traced {
		every = traceSample
	}
	return &liveRun{
		spec:   spec,
		traced: traced,
		log:    newTxLog(sched, spec.ackBased, every),
		oracle: harness.NewCommitInterceptor(),
		slots:  make([]atomic.Uint64, spec.n),
		probed: make(chan struct{}, 4),
		epoch:  make([]epochOffset, spec.n),
		stats:  make([][]batchStat, spec.n),
		spread: make(map[[2]uint64]*[3]int64),
	}
}

// observe is replica id's commit observer. It runs on that replica's
// event loop, so it only stamps and counts.
func (r *liveRun) observe(id types.NodeID) func(autobahn.Committed) {
	return func(c autobahn.Committed) {
		now := nowNs()
		r.oracle.Record(id, c.Lane, c.Position, c.Batch.Digest(), c.AppHash)
		r.slots[id].Store(uint64(c.Slot))
		if id == 0 {
			for _, tx := range c.Batch.Txs {
				if r.log.committedAt0(tx, r.spec.txSize, now) && !r.spec.ackBased {
					r.signalProbe()
				}
			}
		}
		if id == r.spec.victim && r.rejoinNs.Load() == 0 && r.healNs.Load() != 0 &&
			uint64(c.Slot)+2 >= r.slots[0].Load() {
			r.rejoinNs.Store(now)
		}
		if !r.traced {
			return
		}
		r.epoch[id].observe(now, int64(c.At))
		r.spreadMu.Lock()
		key := [2]uint64{uint64(c.Lane), uint64(c.Position)}
		if s := r.spread[key]; s == nil {
			r.spread[key] = &[3]int64{now, now, 1}
		} else {
			s[1] = now
			s[2]++
		}
		r.spreadMu.Unlock()
		if c.Lane != id {
			return
		}
		r.stats[id] = append(r.stats[id], batchStat{
			commitNs: now,
			sealToNs: int64(c.At - c.Batch.CreatedAt),
			count:    c.Batch.Count,
		})
		te := r.log.traceEvery
		for _, tx := range c.Batch.Txs {
			k, ok := seqOf(tx, r.spec.txSize)
			if !ok || k >= uint64(r.log.sched.total) || int64(k)%te != 0 {
				continue
			}
			i := int64(k) / te
			r.log.sealedLoc[i] = int64(c.Batch.CreatedAt)
			r.log.originNs[i] = now
			r.log.originOf[i] = int32(id)
		}
	}
}

func (r *liveRun) signalProbe() {
	select {
	case r.probed <- struct{}{}:
	default:
	}
}

// outcome is gateway client g's terminal-outcome callback.
func (r *liveRun) outcome(g int) func(gateway.Outcome) {
	return func(o gateway.Outcome) {
		now := nowNs()
		if o.Seq == 1 { // the client's first submission is the probe
			if o.Committed {
				r.signalProbe()
			}
			return
		}
		if !o.Committed {
			r.log.refused.Add(1)
			return
		}
		if o.Seq >= uint64(len(r.seqK[g])) {
			r.log.unknown.Add(1)
			return
		}
		k := r.seqK[g][o.Seq].Load()
		if !r.log.ackNs[k].CompareAndSwap(0, now) {
			r.log.dups.Add(1)
		}
	}
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapAllocs returns the bytes and objects allocated on the heap so far.
func heapAllocs() [2]uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sleepUntil(ns int64) {
	if d := ns - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// setUp builds and starts a deployment and pushes one probe transaction
// through it, returning how long that took.
func setUp(spec liveSpec, seed uint64, dir string, run *liveRun) (*liveCluster, float64, error) {
	t0 := nowNs()
	c, err := spec.build(seed, dir, run)
	if err != nil {
		return nil, 0, err
	}
	var once sync.Once
	stop := c.stop
	c.stop = func() { once.Do(stop) }
	if err := c.probe(probeTx(spec.txSize)); err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("probe refused: %w", err)
	}
	select {
	case <-run.probed:
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, 0, errors.New("probe transaction did not commit within 30 s")
	}
	return c, float64(nowNs()-t0) / 1e9, nil
}

const setupReps = 5

// liveRaw is what one run's timeline recorded, before any arithmetic.
type liveRaw struct {
	tl        timeline
	at        func(s float64) int64 // seconds of the measured run -> clock
	total     int64                 // scheduled transactions, warm-up included
	setups    []float64
	cpuAt     []int64   // process CPU at the edges of the steady window's parts
	heap      [2]uint64 // bytes, objects allocated over the steady window
	rssMB     float64   // max RSS when the steady window closed
	steady    counters  // counter deltas over the steady window
	fault     counters  // ... from there to the end of the run
	after     counters  // read once stopped
	healStart int64
	settled   bool // every replica ended on one slot frontier
}

// runLive executes one live workload and fills res.
func runLive(spec liveSpec, o options, res *result) error {
	raw := &liveRaw{tl: newTimeline(o.seconds)}
	raw.total = int64((liveWarmup.Seconds() + raw.tl.run) * float64(spec.rate))

	// Set-up is timed setupReps times; the last deployment is kept.
	var cl *liveCluster
	var run *liveRun
	for i := 0; i < setupReps; i++ {
		dir, err := o.scratchDir(fmt.Sprintf("%s-%d", spec.name, i))
		if err != nil {
			return err
		}
		sched := schedule{rate: spec.rate}
		if i == setupReps-1 {
			sched.total = raw.total
		}
		run = newLiveRun(spec, sched, o.trace)
		c, dt, err := setUp(spec, o.seed, dir, run)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		raw.setups = append(raw.setups, dt)
		if cl = c; i < setupReps-1 {
			c.stop()
		}
	}
	if err := drive(cl, run, o.seed, raw); err != nil {
		return err
	}
	if err := checkLive(run, raw, res); err != nil {
		return err
	}
	liveEndToEnd(run, raw, res)
	if o.trace {
		liveLayers(run, raw, res)
		if o.out != "" {
			return writeSpans(o.out, run, raw.at(0))
		}
	}
	return nil
}

// drive runs the timeline on a started deployment: generators, the steady
// window's snapshots, the fault, the drain, and the stop.
func drive(cl *liveCluster, run *liveRun, seed uint64, raw *liveRaw) error {
	defer cl.stop()
	tl := raw.tl
	start := nowNs() + int64(50*time.Millisecond)
	run.log.sched.startNs = start
	at := func(s float64) int64 { return start + int64(liveWarmup) + int64(s*1e9) }
	raw.at = at

	var wg sync.WaitGroup
	G := int64(len(cl.submit))
	for g := int64(0); g < G; g++ {
		gen := &generator{
			log: run.log, first: g, stride: G, txSize: run.spec.txSize,
			rng:    rand.New(rand.NewPCG(seed, uint64(g)+1)),
			submit: cl.submit[g],
		}
		wg.Add(1)
		go func() { defer wg.Done(); gen.run() }()
	}

	// CPU time is read at the edges of cpuParts equal parts of the steady
	// window; max RSS when it closes, before the fault can inflate it.
	sleepUntil(at(0))
	ctr0, heap0 := cl.counters(), heapAllocs()
	raw.cpuAt = []int64{cpuNs()}
	for i := 1; i <= cpuParts; i++ {
		sleepUntil(at(tl.steadyEnd * float64(i) / cpuParts))
		raw.cpuAt = append(raw.cpuAt, cpuNs())
	}
	ctr1, heap1 := cl.counters(), heapAllocs()
	raw.steady = ctr1.minus(ctr0)
	raw.heap = [2]uint64{heap1[0] - heap0[0], heap1[1] - heap0[1]}
	raw.rssMB = peakRSSMB()

	sleepUntil(at(tl.faultAt))
	if err := cl.inject(); err != nil {
		return fmt.Errorf("inject fault: %w", err)
	}
	sleepUntil(at(tl.healAt))
	raw.healStart = nowNs()
	run.healNs.Store(raw.healStart)
	if err := cl.heal(); err != nil {
		return fmt.Errorf("clear fault: %w", err)
	}
	wg.Wait()

	// Drain: every transaction reaches its outcome or its deadline, and
	// the faulted replica catches up.
	deadline := at(tl.run) + int64(faultDeadline)
	for k := int64(0); k < raw.total && nowNs() < deadline; {
		if run.log.outcomeNs(k) != 0 {
			k++
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
	for run.rejoinNs.Load() == 0 && nowNs() < deadline {
		time.Sleep(5 * time.Millisecond)
	}
	// With the load gone every replica must settle on one slot frontier.
	for end := nowNs() + int64(5*time.Second); nowNs() < end && !raw.settled; {
		raw.settled = true
		for i := range run.slots {
			if run.slots[i].Load() != run.slots[0].Load() {
				raw.settled = false
			}
		}
		if !raw.settled {
			time.Sleep(10 * time.Millisecond)
		}
	}
	raw.fault = cl.counters().minus(ctr1)
	cl.stop()
	raw.after = make(counters)
	cl.finish(raw.after)
	return nil
}

// checkLive is the correctness oracle; nil means the run's numbers stand.
func checkLive(run *liveRun, raw *liveRaw, res *result) error {
	if v := run.oracle.Violation(); v != "" {
		return violation("safety oracle: " + v)
	}
	if n := run.log.dups.Load(); n != 0 {
		return violation(fmt.Sprintf("%d transactions committed more than once", n))
	}
	if n := run.log.unknown.Load(); n != 0 {
		return violation(fmt.Sprintf("%d committed transactions were never submitted", n))
	}
	if !raw.settled {
		// The replicas the fault spared must agree. The faulted one may
		// lag: its log is checked as a prefix by the oracle above, and how
		// long it takes to catch up is fault.rejoin_s, not a safety matter.
		fr := make([]uint64, len(run.slots))
		for i := range fr {
			fr[i] = run.slots[i].Load()
			if fr[i] != fr[0] && types.NodeID(i) != run.spec.victim {
				return violation(fmt.Sprintf("replicas ended on different slot frontiers: %v", fr))
			}
		}
		res.invalid = fmt.Sprintf("replica %d had not caught up when the run ended, %s after the fault cleared (slot frontiers %v)",
			run.spec.victim, time.Duration(nowNs()-raw.healStart).Round(time.Second), fr)
		run.rejoinNs.CompareAndSwap(0, nowNs())
	}
	if run.spec.ackBased {
		for k := int64(0); k < raw.total; k++ {
			if run.log.ackNs[k].Load() != 0 && run.log.r0Ns[k].Load() == 0 {
				return violation(fmt.Sprintf("transaction %d was acked but never committed at replica 0", k))
			}
		}
	}
	return nil
}

// liveEndToEnd turns the transaction log into the end-to-end metrics, the
// failed-operation count and the generator's lateness.
func liveEndToEnd(run *liveRun, raw *liveRaw, res *result) {
	tl, at, sched := raw.tl, raw.at, run.log.sched
	k0 := sched.firstAt(int64(liveWarmup))
	kSteady := sched.firstAt(int64(liveWarmup) + int64(tl.steadyEnd*1e9))
	samples := make([]sample, 0, raw.total-k0)
	var outcomes, lates []float64
	res.attempted = int(raw.total - k0)
	res.failed = int(run.log.refused.Load())
	for k := int64(0); k < raw.total; k++ {
		due, out := sched.due(k), run.log.outcomeNs(k)
		if k < k0 { // warm-up: only its commits count, towards committed_tps
			if out != 0 {
				outcomes = append(outcomes, float64(out-at(0))/1e9)
			}
			continue
		}
		lates = append(lates, float64(run.log.submitNs[k]-due)/1e6)
		limit := int64(steadyDeadline)
		if k >= kSteady {
			limit = int64(faultDeadline)
		}
		if out == 0 || out-due > limit {
			res.failed++
			if out == 0 {
				continue
			}
		}
		samples = append(samples, sample{dueS: float64(due-at(0)) / 1e9, latMs: float64(out-due) / 1e6, weight: 1})
		outcomes = append(outcomes, float64(out-at(0))/1e9)
	}
	sort.Float64s(outcomes)
	committedIn := func(from, to float64) int {
		return sort.SearchFloat64s(outcomes, to) - sort.SearchFloat64s(outcomes, from)
	}

	steady := window(samples, 0, tl.steadyEnd)
	committed := committedIn(0, tl.steadyEnd)
	res.set("setup_s", median(raw.setups), len(raw.setups))
	res.set("commit_p50_ms", partsFloor(steady, 0, tl.steadyEnd, subWindows, 0.50), len(steady))
	res.set("commit_p99_ms", partsFloor(steady, 0, tl.steadyEnd, subWindows, 0.99), len(steady))
	res.set("committed_tps", float64(committed)/tl.steadyEnd, committed)
	res.set("peak_rss_mb", raw.rssMB, 0)
	res.set("blip_unavail_s", longestGap(outcomes, tl.faultAt, tl.blipEnd), 0)
	rec := window(samples, tl.recoverStart, tl.run)
	res.set("recovered_p50_ms", partsFloor(rec, tl.recoverStart, tl.run, subWindows, 0.50), len(rec))

	// Unbounded: the rest of the fault, and what the process spent. CPU per
	// transaction is taken per part of the steady window, lower quartile
	// (neighbours only ever add CPU time); even so it moved 8-20 % between
	// identical runs.
	res.layer("fault.blip_mean_ms", weightedMean(window(samples, tl.faultAt, tl.blipEnd)))
	res.layer("fault.rejoin_s", float64(run.rejoinNs.Load()-raw.healStart)/1e9)
	var perPart []float64
	for i := 0; i < cpuParts; i++ {
		from, to := tl.steadyEnd*float64(i)/cpuParts, tl.steadyEnd*float64(i+1)/cpuParts
		if n := committedIn(from, to); n > 0 {
			perPart = append(perPart, float64(raw.cpuAt[i+1]-raw.cpuAt[i])/1e3/float64(n))
		}
	}
	res.layer("process.cpu_us_per_tx", quartiles(perPart)[0])
	res.layer("process.alloc_bytes_per_tx", float64(raw.heap[0])/float64(committed))
	res.layer("process.allocs_per_tx", float64(raw.heap[1])/float64(committed))

	// Generator honesty, judged where nothing pushes back.
	steadyLates := sortedCopy(lates[:kSteady-k0])
	res.latP99, res.latMax = percentile(steadyLates, 0.99), steadyLates[len(steadyLates)-1]
	sort.Float64s(lates)
	res.latMaxRun = lates[len(lates)-1]
	res.cpuUtil = float64(raw.cpuAt[cpuParts]-raw.cpuAt[0]) / (tl.steadyEnd * 1e9 * benchProcs)
	if res.latP99 > lateLimitMs && res.invalid == "" {
		res.invalid = fmt.Sprintf("the generator ran %.1f ms late at p99 in the steady window (limit %.0f ms): the loop was no longer open", res.latP99, lateLimitMs)
	}
}

// liveLayers fills the per-layer metrics a live deployment can supply:
// counter deltas, values read after stop, and the sampled spans.
func liveLayers(run *liveRun, raw *liveRaw, res *result) {
	st, ft, after, at, S := raw.steady, raw.fault, raw.after, raw.at, raw.tl.steadyEnd
	tx := st["core.tx_ordered0"]
	res.layer("gateway.admitted", st["gateway.admitted"])
	res.layer("gateway.rejected", st["gateway.rejected"]+ft["gateway.rejected"])
	res.layer("gateway.deduped", st["gateway.deduped"]+ft["gateway.deduped"])
	res.layer("gateway.ack_drops", st["gateway.ack_drops"]+ft["gateway.ack_drops"])
	res.layer("gateway.chain_dups", st["gateway.chain_dups"]+ft["gateway.chain_dups"])
	res.layer("gateway.server_ack_mean_ms", ratio(st["gateway.ack_lat_ns"], st["gateway.acked"])/1e6)

	res.layer("transport.control_frames_per_batch", ratio(st["transport.control_frames"], st["core.cars"]))
	res.layer("transport.data_bytes_per_tx", ratio(st["transport.data_bytes"], tx))
	res.layer("transport.control_bytes_per_tx", ratio(st["transport.control_bytes"], tx))
	res.layer("transport.frames_per_flush", ratio(st["transport.control_frames"]+st["transport.data_frames"], st["transport.flushes"]))
	res.layer("transport.control_events", st["transport.control_events"])
	res.layer("transport.shard_events", st["transport.shard_events"])
	res.layer("transport.inbox_drops", st["transport.inbox_drops"])
	res.layer("transport.egress_drops", st["transport.egress_drops"])
	res.layer("transport.redials", ft["transport.redials"])
	res.layer("transport.stalls", ft["transport.stalls"])

	res.layer("crypto.cert_cache_hit_ratio", ratio(st["crypto.cert_hits"], st["crypto.cert_hits"]+st["crypto.cert_misses"]))
	res.layer("crypto.preverify_hit_ratio", ratio(st["crypto.pre_hits"], st["crypto.pre_hits"]+st["crypto.pre_misses"]))

	res.layer("core.cars_per_s", st["core.cars"]/S)
	res.layer("core.txs_per_car", ratio(tx, st["core.cars"]))
	res.layer("core.slots_per_s", st["core.slots0"]/S)
	res.layer("core.txs_per_slot", ratio(tx, st["core.slots0"]))
	res.layer("core.votes_per_batch", ratio(st["core.votes"], st["core.cars"]))
	res.layer("core.timeouts_sent", ft["core.timeouts"])
	res.layer("consensus.view_changes", ft["core.timeouts"]/float64(run.spec.n))
	res.layer("consensus.fast_commit_ratio", after["consensus.fast_commit_ratio"])
	res.layer("fetch.sync_requests", ft["fetch.sync_requests"])
	res.layer("fetch.sync_replies_served", ft["fetch.sync_replies_served"])
	res.layer("fetch.snapshots_installed", ft["fetch.snapshots_installed"])

	committed := float64(0)
	for k := range run.log.r0Ns {
		if run.log.r0Ns[k].Load() != 0 {
			committed++
		}
	}
	res.layer("storage.wal_bytes_per_tx", ratio(after["storage.wal_bytes"], committed))
	res.layer("storage.reopen_ms", after["storage.reopen_ms"])
	res.layer("storage.snapshot_bytes", after["storage.snapshot_bytes"])

	// Batch-level stamps from each origin replica, steady window only.
	var sealTo []sample
	var txs, batches float64
	for _, bs := range run.stats {
		for _, b := range bs {
			if b.commitNs < at(0) || b.commitNs >= at(S) {
				continue
			}
			w := float64(b.count)
			sealTo = append(sealTo, sample{latMs: float64(b.sealToNs) / 1e6, weight: w})
			txs += w
			batches++
		}
	}
	res.layer("mempool.txs_per_batch", ratio(txs, batches))
	res.layer("core.seal_to_commit_ms", weightedPercentile(sealTo, 0.5))
	var spreads []float64
	for _, s := range run.spread {
		if int(s[2]) == run.spec.n && s[0] >= at(0) && s[0] < at(S) {
			spreads = append(spreads, float64(s[1]-s[0])/1e6)
		}
	}
	sort.Float64s(spreads)
	res.layer("core.commit_spread_ms", percentile(spreads, 0.5))

	res.layer("gen.late_p99_ms", res.latP99)
	res.layer("gen.late_max_ms", res.latMax)
	res.layer("gen.cpu_util", res.cpuUtil)
	res.layer("trace.commit_p50_ms", res.metrics["commit_p50_ms"].v)

	rep := spanReport(buildSpans(run, at(0), at(S)))
	res.spans = rep
	res.layer("trace.coverage", rep.coverage)
	res.layer("trace.sampled", float64(rep.n))
	// Real batches are stamped MeanArrival = CreatedAt, so the wait is
	// read from the span; behind a gateway it is part of gateway.ingress.
	res.layer("mempool.wait_ms", rep.p50("mempool.wait"))
	res.layer("gateway.ingress_ms", rep.p50("gateway.ingress"))
	res.layer("gateway.ack_ms", rep.p50("gateway.ack"))
	res.layer("gateway.submit_call_us", rep.p50("gateway.submit_call")*1e3)
}
