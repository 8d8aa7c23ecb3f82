package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted:
// the smallest value with at least p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quartiles(v)[1] }

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver uses to judge spread.
// With one sample all three cut points are that sample.
func quartiles(v []float64) [3]float64 {
	d := sortedCopy(v)
	ld := len(d)
	switch ld {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// relSpread is the distance between the first and third quartile as a
// share of the median: the driver's steadiness measure.
func relSpread(v []float64) float64 {
	q := quartiles(v)
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// sample is one transaction's (or, in the simulator, one batch's) latency:
// when it was due, relative to the start of the measured run, how long it
// took, and how many transactions it stands for.
type sample struct {
	dueS   float64
	latMs  float64
	weight float64
}

// window selects samples due in [from, to).
func window(s []sample, from, to float64) []sample {
	var out []sample
	for _, x := range s {
		if x.dueS >= from && x.dueS < to {
			out = append(out, x)
		}
	}
	return out
}

// weightedPercentile is percentile over samples that each stand for
// weight transactions (simulator batches); with unit weights it equals
// percentile.
func weightedPercentile(s []sample, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	d := append([]sample(nil), s...)
	sort.Slice(d, func(i, j int) bool { return d[i].latMs < d[j].latMs })
	var total float64
	for _, x := range d {
		total += x.weight
	}
	need := p * total
	var acc float64
	for _, x := range d {
		acc += x.weight
		if acc >= need {
			return x.latMs
		}
	}
	return d[len(d)-1].latMs
}

func weightedMean(s []sample) float64 {
	var sum, w float64
	for _, x := range s {
		sum += x.latMs * x.weight
		w += x.weight
	}
	if w == 0 {
		return math.NaN()
	}
	return sum / w
}

func totalWeight(s []sample) float64 {
	var w float64
	for _, x := range s {
		w += x.weight
	}
	return w
}

// partsFloor splits [from, to) into k equal parts by due time, takes each
// part's p-quantile, and returns the lower quartile of those. A noisy
// neighbour or a collector cycle only ever raises a part's latencies, so
// the floor of the parts repeats where the whole window's quantile does
// not.
func partsFloor(s []sample, from, to float64, k int, p float64) float64 {
	step := (to - from) / float64(k)
	var qs []float64
	for i := 0; i < k; i++ {
		w := window(s, from+float64(i)*step, from+float64(i+1)*step)
		if len(w) > 0 {
			qs = append(qs, weightedPercentile(w, p))
		}
	}
	return quartiles(qs)[0]
}

// longestGap returns the longest interval, within [from, to), during which
// none of the (sorted) event times occurred. The edges count: an event
// stream that is silent from `from` until its first event is a gap.
func longestGap(sorted []float64, from, to float64) float64 {
	prev := from
	var gap float64
	for _, t := range sorted {
		if t < from {
			continue
		}
		if t >= to {
			break
		}
		if t-prev > gap {
			gap = t - prev
		}
		prev = t
	}
	if to-prev > gap {
		gap = to - prev
	}
	return gap
}

// epochOffset maps a replica-local clock (time since that replica's
// private epoch) onto the benchmark's clock. Each observation pairs a
// local stamp with the benchmark time at which the observer ran; the
// observer always runs after the stamp was taken, so the smallest
// difference is the best estimate of the offset.
type epochOffset struct {
	min int64
	set bool
}

func (e *epochOffset) observe(benchNs, localNs int64) {
	if d := benchNs - localNs; !e.set || d < e.min {
		e.min, e.set = d, true
	}
}

func (e *epochOffset) toBench(localNs int64) int64 { return e.min + localNs }
