package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// A traced run follows one transaction in traceSample. Spans are recorded
// from the benchmark's own files, around its calls into the system and in
// its callbacks; nothing inside the system is instrumented.
//
//	tx                          due time -> outcome (root)
//	  generator.lag             due time -> Submit entered
//	  gateway|replica.submit_call  Submit entered -> returned
//	  gateway.ingress           Submit returned -> batch sealed   (gateway workload:
//	                            the hop to the gateway, admission and the mempool
//	                            wait, which cannot be told apart from outside)
//	  mempool.wait              Submit returned -> batch sealed   (other workloads)
//	  core.seal_to_commit       batch sealed -> origin replica commits it
//	  gateway.ack               origin (= gateway) replica commits -> client outcome
type span struct {
	Tx     int64  `json:"tx"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// covered is the length of [lo, hi) that the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		iv = append(iv, [2]int64{c.Start, c.End})
	}
	return s.dur() - covered(iv, s.Start, s.End)
}

// buildSpans assembles the span tree of every sampled transaction due in
// [from, to) on the benchmark clock. Replica-local seal stamps move onto
// that clock through the origin replica's epoch offset.
func buildSpans(run *liveRun, from, to int64) [][]span {
	l := run.log
	door := "replica"
	if run.spec.ackBased {
		door = "gateway"
	}
	var out [][]span
	for i := range l.submitRet {
		k := int64(i) * l.traceEvery
		if k >= l.sched.total {
			break
		}
		due, end := l.sched.due(k), l.outcomeNs(k)
		if due < from || due >= to || end == 0 || l.originNs[i] == 0 {
			continue
		}
		sealed := run.epoch[l.originOf[i]].toBench(l.sealedLoc[i])
		tree := []span{
			{k, "tx", "", due, end},
			{k, "generator.lag", "tx", due, l.submitNs[k]},
			{k, door + ".submit_call", "tx", l.submitNs[k], l.submitRet[i]},
		}
		if run.spec.ackBased {
			tree = append(tree,
				span{k, "gateway.ingress", "tx", l.submitRet[i], sealed},
				span{k, "core.seal_to_commit", "tx", sealed, l.originNs[i]},
				span{k, "gateway.ack", "tx", l.originNs[i], end})
		} else {
			tree = append(tree,
				span{k, "mempool.wait", "tx", l.submitRet[i], sealed},
				span{k, "core.seal_to_commit", "tx", sealed, l.originNs[i]})
		}
		out = append(out, tree)
	}
	return out
}

// spanSummary is what a traced run prints: per span name the median
// duration, its share of the root's time and its self time, plus how much
// of the root the children cover.
type spanSummary struct {
	n        int
	rows     []spanRow
	coverage float64
}

type spanRow struct {
	name              string
	p50Ms, share, own float64
}

func (s *spanSummary) p50(name string) float64 {
	for _, r := range s.rows {
		if r.name == name {
			return r.p50Ms
		}
	}
	return 0
}

func spanReport(trees [][]span) *spanSummary {
	sum := &spanSummary{n: len(trees)}
	if len(trees) == 0 {
		return sum
	}
	durs := map[string][]float64{}
	total := map[string]float64{}
	own := map[string]float64{}
	var order []string
	var rootTotal, rootCovered float64
	for _, tree := range trees {
		for _, s := range tree {
			if _, seen := durs[s.Name]; !seen {
				order = append(order, s.Name)
			}
			var kids []span
			for _, c := range tree {
				if c.Parent == s.Name {
					kids = append(kids, c)
				}
			}
			durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
			total[s.Name] += float64(s.dur())
			st := selfTime(s, kids)
			own[s.Name] += float64(st)
			if s.Parent == "" {
				rootTotal += float64(s.dur())
				rootCovered += float64(s.dur() - st)
			}
		}
	}
	for _, name := range order {
		d := durs[name]
		sort.Float64s(d)
		sum.rows = append(sum.rows, spanRow{
			name: name, p50Ms: percentile(d, 0.5),
			share: ratio(total[name], rootTotal), own: ratio(own[name], rootTotal),
		})
	}
	sum.coverage = ratio(rootCovered, rootTotal)
	return sum
}

func (s *spanSummary) print() {
	fmt.Printf("  spans over %d sampled transactions (1 in %d), steady window:\n", s.n, traceSample)
	fmt.Printf("    %-26s %10s %8s %8s\n", "span", "p50 ms", "share", "self")
	for _, r := range s.rows {
		fmt.Printf("    %-26s %10.3f %7.1f%% %7.1f%%\n", r.name, r.p50Ms, 100*r.share, 100*r.own)
	}
	fmt.Printf("    children cover %.1f%% of tx; uncovered remainder %.1f%%\n", 100*s.coverage, 100*(1-s.coverage))
}

// writeSpans dumps every sampled span as one JSON object per line.
func writeSpans(path string, run *liveRun, t0 int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, tree := range buildSpans(run, 0, math.MaxInt64) {
		for _, s := range tree {
			s.Start -= t0
			s.End -= t0
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("trace output: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
