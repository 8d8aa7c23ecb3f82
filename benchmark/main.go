// Command benchmark is the repository's one benchmark: four named
// workloads, ten end-to-end metrics, and a traced pass for per-layer
// numbers. See README.md beside this file and BENCHMARK.json at the root.
//
//	go run -C benchmark . -seed 1                 every workload, untraced
//	go run -C benchmark . -seed 1 -trace 1        ... then a traced pass
//	go run -C benchmark . -seed 1 -repeat 3       spreads beside their bounds
//	go run -C benchmark . -workload tcp_bulk ...  one workload (what the driver runs)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// invalidMark starts the report line of a run that broke a ground rule.
// A single-workload run still exits 0 (the driver reads any other code as
// a broken benchmark); the full pass and -repeat exit non-zero on it.
const invalidMark = "  INVALID RUN:"

// benchProcs pins GOMAXPROCS to the sandbox's two cores: Go 1.24 does
// not read the container's CPU quota.
const benchProcs = 2

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	repeat   int
	out      string
	tmpRoot  string
}

// scratchDir makes a fresh directory under the run's temporary root,
// which lives in the working directory and is removed on exit.
func (o options) scratchDir(name string) (string, error) {
	dir := filepath.Join(o.tmpRoot, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// violation is a correctness failure: the run's numbers are void.
type violation string

func (v violation) Error() string { return "correctness violation: " + string(v) }

type metricValue struct {
	v float64
	n int // samples behind a timing, 0 when it is a single observation
}

// result is one workload run.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]metricValue // end-to-end
	layers    map[string]float64     // per-layer (traced runs)
	spans     *spanSummary
	// generator honesty (live workloads)
	latP99, latMax, latMaxRun, cpuUtil float64
	// invalid says why the run does not count, "" when it does. The
	// numbers are still printed: latencies are timed from due times, so a
	// late generator makes them worse, never better.
	invalid string
}

func newResult(w string) *result {
	return &result{workload: w, metrics: map[string]metricValue{}, layers: map[string]float64{}}
}

func (r *result) set(name string, v float64, n int) { r.metrics[name] = metricValue{v, n} }

// layer records a per-layer value; one that could not be computed (no
// samples) reads 0, like a layer the workload bypasses.
func (r *result) layer(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layers[name] = v
}

// jsonResult is the last line of a single-workload run, as the driver
// reads it.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	// cpuUsPerTx is read back from a child's report (the result line of
	// an untraced run carries bounded metrics only).
	cpuUsPerTx float64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) json(trace bool) ([]byte, error) {
	out := jsonResult{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	if trace {
		for _, d := range perLayerDefs {
			out.Metrics[d.Name] = jsonMetric{r.layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			m, ok := r.metrics[d.Name]
			if !ok || math.IsNaN(m.v) || math.IsInf(m.v, 0) {
				return nil, fmt.Errorf("metric %s was not measured", d.Name)
			}
			out.Metrics[d.Name] = jsonMetric{m.v, d.Unit}
		}
	}
	return json.Marshal(out)
}

func (r *result) print(trace bool) {
	fmt.Printf("workload %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, d := range endToEndDefs {
		m, ok := r.metrics[d.Name]
		if !ok {
			continue
		}
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("(n=%d)", m.n)
		}
		fmt.Printf("  %-18s %14.4f %-5s %s\n", d.Name, m.v, d.Unit, n)
	}
	fmt.Printf("  no bound: cpu_us_per_tx=%.4f us  blip_mean_ms=%.1f ms  rejoin_s=%.3f s  alloc_bytes_per_tx=%.0f  allocs_per_tx=%.2f\n",
		r.layers["process.cpu_us_per_tx"], r.layers["fault.blip_mean_ms"], r.layers["fault.rejoin_s"],
		r.layers["process.alloc_bytes_per_tx"], r.layers["process.allocs_per_tx"])
	if _, live := liveSpecs[r.workload]; live {
		fmt.Printf("  generator, steady window: gen_late_p99_ms %.3f, gen_late_max_ms %.3f (whole run %.3f); CPU %.0f%% of %d cores\n",
			r.latP99, r.latMax, r.latMaxRun, 100*r.cpuUtil, benchProcs)
		if r.invalid != "" {
			fmt.Println(invalidMark, r.invalid)
		}
		if r.cpuUtil > cpuCeiling {
			fmt.Printf("  WARNING: steady-state CPU above the %.0f%% ceiling: latency now includes scheduler queueing\n", 100*cpuCeiling)
		}
	}
	if !trace {
		return
	}
	if r.spans != nil {
		r.spans.print()
	}
	fmt.Println("  per-layer:")
	for _, d := range perLayerDefs {
		fmt.Printf("    %-36s %16.4f %s\n", d.Name, r.layers[d.Name], d.Unit)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*result, error) {
	res := newResult(o.workload)
	var err error
	if o.workload == "sim_wan_blip" {
		err = runSim(o, res)
	} else {
		err = runLive(liveSpecs[o.workload], o, res)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		runProbes(o, res)
	}
	return res, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the simulator, Options.Seed, payload bytes and client IDs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured run")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints per-layer metrics instead of end-to-end ones")
	flag.IntVar(&o.repeat, "repeat", 0, "run the full set K times and print each metric's spread beside its bound")
	flag.StringVar(&o.out, "out", "", "traced single-workload run: write the sampled spans here (JSON lines)")
	flag.Parse()
	o.trace = trace != 0
	runtime.GOMAXPROCS(benchProcs)
	if flag.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat k] [-out file]")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.workload == "" {
		if o.repeat > 0 {
			return runRepeat(o)
		}
		return runAll(o)
	}
	if !findWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	o.tmpRoot = tmp
	fmt.Printf("GOMAXPROCS=%d seed=%d seconds=%g trace=%v\n", benchProcs, o.seed, o.seconds, o.trace)
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	line, err := res.json(o.trace)
	if err != nil {
		return err
	}
	res.print(o.trace)
	fmt.Println(string(line))
	return nil
}

// child re-executes this binary for one workload, so that peak RSS and
// CPU time belong to that workload alone. It echoes the child's report
// and returns its last line, parsed.
func child(o options, workload string, seed uint64, trace bool) (*jsonResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err = cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if err != nil {
		fmt.Print(stdout.String())
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	if strings.Contains(stdout.String(), invalidMark) {
		return nil, fmt.Errorf("workload %s: invalid run", workload)
	}
	var jr jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
		return nil, fmt.Errorf("workload %s: result line: %w", workload, err)
	}
	if i := strings.Index(stdout.String(), "cpu_us_per_tx="); i >= 0 {
		fmt.Sscanf(stdout.String()[i:], "cpu_us_per_tx=%f", &jr.cpuUsPerTx)
	}
	return &jr, nil
}

// summary is the last line of a full pass. Field order is print order:
// "claim" comes last and is null, because this benchmark claims no gain.
type summary struct {
	Seed       uint64                   `json:"seed"`
	Seconds    float64                  `json:"seconds"`
	GoMaxProcs int                      `json:"gomaxprocs"`
	Workloads  map[string]workloadEntry `json:"workloads"`
	Claim      *string                  `json:"claim"`
}

type workloadEntry struct {
	Attempted     int                   `json:"attempted"`
	Failed        int                   `json:"failed"`
	EndToEnd      map[string]jsonMetric `json:"end_to_end"`
	PerLayer      map[string]jsonMetric `json:"per_layer,omitempty"`
	TraceOverhead map[string]float64    `json:"trace_overhead,omitempty"`
}

// runAll is `go run . -seed N`: every workload once, untraced, then (with
// -trace 1) once more traced.
func runAll(o options) error {
	sum := summary{Seed: o.seed, Seconds: o.seconds, GoMaxProcs: benchProcs, Workloads: map[string]workloadEntry{}}
	failed := 0
	for _, w := range workloadDefs {
		jr, err := child(o, w.Name, o.seed, false)
		if err != nil {
			return err
		}
		failed += jr.Failed
		entry := workloadEntry{Attempted: jr.Attempted, Failed: jr.Failed, EndToEnd: jr.Metrics}
		if o.trace {
			tr, err := child(o, w.Name, o.seed, true)
			if err != nil {
				return err
			}
			failed += tr.Failed
			entry.PerLayer = tr.Metrics
			entry.TraceOverhead = map[string]float64{
				"commit_p50_ms": tr.Metrics["trace.commit_p50_ms"].Value - jr.Metrics["commit_p50_ms"].Value,
				"cpu_us_per_tx": tr.Metrics["process.cpu_us_per_tx"].Value - jr.cpuUsPerTx,
			}
			fmt.Printf("  trace_overhead: commit_p50_ms %+.3f ms, cpu_us_per_tx %+.3f us (traced minus untraced)\n\n",
				entry.TraceOverhead["commit_p50_ms"], entry.TraceOverhead["cpu_us_per_tx"])
		}
		sum.Workloads[w.Name] = entry
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// runRepeat runs the untraced set K times on seeds seed..seed+K-1 and
// judges each end-to-end metric's spread as the driver does: the distance
// between the quartiles as a share of the median, against the bound.
func runRepeat(o options) error {
	values := map[string]map[string][]float64{}
	for i := 0; i < o.repeat; i++ {
		for _, w := range workloadDefs {
			jr, err := child(o, w.Name, o.seed+uint64(i), false)
			if err != nil {
				return err
			}
			if jr.Failed > 0 {
				return fmt.Errorf("workload %s: %d operations failed", w.Name, jr.Failed)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range jr.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	var over []string
	for _, w := range workloadDefs {
		fmt.Printf("\n%s over %d runs\n  %-18s %12s %12s %12s %8s %8s\n", w.Name, o.repeat, "metric", "min", "median", "max", "spread", "bound")
		for _, d := range endToEndDefs {
			v := sortedCopy(values[w.Name][d.Name])
			sp := relSpread(v)
			mark := ""
			if sp > d.Bound && d.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, w.Name+"/"+d.Name)
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%%s\n", d.Name, v[0], median(v), v[len(v)-1], 100*sp, 100*d.Bound, mark)
		}
	}
	sort.Strings(over)
	if len(over) > 0 {
		return errors.New("spread over bound: " + strings.Join(over, ", "))
	}
	return nil
}
