// Byzantine adversary experiments: `byzantine` runs each shipped
// behavior (internal/adversary) as a windowed fault on the deterministic
// simulator and checks the paper's three claims under hostile — not just
// crashed — replicas: safety (an interceptor observes every replica's
// commits and proves no contradiction), liveness (committed throughput
// within a bound of the fault-free run) and seamlessness (hangover ≈ 0
// after the behavior window). `faultmatrix` then runs the same behaviors
// over the real TCP runtime — 4 replicas on loopback sockets, real
// ed25519, one Byzantine — plus lossy-link profiles (drop / delay /
// duplicate / reorder via transport.LinkFaults), asserting the same
// safety oracle and a commit floor in wall-clock time.
//
// Note the two runtimes deliberately exercise different defense layers:
// the simulator runs with crypto costs modeled (signatures trivially
// valid), so forged inputs must be rejected by state-machine rules alone
// (FIFO voting, digest chains, quorum counting); the TCP clusters verify
// real signatures, so the same attacks are additionally stopped at the
// crypto layer. Both must hold for the paper's adversary model.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/transport"
)

// runByzantine drives the per-behavior simulator scenarios.
func runByzantine(quick bool, seed uint64) {
	cfg := harness.ByzantineConfig{Seed: seed}
	if quick {
		cfg.Load = 15e3
		cfg.Duration = 20 * time.Second
		cfg.To = 12 * time.Second
	}
	for _, name := range harness.AdversaryNames() {
		c := cfg
		c.Behavior = name
		// Sync corruption needs a replica that actually has to sync: crash
		// an honest replica mid-window so its recovery fetches — some of
		// which land on the adversary — are part of the scenario.
		c.CompanionCrash = name == "bogus-sync"
		r := harness.RunByzantine(c)
		harness.PrintByzantine(os.Stdout, r)
		ratio := float64(r.Total) / float64(r.FaultFreeTotal)
		record(name+"_hangover_s", r.Hangover.Seconds())
		record(name+"_tput_ratio", ratio)
		record(name+"_p99_ms", float64(r.P99.Milliseconds()))
		record(name+"_peak_lat_ms", float64(r.PeakLat.Milliseconds()))
		check(r.Violation == "", name+": no contradictory commits (interceptor-observed)")
		check(r.Hangover <= 2*time.Second, name+": seamless recovery (hangover ~ 0 past the behavior window)")
		check(ratio >= 0.9, name+": committed throughput within 10% of fault-free")
	}

	// Max-fault cell: n=7 with f=2 equivocating lanes.
	r := harness.RunByzantine(harness.ByzantineConfig{
		Behavior: "equivocate", N: 7, Adversaries: 2, Seed: seed,
		Load: 15e3, Duration: 20 * time.Second, To: 12 * time.Second,
	})
	harness.PrintByzantine(os.Stdout, r)
	record("equivocate_n7_f2_hangover_s", r.Hangover.Seconds())
	check(r.Violation == "", "n=7: safety holds with f=2 equivocating lanes")
	check(float64(r.Total) >= 0.9*float64(r.FaultFreeTotal), "n=7: liveness holds with f=2 equivocating lanes")
}

// liveMatrixCell is one real-runtime cell of the fault matrix.
type liveMatrixCell struct {
	name      string
	adversary string // "" = all replicas honest
	rule      transport.LinkRule
	// n overrides the committee size (0 = 4).
	n int
}

// lossy is the link profile every cell marked lossy uses: 5% loss, 2%
// duplication, 1-15ms of reordering jitter on every link.
var lossy = transport.LinkRule{DropP: 0.05, DupP: 0.02, Delay: time.Millisecond, Jitter: 14 * time.Millisecond}

// runFaultMatrix drives the live TCP matrix: behaviors × link faults
// over real loopback sockets.
func runFaultMatrix(quick bool, seed uint64) {
	cells := []liveMatrixCell{
		{name: "tcp-honest-baseline"},
		{name: "tcp-lossy-links", rule: lossy},
	}
	for _, b := range harness.AdversaryNames() {
		cells = append(cells, liveMatrixCell{name: "tcp-" + b, adversary: b})
	}
	cells = append(cells, liveMatrixCell{name: "tcp-equivocate-lossy", adversary: "equivocate", rule: lossy})
	// Large-committee cell: n=16 on full mesh, one equivocating replica,
	// lossy links — it must clear the same safety oracle and commit floor
	// as the 4-replica cells.
	cells = append(cells, liveMatrixCell{
		name: "tcp-n16-equivocate-lossy", adversary: "equivocate", rule: lossy, n: 16,
	})

	dur, rate := 6*time.Second, 2000.0
	if quick {
		dur, rate = 3*time.Second, 1000.0
	}
	for _, cell := range cells {
		runLiveCell(cell, dur, rate, seed)
	}
}

// runLiveCell runs one 4-replica TCP cluster cell through the shared
// harness runner (harness.RunLiveTCPCell — the -race e2e tests drive the
// same code, so floor semantics and observer wiring cannot diverge) and
// turns its outcome into bench records and checks.
func runLiveCell(cell liveMatrixCell, dur time.Duration, rate float64, seed uint64) {
	res := harness.RunLiveTCPCell(harness.LiveCellConfig{
		N:         cell.n,
		Adversary: cell.adversary,
		Rule:      cell.rule,
		Seed:      seed,
		Rate:      rate,
		Duration:  dur,
		Logger:    log.New(os.Stderr, "faultmatrix ", 0),
	})
	if res.Err != nil {
		fmt.Printf("%-22s SKIP: %v\n", cell.name, res.Err)
		return
	}
	safety := "safe"
	if res.Violation != "" {
		safety = "VIOLATION: " + res.Violation
	}
	fmt.Printf("%-22s submitted=%d minCommitted=%d floor=%d elapsed=%5.1fs %s\n",
		cell.name, res.Submitted, res.MinCommitted, res.Floor, res.Elapsed.Seconds(), safety)
	if res.LinkStats != nil {
		fmt.Printf("%-22s link faults injected: dropped=%d duplicated=%d delayed=%d\n",
			"", res.LinkStats.Dropped, res.LinkStats.Duplicated, res.LinkStats.Delayed)
	}
	record(cell.name+"_min_committed", float64(res.MinCommitted))
	record(cell.name+"_submitted", float64(res.Submitted))
	record(cell.name+"_elapsed_s", res.Elapsed.Seconds())
	check(res.Violation == "", cell.name+": no contradictory commits across TCP replicas")
	check(res.MinCommitted >= res.Floor,
		fmt.Sprintf("%s: every replica committed >= 90%% of the honest-submitted load over real sockets", cell.name))
}
