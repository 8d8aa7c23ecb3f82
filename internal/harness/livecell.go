package harness

import (
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/transport"
	"repro/internal/types"
)

// LiveCellConfig parameterizes one real-runtime fault-matrix cell: a
// 4-replica TCP loopback cluster, optionally with one Byzantine replica
// (replica 2) and a link-fault profile on every mesh, under a paced
// open-loop load. Both the CI bench (`cmd/bench -exp faultmatrix`) and
// the -race e2e tests drive cells through this one runner, so floor
// semantics, drain behavior and observer wiring cannot diverge between
// them.
type LiveCellConfig struct {
	// N is the committee size (default 4). Larger committees exercise
	// full-mesh dissemination and batch-verified certificates end to end.
	N int
	// Adversary names the behavior replica 2 runs ("" = all honest).
	Adversary string
	// Rule, when non-zero, is installed on every replica's egress.
	Rule transport.LinkRule
	Seed uint64
	// Rate is the submission rate (tx/s); load runs for Duration.
	Rate     float64
	Duration time.Duration
	// DrainTimeout bounds how long past the load the cell waits for
	// every replica to reach the commit floor (default 30s).
	DrainTimeout time.Duration
	// Logger receives replica transport logs (nil = discard-ish default).
	Logger *log.Logger
}

// LiveCellResult reports one cell's outcome. Err is non-nil only for
// infrastructure failures (port allocation, replica start) — callers
// treat those as SKIP/fatal, not as protocol verdicts.
type LiveCellResult struct {
	Submitted int
	// SubmittedHonest counts transactions entrusted to honest replicas;
	// the Floor covers only these. A Byzantine replica's own lane has no
	// progress guarantee (it can wedge itself by losing a self-fork
	// commit race — §A.4/§B.1; real clients time out and resubmit
	// elsewhere), but everything submitted to honest replicas must
	// commit at every replica, the adversary included.
	SubmittedHonest int
	Floor           uint64
	// PerReplica is each replica's committed transaction count;
	// MinCommitted the minimum (the liveness verdict is
	// MinCommitted >= Floor).
	PerReplica   []uint64
	MinCommitted uint64
	// Violation is the safety oracle's verdict ("" = safe), fed from
	// every replica's synchronous commit observer.
	Violation string
	Elapsed   time.Duration
	// LinkStats reports injected link faults (nil without a Rule).
	LinkStats *LinkFaultStats
	Err       error
}

// LinkFaultStats re-exports the transport counters for reporting.
type LinkFaultStats = transport.LinkFaultStats

// RunLiveTCPCell executes one cell; see LiveCellConfig.
func RunLiveTCPCell(cfg LiveCellConfig) LiveCellResult {
	n := cfg.N
	if n == 0 {
		n = 4
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	res := LiveCellResult{PerReplica: make([]uint64, n)}
	addrs, err := freeLoopbackAddrs(n)
	if err != nil {
		res.Err = err
		return res
	}
	opts := autobahn.Options{
		N: n, Seed: cfg.Seed, MaxBatchDelay: 10 * time.Millisecond,
	}
	if cfg.Adversary != "" {
		opts.Adversaries = map[types.NodeID]string{2: cfg.Adversary}
	}
	var faults *transport.LinkFaults
	if !cfg.Rule.Zero() {
		faults = transport.NewLinkFaults(cfg.Seed).SetAll(cfg.Rule)
		opts.LinkFaults = faults
	}

	ci := NewCommitInterceptor()
	perReplica := make([]atomic.Uint64, n)
	replicas := make([]*autobahn.Replica, n)
	defer func() {
		for _, r := range replicas {
			if r != nil {
				r.Stop()
			}
		}
	}()
	for i := 0; i < n; i++ {
		r, err := autobahn.NewReplica(types.NodeID(i), addrs, opts, cfg.Logger)
		if err != nil {
			res.Err = err
			return res
		}
		// The safety oracle taps the synchronous observer, which never
		// drops: a gap would misalign the oracle's log comparison.
		id := types.NodeID(i)
		r.SetCommitObserver(func(c autobahn.Committed) {
			ci.Record(id, c.Lane, c.Position, c.Batch.Digest(), c.AppHash)
			// The liveness counter tracks honest-lane commits only, to
			// match the honest-submitted floor: counting the Byzantine
			// lane's commits (including equivocation-fork batches) would
			// dilute the assertion by up to its 1/n share of the load.
			if cfg.Adversary != "" && c.Lane == 2 {
				return
			}
			perReplica[id].Add(uint64(c.Batch.Count))
		})
		if err := r.Start(); err != nil {
			res.Err = err
			return res
		}
		replicas[i] = r
	}

	// Open-loop load, round-robin across replicas.
	tx := make([]byte, 128)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	start := time.Now() //lint:allow noclock live cell measures wall-clock throughput by design
	for time.Since(start) < cfg.Duration {
		to := res.Submitted % n
		replicas[to].Submit(tx)
		res.Submitted++
		if cfg.Adversary == "" || to != 2 {
			res.SubmittedHonest++
		}
		time.Sleep(interval) //lint:allow noclock open-loop pacing needs real time
	}

	// Drain until every replica reaches the floor or the deadline.
	res.Floor = uint64(float64(res.SubmittedHonest) * 0.9)
	deadline := time.Now().Add(cfg.DrainTimeout) //lint:allow noclock drain deadline is wall-clock
	for time.Now().Before(deadline) {
		done := true
		for i := 0; i < n; i++ {
			if perReplica[i].Load() < res.Floor {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(50 * time.Millisecond) //lint:allow noclock drain polling is wall-clock
	}
	res.Elapsed = time.Since(start) //lint:allow noclock elapsed wall time is the measurement
	res.MinCommitted = perReplica[0].Load()
	for i := 0; i < n; i++ {
		res.PerReplica[i] = perReplica[i].Load()
		if res.PerReplica[i] < res.MinCommitted {
			res.MinCommitted = res.PerReplica[i]
		}
	}
	res.Violation = ci.Violation()
	if faults != nil {
		s := faults.Stats()
		res.LinkStats = &s
	}
	return res
}

// freeLoopbackAddrs reserves n distinct loopback ports by binding and
// releasing them (the standard test-harness pattern; a rare race with
// another process surfaces as a replica Start error, reported through
// LiveCellResult.Err).
func freeLoopbackAddrs(n int) (map[types.NodeID]string, error) {
	addrs := make(map[types.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("harness: reserve port: %w", err)
		}
		addrs[types.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}
