// Package workload generates the paper's evaluation workload (§6): an
// open-loop constant stream of 512-byte no-op transactions, balanced
// across replicas (clients are co-located with their replica, so
// client→replica latency is excluded, as in the paper). Under simulation,
// transactions are aggregated into synthetic chunks per scheduling tick;
// the mempool turns chunks into sealed batches with correct arrival-time
// statistics for latency measurement.
package workload

import (
	"time"

	"repro/internal/mempool"
	"repro/internal/sim"
	"repro/internal/types"
)

// tick is the chunk granularity of an open-loop load.
const tick = 5 * time.Millisecond

// Config describes an open-loop load.
type Config struct {
	// TotalRate is the aggregate submission rate across all replicas
	// (tx/s).
	TotalRate float64
	// TxSize is the per-transaction payload size (default 512 bytes).
	TxSize int
	// Start/End bound the submission window.
	Start, End time.Duration
	// Batch overrides mempool batching parameters (zero = defaults:
	// 1000 txs / 500 KB / 100ms).
	Batch mempool.Config
	// RedirectFromDown re-routes load away from crashed replicas to the
	// next live one (clients re-submitting elsewhere). Default true via
	// Install.
	NoRedirect bool
}

func (c *Config) fill() {
	if c.TxSize == 0 {
		c.TxSize = 512
	}
}

// Install schedules the workload on a simulation engine for the given
// replicas. It returns the per-replica mempools (tests may inspect them).
func Install(e *sim.Engine, nodes []types.NodeID, cfg Config) []*mempool.Pool {
	cfg.fill()
	pools := make([]*mempool.Pool, len(nodes))
	carry := make([]float64, len(nodes))
	for i, id := range nodes {
		bc := cfg.Batch
		bc.Self = id
		pools[i] = mempool.NewPool(bc)
	}
	perNode := cfg.TotalRate / float64(len(nodes))
	txPerTick := perNode * tick.Seconds()

	// Ticks continue past End so partially filled batches still flush.
	e.Every(cfg.Start, tick, cfg.End+2*time.Second, func(t time.Duration) {
		for i, id := range nodes {
			var count uint64
			if t < cfg.End {
				carry[i] += txPerTick
				count = uint64(carry[i])
				carry[i] -= float64(count)
			}

			target := id
			pi := i
			if !cfg.NoRedirect && e.NodeDown(id) {
				// Re-route to the next live replica (client failover).
				for off := 1; off < len(nodes); off++ {
					cand := nodes[(i+off)%len(nodes)]
					if !e.NodeDown(cand) {
						target = cand
						pi = (i + off) % len(nodes)
						break
					}
				}
				if e.NodeDown(target) {
					continue // everyone down: drop
				}
			}
			pool := pools[pi]
			mean := t + tick/2
			if count > 0 {
				batches := pool.AddSynthetic(count, count*uint64(cfg.TxSize), mean, t)
				for _, b := range batches {
					e.SubmitBatch(target, b)
				}
			}
			if pool.FlushDue(t) {
				if b := pool.Flush(t); b != nil {
					e.SubmitBatch(target, b)
				}
			}
		}
	})
	return pools
}
