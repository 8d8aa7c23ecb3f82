// Committee-scaling cells: LiveCluster throughput/latency across
// committee sizes (n = 4, 7, 16, 32) with batch-verified, memoized
// certificates. (What batching buys over one inline check per share is
// crypto's BenchmarkVerifyPipeline.)
//
// Each cell commits a FIXED load and reports completion throughput
// (committed tx / elapsed-to-done): open-loop unpaced submission on a
// shared-CPU in-process cluster measures scheduler luck, not protocol
// cost. The load is closed-loop (bounded in-flight transactions, so no
// cell loses batches to inbox overload) and batches are capped small
// (64 tx) to keep the certificate-per-transaction ratio high — the
// whole point is to surface verification and dissemination costs that
// 1000-tx batches would amortize away. Commits are counted through the
// synchronous observer, which never drops one. Load is symmetric — every
// replica originates cars — so full-mesh dissemination is already
// load-balanced and total-bandwidth optimal.
package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/types"
)

type committeeCellResult struct {
	tput      float64 // committed tx/s at replica 0 (fixed load / completion time)
	p99       time.Duration
	committed uint64
	certHits  uint64
}

// committeeCell runs one LiveCluster point: totalTx 128-byte
// transactions (submit timestamp embedded for end-to-end latency) in
// 64-tx bursts with at most maxInFlight outstanding, then reports
// committed throughput over the time to drain them all at replica 0.
func committeeCell(n int, totalTx int, seed uint64) committeeCellResult {
	lc, err := autobahn.NewLiveCluster(autobahn.Options{
		N: n, Seed: seed, MaxBatchTxs: 64, MaxBatchDelay: 5 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	var committed atomic.Uint64
	var latMu sync.Mutex
	var lats []float64
	lc.SetCommitObserver(func(c autobahn.Committed) {
		if c.Replica != 0 {
			return
		}
		committed.Add(uint64(c.Batch.Count))
		now := time.Now().UnixNano()
		latMu.Lock()
		for _, tx := range c.Batch.Txs {
			if len(tx) >= 16 && len(lats) < 1<<17 {
				if ts := int64(binary.LittleEndian.Uint64(tx[8:16])); ts > 0 && ts <= now {
					lats = append(lats, float64(now-ts))
				}
			}
		}
		latMu.Unlock()
	})
	lc.Start()
	defer lc.Stop()

	const maxInFlight = 1024
	start := time.Now()
	deadline := start.Add(120 * time.Second)
	burst := make([][]byte, 64)
	sent := 0
	for sent < totalTx && time.Now().Before(deadline) {
		if uint64(sent)-committed.Load() >= maxInFlight {
			time.Sleep(500 * time.Microsecond)
			continue
		}
		now := uint64(time.Now().UnixNano())
		for i := range burst {
			tx := make([]byte, 128)
			binary.LittleEndian.PutUint64(tx, uint64(sent+i))
			binary.LittleEndian.PutUint64(tx[8:16], now)
			burst[i] = tx
		}
		if err := lc.SubmitMany(types.NodeID(sent/64%n), burst); err != nil {
			panic(err)
		}
		sent += len(burst)
	}
	for committed.Load() < uint64(totalTx) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	var res committeeCellResult
	res.committed = committed.Load()
	res.tput = float64(res.committed) / time.Since(start).Seconds()
	latMu.Lock()
	if len(lats) > 0 {
		sort.Float64s(lats)
		res.p99 = time.Duration(lats[len(lats)*99/100])
	}
	latMu.Unlock()
	for i := 0; i < n; i++ {
		hits, _ := lc.Node(types.NodeID(i)).CertCacheStats()
		res.certHits += hits
	}
	return res
}

// runCommittee prints the committee-scaling curve, with failing shape
// checks (see EXPERIMENTS.md "Committee scaling").
func runCommittee(quick bool, seed uint64) {
	totalTx := 19200
	if quick {
		totalTx = 6400
	}

	// Scaling curve: batch-verified, memoized certificates, symmetric
	// load.
	fmt.Printf("%-4s %12s %10s %14s\n", "n", "tx/s", "p99", "cert memo hits")
	curve := make(map[int]committeeCellResult)
	for _, n := range []int{4, 7, 16, 32} {
		r := committeeCell(n, totalTx, seed)
		curve[n] = r
		fmt.Printf("%-4d %12.0f %10s %14d\n", n, r.tput, r.p99.Round(time.Millisecond), r.certHits)
		record(fmt.Sprintf("tput_n%d", n), r.tput)
		record(fmt.Sprintf("p99_ms_n%d", n), float64(r.p99.Milliseconds()))
		record(fmt.Sprintf("cert_memo_hits_n%d", n), float64(r.certHits))
	}
	check(curve[16].committed >= uint64(totalTx), "n=16 cell commits the full load")
	check(curve[32].committed >= uint64(totalTx), "n=32 cell commits the full load")
	check(curve[16].certHits > 0, "whole-certificate memo takes hits at n=16")
}
