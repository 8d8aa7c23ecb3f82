// Real-runtime performance probe, run on wall-clock time (unlike the
// deterministic simulator experiments): `scaling` measures LiveCluster
// committed throughput across GOMAXPROCS — the figure the parallel data
// plane exists for.
package main

import (
	"encoding/binary"
	"fmt"
	gort "runtime"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/types"
)

// runScaling measures committed throughput of a 4-replica in-process
// LiveCluster (real signatures, sharded data plane auto-sized to
// GOMAXPROCS) at GOMAXPROCS 1, 2 and 4 — capped at the host's CPU
// count, since granting more procs than cores measures the scheduler,
// not the protocol. Failing check (≥2 usable cores): multi-core
// throughput may not fall below single-core — the regression signature
// of an accidentally re-serialized data plane.
func runScaling(quick bool) {
	dur := 6 * time.Second
	if quick {
		dur = 3 * time.Second
	}
	procsLadder := []int{1, 2, 4}
	avail := gort.NumCPU()
	rates := make(map[int]float64)
	for _, procs := range procsLadder {
		if procs > avail && procs != 1 {
			fmt.Printf("gomaxprocs=%d skipped (%d CPUs available)\n", procs, avail)
			continue
		}
		rate := liveThroughput(procs, dur)
		rates[procs] = rate
		fmt.Printf("gomaxprocs=%d: %8.0f tx/s committed\n", procs, rate)
		record(fmt.Sprintf("tput_gomaxprocs_%d", procs), rate)
	}
	record("cpus_available", float64(avail))
	single, okS := rates[1]
	best := 0.0
	for p, r := range rates {
		if p > 1 && r > best {
			best = r
		}
	}
	if okS && best > 0 {
		fmt.Printf("multi/single ratio: %.2fx\n", best/single)
		record("scaling_ratio", best/single)
		// 10% tolerance absorbs wall-clock noise on shared CI runners; a
		// re-serialized data plane shows up far below 1.0 because the
		// extra coordination costs without buying parallelism.
		check(best >= 0.9*single, "multi-core LiveCluster throughput is not below single-core")
	} else {
		fmt.Printf("scaling check skipped: %d usable CPUs\n", avail)
	}
}

// liveThroughput runs one LiveCluster throughput point at the given
// GOMAXPROCS: an unpaced submitter feeding all four replicas through
// the bulk path, every committed transaction counted at replica 0 once
// the backlog has drained.
func liveThroughput(procs int, dur time.Duration) float64 {
	prev := gort.GOMAXPROCS(procs)
	defer gort.GOMAXPROCS(prev)
	lc, err := autobahn.NewLiveCluster(autobahn.Options{N: 4, Seed: 7})
	if err != nil {
		panic(err)
	}
	var committed atomic.Uint64
	lc.SetCommitObserver(func(c autobahn.Committed) {
		if c.Replica == 0 {
			committed.Add(uint64(c.Batch.Count))
		}
	})
	lc.Start()
	defer lc.Stop()

	start := time.Now()
	var sent uint64
	burst := make([][]byte, 64)
	for time.Since(start) < dur {
		for i := range burst {
			tx := make([]byte, 128)
			binary.LittleEndian.PutUint64(tx, sent+uint64(i))
			burst[i] = tx
		}
		if err := lc.SubmitMany(types.NodeID(sent%4), burst); err != nil {
			panic(err)
		}
		sent += uint64(len(burst))
	}
	return float64(drained(&committed, 2*time.Second)) / dur.Seconds()
}

// drained waits until a commit counter has stood still for quiet and
// returns its value.
func drained(counter *atomic.Uint64, quiet time.Duration) uint64 {
	last := counter.Load()
	for {
		time.Sleep(quiet)
		now := counter.Load()
		if now == last {
			return now
		}
		last = now
	}
}
