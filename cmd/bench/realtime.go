// Real-runtime performance probes, run on wall-clock time (unlike the
// deterministic simulator experiments): `ingress` pins the wire decode
// micro-costs, `scaling` measures LiveCluster committed throughput
// across GOMAXPROCS — the figure the parallel data plane exists for.
package main

import (
	"encoding/binary"
	"fmt"
	gort "runtime"
	"sync/atomic"
	"testing"
	"time"

	autobahn "repro"
	"repro/internal/types"
	"repro/internal/wire"
)

// runIngress measures the ingress decode path: the zero-copy decoder
// (DecodeFrom over a pooled frame) against the legacy copying decoder,
// on the two frames that dominate real traffic — votes (control plane)
// and 500 KB cars (data plane, 1000 × 512 B transactions, the paper's
// workload). Failing check: the zero-copy path must allocate at most
// one object for a vote and may not allocate per transaction for a car.
func runIngress() {
	vote := &types.Vote{Lane: 1, Position: 9, Digest: types.Digest{5}, Voter: 2, Sig: make([]byte, 64)}
	voteEnc, err := wire.Encode(vote)
	if err != nil {
		panic(err)
	}
	txs := make([]types.Transaction, 1000)
	for i := range txs {
		txs[i] = make(types.Transaction, 512)
	}
	car := &types.Proposal{
		Lane: 1, Position: 7, Parent: types.Digest{3},
		Batch: types.NewBatch(1, 7, txs, 0),
		Sig:   make([]byte, 64),
	}
	carEnc, err := wire.Encode(car)
	if err != nil {
		panic(err)
	}

	bench := func(name string, enc []byte, decode func([]byte) (types.Message, error)) testing.BenchmarkResult {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Printf("%-28s %10.0f ns/op %8d B/op %6d allocs/op\n",
			name, float64(res.NsPerOp()), res.AllocedBytesPerOp(), res.AllocsPerOp())
		record(name+"_ns_op", float64(res.NsPerOp()))
		record(name+"_allocs_op", float64(res.AllocsPerOp()))
		return res
	}

	voteCopy := bench("decode_vote_copy", voteEnc, wire.Decode)
	voteZero := bench("decode_vote_zerocopy", voteEnc, wire.DecodeFrom)
	carCopy := bench("decode_car500k_copy", carEnc, wire.Decode)
	carZero := bench("decode_car500k_zerocopy", carEnc, wire.DecodeFrom)

	check(voteZero.AllocsPerOp() <= 1, "zero-copy vote decode allocates at most the message struct")
	check(carZero.AllocsPerOp() < 16 && carZero.AllocsPerOp() < carCopy.AllocsPerOp()/10,
		"zero-copy car decode does not allocate per transaction")
	if voteCopy.NsPerOp() > 0 && carCopy.NsPerOp() > 0 {
		fmt.Printf("speedup: vote %.2fx, 500KB car %.2fx\n",
			float64(voteCopy.NsPerOp())/float64(voteZero.NsPerOp()),
			float64(carCopy.NsPerOp())/float64(carZero.NsPerOp()))
		record("car_decode_speedup", float64(carCopy.NsPerOp())/float64(carZero.NsPerOp()))
	}
}

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
