// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) on the discrete-event simulator, plus micro-benchmarks
// of the core building blocks. Macro-benchmarks report the paper's
// metrics via b.ReportMetric (latencies in ms, throughputs in tx/s);
// wall-clock ns/op is not the interesting output for those.
//
//	go test -bench=. -benchmem .
//
// See EXPERIMENTS.md for recorded paper-vs-measured values and cmd/bench
// for the full-fidelity sweeps.
//
// External test package: internal/harness imports the root package (the
// shared live-cell runner builds real Replicas), so in-package tests
// cannot import harness without a cycle.
package autobahn_test

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/harness"
	"repro/internal/lane"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// BenchmarkTable1RTTMatrix verifies the simulated topology reproduces the
// paper's Table 1 RTTs (the delay model underlying every figure).
func BenchmarkTable1RTTMatrix(b *testing.B) {
	topo := sim.IntraUSTopology()
	for i := 0; i < b.N; i++ {
		for a := 0; a < 4; a++ {
			for c := 0; c < 4; c++ {
				d := topo.Delay(types.NodeID(a), types.NodeID(c))
				want := time.Duration(sim.IntraUSRTTms[a][c] / 2 * float64(time.Millisecond))
				if d != want {
					b.Fatalf("delay(%d,%d) = %v, want %v", a, c, d, want)
				}
			}
		}
	}
	b.ReportMetric(sim.IntraUSRTTms[0][2], "max_rtt_ms")
}

// BenchmarkFigure1Hangover reproduces Fig. 1: VanillaHS's latency
// hangover after a ~3s leader-failure blip at 15k tx/s.
func BenchmarkFigure1Hangover(b *testing.B) {
	var r harness.BlipResult
	for i := 0; i < b.N; i++ {
		r = harness.RunBlip(harness.BlipConfig{
			System: harness.VanillaHS, Load: 15e3,
			Duration: 20 * time.Second, CrashFrom: 5 * time.Second,
			Seed: uint64(i + 1),
		})
	}
	b.ReportMetric(r.Hangover.Seconds(), "hangover_s")
	b.ReportMetric(r.PeakLat.Seconds(), "peak_lat_s")
	b.ReportMetric(float64(r.Baseline.Milliseconds()), "baseline_ms")
}

// BenchmarkFigure5LatencyThroughput reproduces Fig. 5's headline point:
// all four systems at high load (200k tx/s), n=4.
func BenchmarkFigure5LatencyThroughput(b *testing.B) {
	type row struct {
		sys  harness.System
		load float64
	}
	rows := []row{
		{harness.Autobahn, 200e3},
		{harness.Bullshark, 200e3},
		{harness.BatchedHS, 150e3},
		{harness.VanillaHS, 15e3},
	}
	res := make(map[harness.System]harness.LoadPoint)
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			res[r.sys] = harness.MeasurePoint(r.sys, 4, r.load, 15*time.Second, uint64(i+1))
		}
	}
	for _, r := range rows {
		p := res[r.sys]
		b.ReportMetric(p.Throughput, string(r.sys)+"_tput")
		b.ReportMetric(float64(p.MeanLat.Milliseconds()), string(r.sys)+"_ms")
	}
	if a, bs := res[harness.Autobahn], res[harness.Bullshark]; a.MeanLat > 0 {
		b.ReportMetric(float64(bs.MeanLat)/float64(a.MeanLat), "latency_ratio")
	}
}

// BenchmarkFigure6Scaling reproduces Fig. 6's shape at n=4 and n=12:
// Autobahn and Bullshark hold their peak as n grows; VanillaHS collapses.
func BenchmarkFigure6Scaling(b *testing.B) {
	cfg := harness.Fig6Config{
		Ns:       []int{4, 12},
		Duration: 12 * time.Second,
		Loads:    []float64{1.5e3, 15e3, 30e3, 100e3, 175e3, 220e3, 240e3},
	}
	var res map[int]map[harness.System]harness.PeakPoint
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res = harness.Fig6(cfg)
	}
	for _, n := range cfg.Ns {
		for _, sys := range harness.AllSystems {
			b.ReportMetric(res[n][sys].Peak, string(sys)+"_n"+itoa(n))
		}
	}
}

// BenchmarkAblationFastPathTips reproduces the §6.1 optimization deltas
// (paper: +40ms without the fast path, +33ms with certified-only tips).
func BenchmarkAblationFastPathTips(b *testing.B) {
	var r harness.AblationResult
	for i := 0; i < b.N; i++ {
		r = harness.Ablation(4, 200e3, 15*time.Second, uint64(i+1))
	}
	b.ReportMetric(float64(r.Full.Milliseconds()), "full_ms")
	b.ReportMetric(float64((r.NoFastPath - r.Full).Milliseconds()), "fastpath_delta_ms")
	b.ReportMetric(float64((r.CertifiedTips - r.Full).Milliseconds()), "tips_delta_ms")
}

// BenchmarkFigure7LeaderFailures reproduces Fig. 7's contrast under the
// rotating-leader double-timeout blip: VanillaHS@15k hangs over, while
// Autobahn@220k recovers seamlessly.
func BenchmarkFigure7LeaderFailures(b *testing.B) {
	var vhs, auto harness.BlipResult
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		vhs = harness.RunBlip(harness.BlipConfig{
			System: harness.VanillaHS, Load: 15e3, Duration: 30 * time.Second, Seed: seed,
		})
		auto = harness.RunBlip(harness.BlipConfig{
			System: harness.Autobahn, Load: 220e3, Duration: 30 * time.Second, Seed: seed,
		})
	}
	b.ReportMetric(vhs.Hangover.Seconds(), "vanilla_hangover_s")
	b.ReportMetric(auto.Hangover.Seconds(), "autobahn_hangover_s")
	b.ReportMetric(auto.PeakLat.Seconds(), "autobahn_peak_s")
}

// BenchmarkFigure8Partition reproduces Fig. 8: a 20s half-half partition
// at 15k tx/s; Autobahn commits the backlog almost immediately after
// heal, VanillaHS's hangover is proportional to the blip.
func BenchmarkFigure8Partition(b *testing.B) {
	var auto, bull, vhs harness.PartitionResult
	for i := 0; i < b.N; i++ {
		seed := uint64(i + 1)
		auto = harness.RunPartition(harness.PartitionConfig{System: harness.Autobahn, Seed: seed})
		bull = harness.RunPartition(harness.PartitionConfig{System: harness.Bullshark, Seed: seed})
		vhs = harness.RunPartition(harness.PartitionConfig{System: harness.VanillaHS, Seed: seed})
	}
	b.ReportMetric(auto.Recovery.Seconds(), "autobahn_recovery_s")
	b.ReportMetric(bull.Recovery.Seconds(), "bullshark_recovery_s")
	b.ReportMetric(vhs.Recovery.Seconds(), "vanilla_recovery_s")
}

// --- micro-benchmarks of the substrate ---

func BenchmarkEd25519SignVerify(b *testing.B) {
	suite := crypto.NewEd25519Suite(4, 1)
	signer := suite.Signer(0)
	verifier := suite.Verifier()
	msg := []byte("autobahn-vote-signing-bytes-0123456789")
	sig := signer.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verifier.Verify(0, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkWireProposalRoundTrip(b *testing.B) {
	batch := types.NewBatch(1, 7, make([]types.Transaction, 64), 0)
	for i := range batch.Txs {
		batch.Txs[i] = make(types.Transaction, 512)
	}
	batch.Bytes = 64 * 512
	p := &types.Proposal{Lane: 1, Position: 9, Batch: batch, Sig: make([]byte, 64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := wire.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaneCarCycle(b *testing.B) {
	committee := types.NewCommittee(4)
	suite := crypto.NewNopSuite(4)
	states := make([]*lane.State, 4)
	for i := range states {
		states[i] = lane.NewState(lane.Config{
			Committee: committee, Self: types.NodeID(i),
			Signer: suite.Signer(types.NodeID(i)),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := types.NewSyntheticBatch(0, uint64(i+1), 1000, 512_000, 0, 0)
		prop := states[0].AddBatch(batch)
		if prop == nil {
			b.Fatal("lane blocked")
		}
		for r := 1; r < 4; r++ {
			votes, err := states[r].OnProposal(prop)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range votes {
				if _, _, err := states[0].OnVote(v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(states[0].Store().Len()), "stored")
}

func BenchmarkSimThroughput200k(b *testing.B) {
	var rec *metrics.Recorder
	for i := 0; i < b.N; i++ {
		c := harness.Build(harness.ClusterConfig{System: harness.Autobahn, N: 4, Seed: uint64(i + 1)})
		c.RunLoad(200e3, 0, 10*time.Second, 12*time.Second)
		rec = c.Recorder
	}
	b.ReportMetric(rec.Throughput(2*time.Second, 9*time.Second), "tx_per_s")
	b.ReportMetric(float64(rec.MeanLatency(2*time.Second, 9*time.Second).Milliseconds()), "lat_ms")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
