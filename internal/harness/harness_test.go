package harness

import (
	"os"
	"testing"
	"time"
)

// TestHeadlineComparison asserts the paper's central Fig. 5 claims at one
// high-load point: Autobahn matches Bullshark's throughput while cutting
// its latency roughly in half, and beats both HotStuff variants' latency.
func TestHeadlineComparison(t *testing.T) {
	const load = 200e3
	auto := MeasurePoint(Autobahn, 4, load, 15*time.Second, 1)
	bull := MeasurePoint(Bullshark, 4, load, 15*time.Second, 1)
	t.Logf("autobahn: tput=%.0f lat=%v", auto.Throughput, auto.MeanLat)
	t.Logf("bullshark: tput=%.0f lat=%v", bull.Throughput, bull.MeanLat)

	if auto.Throughput < 0.95*load {
		t.Errorf("Autobahn did not sustain %.0f tx/s: %.0f", load, auto.Throughput)
	}
	if bull.Throughput < 0.95*load {
		t.Errorf("Bullshark did not sustain %.0f tx/s: %.0f", load, bull.Throughput)
	}
	if ratio := float64(bull.MeanLat) / float64(auto.MeanLat); ratio < 1.6 {
		t.Errorf("latency ratio Bullshark/Autobahn = %.2f, want >= 1.6 (paper: 2.1)", ratio)
	}
}

func TestVanillaSaturatesEarly(t *testing.T) {
	ok := MeasurePoint(VanillaHS, 4, 15e3, 15*time.Second, 1)
	t.Logf("vanilla@15k: tput=%.0f lat=%v", ok.Throughput, ok.MeanLat)
	if ok.Throughput < 0.95*15e3 || ok.MeanLat > time.Second {
		t.Errorf("VanillaHS should sustain 15k tx/s comfortably: tput=%.0f lat=%v", ok.Throughput, ok.MeanLat)
	}
	sat := MeasurePoint(VanillaHS, 4, 100e3, 15*time.Second, 1)
	t.Logf("vanilla@100k: tput=%.0f lat=%v", sat.Throughput, sat.MeanLat)
	if sat.Throughput > 50e3 {
		t.Errorf("VanillaHS sustained %.0f at 100k offered; expected hard saturation well below", sat.Throughput)
	}
}

// TestBlipSeamlessness asserts the Fig. 1/7 contrast: VanillaHS suffers a
// hangover after a leader-failure blip; Autobahn recovers seamlessly.
func TestBlipSeamlessness(t *testing.T) {
	vhs := RunBlip(BlipConfig{System: VanillaHS, Load: 15e3, Duration: 25 * time.Second})
	auto := RunBlip(BlipConfig{System: Autobahn, Load: 200e3, Duration: 25 * time.Second})
	if testing.Verbose() {
		PrintBlip(os.Stdout, vhs, 25)
		PrintBlip(os.Stdout, auto, 25)
	}
	t.Logf("VanillaHS: baseline=%v peak=%v hangover=%v", vhs.Baseline, vhs.PeakLat, vhs.Hangover)
	t.Logf("Autobahn:  baseline=%v peak=%v hangover=%v plateau=%v", auto.Baseline, auto.PeakLat, auto.Hangover, auto.Plateau)

	// Both blip (peak latency >> baseline) — the failure is real.
	if vhs.PeakLat < 2*time.Second {
		t.Errorf("VanillaHS blip too small: peak=%v", vhs.PeakLat)
	}
	// VanillaHS hangs over; Autobahn does not.
	if vhs.Hangover < time.Second {
		t.Errorf("VanillaHS hangover = %v, expected >= 1s", vhs.Hangover)
	}
	if auto.Hangover > time.Second {
		t.Errorf("Autobahn hangover = %v, expected seamless (~0)", auto.Hangover)
	}
	// The slow-path plateau ends when the crashed replica has caught up:
	// ~150 MB missed over 23 MB/s of ingest headroom at this load, not the
	// end of the run (DESIGN.md §1.14).
	if auto.Plateau > 12*time.Second {
		t.Errorf("Autobahn plateau = %v, want <= 12s", auto.Plateau)
	}
}

// TestRestartBlipSeamless is the recovery scenario of ISSUE 2: a replica
// crashes mid-run and its process restarts from its journal at the end
// of the down window. The cluster must commit everything with no
// hangover beyond the window, and the restarted replica must not dent
// steady-state latency after rejoining.
func TestRestartBlipSeamless(t *testing.T) {
	for _, tc := range []struct {
		name     string
		amnesia  bool
		minTotal uint64
	}{
		// Journal-backed: every offered tx commits (20k tx/s for 25s).
		{"journal-backed", false, 499_000},
		// Amnesia: the amnesiac's own lane halts (peers never vote below
		// their frontier for it), so its post-restart share of the load is
		// lost — but every other lane commits in full.
		{"amnesia", true, 425_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := RunRestartBlip(BlipConfig{Load: 20e3, Duration: 25 * time.Second}, tc.amnesia)
			if testing.Verbose() {
				PrintBlip(os.Stdout, r, 25)
			}
			t.Logf("baseline=%v peak=%v resume=%v hangover=%v total=%d", r.Baseline, r.PeakLat, r.BlipEnd, r.Hangover, r.Total)
			if r.Total < tc.minTotal {
				t.Errorf("committed %d txs, want >= %d", r.Total, tc.minTotal)
			}
			// No hangover beyond the down window (the seamlessness claim).
			if r.Hangover > time.Second {
				t.Errorf("restart hangover = %v, want ~0", r.Hangover)
			}
			if r.BlipEnd > r.FaultTo+time.Second {
				t.Errorf("commits resumed at %v, well past the fault end %v", r.BlipEnd, r.FaultTo)
			}
		})
	}
}

func TestAblationDirection(t *testing.T) {
	r := Ablation(4, 150e3, 12*time.Second, 1)
	t.Logf("full=%v noFast=%v certified=%v neither=%v", r.Full, r.NoFastPath, r.CertifiedTips, r.Neither)
	if r.NoFastPath <= r.Full {
		t.Errorf("disabling the fast path should cost latency: %v <= %v", r.NoFastPath, r.Full)
	}
	if r.CertifiedTips <= r.Full {
		t.Errorf("certified-only tips should cost latency: %v <= %v", r.CertifiedTips, r.Full)
	}
}

func TestPartitionContrast(t *testing.T) {
	auto := RunPartition(PartitionConfig{System: Autobahn})
	bull := RunPartition(PartitionConfig{System: Bullshark})
	vhs := RunPartition(PartitionConfig{System: VanillaHS})
	for _, r := range []PartitionResult{auto, bull, vhs} {
		t.Logf("%-10s recovery=%v worstInBlip=%v total=%d", r.System, r.Recovery, r.WorstInBlip, r.Total)
	}
	// The paper's shape: Autobahn recovers almost immediately (~1s,
	// bandwidth-bound sync only); Bullshark recovers promptly too (the
	// paper's ~9s includes TCP reconnection effects our simulator does
	// not model — see EXPERIMENTS.md); VanillaHS's hangover is
	// proportional to the blip and dwarfs both.
	if auto.Recovery > 4*time.Second {
		t.Errorf("Autobahn partition recovery %v, want small (~1-2s)", auto.Recovery)
	}
	if bull.Recovery > 8*time.Second {
		t.Errorf("Bullshark partition recovery %v, want bounded (<8s)", bull.Recovery)
	}
	if vhs.Recovery < 4*auto.Recovery || vhs.Recovery < 8*time.Second {
		t.Errorf("VanillaHS hangover should dwarf Autobahn's: %v vs %v", vhs.Recovery, auto.Recovery)
	}
}
