package main

// The benchmark's contract: workload and metric names, units, directions
// and regression bounds. BENCHMARK.json at the repository root carries the
// same table for the driver; TestSpecMatchesBenchmarkJSON keeps the two
// equal. Later issues cite these names, so they are fixed.

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 30

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var workloadDefs = []workloadDef{
	{"sim_wan_blip", "virtual-time WAN, n=4, crash of a rotating leader: latency counts message delays, so protocol changes show and CPU work does not"},
	{"tcp_bulk", "4 replicas on loopback TCP at 50k tx/s, no WAL/exec/gateway: wire codec, TCP framing, batch hashing and lanes do most of the work"},
	{"tcp_gateway", "whole life of a transaction at 20k tx/s: gateway admit, mempool, car, commit, WAL, execution, ack, then a crash-restart from the WAL"},
	{"live_committee", "in-process n=10 with real ed25519 at 4k tx/s: certificates and vote fan-in on the control loop do most of the work, codec and sockets are bypassed"},
}

// Every end-to-end metric is reported on every workload; each workload has
// a steady window, a fault, and a recovered window (see README). Three
// metrics the issue proposed did not repeat within a tenth and are
// per-layer diagnostics below, under the issue's own rule: cpu_us_per_tx
// (8-20 % between identical runs on this sandbox), blip_mean_ms and
// rejoin_s (what a fault costs depends on which replica leads when it
// lands).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.20},
	{"commit_p99_ms", "ms", "lower", 0.15},
	{"committed_tps", "tx/s", "higher", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"blip_unavail_s", "s", "lower", 0.10},
	{"recovered_p50_ms", "ms", "lower", 0.25},
}

// Per-layer metrics carry no bound. Layer = package name.
var perLayerDefs = []metricDef{
	// generator honesty and trace cost (the benchmark's own layer).
	{"gen.late_p99_ms", "ms", "lower", 0},
	{"gen.late_max_ms", "ms", "lower", 0},
	{"gen.cpu_util", "ratio", "lower", 0},
	{"trace.commit_p50_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.sampled", "count", "higher", 0},

	// What the process spent per committed transaction in the steady
	// window, generator included. Heap allocation repeats within 1 %.
	{"process.cpu_us_per_tx", "us", "lower", 0},
	{"process.alloc_bytes_per_tx", "bytes", "lower", 0},
	{"process.allocs_per_tx", "count", "lower", 0},

	// The fault, beyond its two bounded metrics: one draw per run on the
	// live workloads, averaged over the crash phases in the simulator.
	{"fault.blip_mean_ms", "ms", "lower", 0},
	{"fault.rejoin_s", "s", "lower", 0},

	{"gateway.ingress_ms", "ms", "lower", 0},
	{"gateway.ack_ms", "ms", "lower", 0},
	{"gateway.submit_call_us", "us", "lower", 0},
	{"gateway.envelope_ns", "ns", "lower", 0},
	{"gateway.admitted", "count", "higher", 0},
	{"gateway.rejected", "count", "lower", 0},
	{"gateway.deduped", "count", "lower", 0},
	{"gateway.ack_drops", "count", "lower", 0},
	{"gateway.chain_dups", "count", "lower", 0},
	{"gateway.server_ack_mean_ms", "ms", "lower", 0},

	{"mempool.wait_ms", "ms", "lower", 0},
	{"mempool.txs_per_batch", "count", "higher", 0},
	{"mempool.addtx_ns", "ns", "lower", 0},

	{"transport.control_frames_per_batch", "count", "lower", 0},
	{"transport.data_bytes_per_tx", "bytes", "lower", 0},
	{"transport.control_bytes_per_tx", "bytes", "lower", 0},
	{"transport.frames_per_flush", "count", "higher", 0},
	{"transport.control_events", "count", "lower", 0},
	{"transport.shard_events", "count", "lower", 0},
	{"transport.inbox_drops", "count", "lower", 0},
	{"transport.egress_drops", "count", "lower", 0},
	{"transport.redials", "count", "lower", 0},
	{"transport.stalls", "count", "lower", 0},

	{"wire.encode_car_us", "us", "lower", 0},
	{"wire.decode_car_us", "us", "lower", 0},
	{"wire.decode_car_copy_us", "us", "lower", 0},
	{"wire.encode_vote_ns", "ns", "lower", 0},
	{"wire.decode_vote_ns", "ns", "lower", 0},
	{"wire.car_allocs", "count", "lower", 0},
	{"wire.vote_allocs", "count", "lower", 0},

	{"crypto.sign_us", "us", "lower", 0},
	{"crypto.verify_us", "us", "lower", 0},
	{"crypto.verify_cert_q3_us", "us", "lower", 0},
	{"crypto.verify_cert_q7_us", "us", "lower", 0},
	{"crypto.verify_cert_memo_ns", "ns", "lower", 0},
	{"crypto.cert_cache_hit_ratio", "ratio", "higher", 0},
	{"crypto.preverify_hit_ratio", "ratio", "higher", 0},

	{"types.batch_digest_us", "us", "lower", 0},

	{"core.seal_to_commit_ms", "ms", "lower", 0},
	{"core.commit_spread_ms", "ms", "lower", 0},
	{"core.cars_per_s", "1/s", "lower", 0},
	{"core.txs_per_car", "count", "higher", 0},
	{"core.slots_per_s", "1/s", "higher", 0},
	{"core.txs_per_slot", "count", "higher", 0},
	{"core.votes_per_batch", "count", "lower", 0},
	{"core.timeouts_sent", "count", "lower", 0},
	{"core.handler_us_per_event", "us", "lower", 0},

	{"consensus.fast_commit_ratio", "ratio", "higher", 0},
	{"consensus.view_changes", "count", "lower", 0},

	{"fetch.sync_requests", "count", "lower", 0},
	{"fetch.sync_replies_served", "count", "lower", 0},
	{"fetch.snapshots_installed", "count", "lower", 0},

	{"storage.put_us", "us", "lower", 0},
	{"storage.flush_us", "us", "lower", 0},
	{"storage.wal_bytes_per_tx", "bytes", "lower", 0},
	{"storage.reopen_ms", "ms", "lower", 0},
	{"storage.snapshot_bytes", "bytes", "lower", 0},

	{"exec.apply_us_per_ktx", "us", "lower", 0},

	{"sim.events_per_tx", "count", "lower", 0},
	{"sim.msgs_per_tx", "count", "lower", 0},
	{"sim.wall_ms_per_virtual_s", "ms", "lower", 0},
}

func findWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}
