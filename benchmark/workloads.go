package main

import (
	"recipe/internal/harness"
	"recipe/internal/workload"
)

// keySpace is the number of preloaded keys on every workload (the paper's
// evaluation size).
const keySpace = 10_000

// clusterSeed seeds the cluster's own randomness (election jitter, skip-list
// towers, client coordinator choice). It is a constant: --seed varies the
// inputs, never the program.
const clusterSeed = 1

// workloadDef is one benchmark workload: a cluster configuration, an
// operation mix, and the literal open-loop rates of its four rungs.
type workloadDef struct {
	name string
	// why is the one line BENCHMARK.json carries for this workload.
	why     string
	cluster harness.Options
	mix     workload.Config
	// rungs are the offered rates in ops/s of the lo, mid, hi and over
	// rungs: about 20/35/50/130 % of the closed-loop peak measured when the
	// benchmark was written. They are literals, never recomputed at run
	// time; recalibrate with -calibrate and edit them here.
	rungs [4]float64
	// leaderless protocols have no single coordinator to crash; the fault
	// phase crashes the replica that handled the most messages instead.
	leaderless bool
}

// faultRate is the offered rate while replicas crash: the lo rung, so the
// surviving pair has headroom to drain what queued during an outage.
func (w *workloadDef) faultRate() float64 { return w.rungs[0] }

var rungNames = [4]string{"lo", "mid", "hi", "over"}

// workloads lists the five workloads in run order.
var workloads = []workloadDef{
	{
		name:    "raft-read",
		why:     "R-Raft shielded, 95/5 get/put, 256 B, zipfian: client router, client-leader authn, leases and kvstore gets do the work",
		cluster: harness.Options{Protocol: harness.Raft, Shielded: true},
		mix:     workload.Config{ReadRatio: 0.95, ValueSize: 256},
		rungs:   [4]float64{5000, 9000, 13000, 32000},
	},
	{
		name:    "raft-write",
		why:     "same cluster, 100 % put: Raft replication, node-to-node envelopes and store writes; a read-path gain that taxes writes shows here",
		cluster: harness.Options{Protocol: harness.Raft, Shielded: true},
		mix:     workload.Config{ReadRatio: 0, ValueSize: 256},
		rungs:   [4]float64{2000, 4000, 6000, 14000},
	},
	{
		name:       "abd-conf-4k",
		why:        "R-ABD leaderless, confidential, 50/50, 4 KiB, uniform keys: AEAD, per-KiB charges and large buffers dominate; no leader, lease or log",
		cluster:    harness.Options{Protocol: harness.ABD, Shielded: true, Confidential: true},
		mix:        workload.Config{ReadRatio: 0.5, ValueSize: 4096, Skew: workload.Uniform},
		rungs:      [4]float64{800, 1600, 2000, 5200},
		leaderless: true,
	},
	{
		name:    "native-raft",
		why:     "unshielded Raft, 50/50, 256 B: bypasses authn, TEE costs and the shielded stack, so a shield optimisation must leave it unchanged",
		cluster: harness.Options{Protocol: harness.Raft},
		mix:     workload.Config{ReadRatio: 0.5, ValueSize: 256},
		rungs:   [4]float64{12000, 24000, 32000, 90000},
	},
	{
		name:    "raft-durable-failover",
		why:     "R-Raft shielded with the sealed WAL, 50/50, 256 B: fsync group commit, and crashes that drop the unsynced tail, make seal and recovery work",
		cluster: harness.Options{Protocol: harness.Raft, Shielded: true, Durability: true},
		mix:     workload.Config{ReadRatio: 0.5, ValueSize: 256},
		rungs:   [4]float64{1250, 2250, 3000, 7000},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one metric's name and unit, in report order.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_lo_p50_us", "us"},
	{"lat_mid_p50_us", "us"},
	{"peak_tput_ops_s", "ops/s"},
	{"max_rate_in_slo_ops_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"lat_fault_p50_us", "us"},
	{"unavail_ms", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload.
// The prefix before the first dot-separated metric word is the module.
var perLayer = []metricDef{
	{"loadgen.gen_lag_p50_us", "us"},
	{"loadgen.gen_lag_p99_us", "us"},
	{"loadgen.lat_mid_p99_us", "us"},
	{"loadgen.lat_mid_p999_us", "us"},
	{"loadgen.lat_hi_p50_us", "us"},
	{"loadgen.lat_hi_p99_us", "us"},
	{"loadgen.lat_fault_p99_us", "us"},
	{"loadgen.svc_mid_p50_us", "us"},
	{"loadgen.svc_mid_p99_us", "us"},
	{"loadgen.trace_overhead_frac", "ratio"},
	{"workload.next_ns", "ns"},

	{"harness.new_ms", "ms"},
	{"harness.elect_ms", "ms"},
	{"harness.preload_ms", "ms"},
	{"harness.recover_ms", "ms"},
	{"harness.recover_lost_acked_writes", "count"},
	{"harness.recover_divergent_keys", "count"},
	{"harness.recover_stale_reads", "count"},
	{"harness.elect_after_crash_ms", "ms"},
	{"attest.remote_attest_us", "us"},
	{"reconfig.map_verify_us", "us"},

	{"core.client.get_p50_us", "us"},
	{"core.client.put_p50_us", "us"},
	{"core.client.retries_per_kop", "count"},
	{"core.client.busy_per_kop", "count"},
	{"core.client.failover_retry_ms", "ms"},
	{"core.client.reissued_per_crash", "count"},
	{"core.client.alloc_bytes_per_op", "B"},
	{"core.client.unattributed_us", "us"},
	{"core.client.unattributed_allocs", "count"},

	{"core.wire.encode_ns", "ns"},
	{"core.wire.decode_ns", "ns"},
	{"core.wire.allocs_per_msg", "count"},
	{"core.wire.bytes_per_msg", "B"},

	{"core.node.msgs_per_op", "count"},
	{"core.node.queue_wait_p50_us", "us"},
	{"core.node.pipeline_stalls_per_kop", "count"},
	{"core.node.local_read_frac", "ratio"},
	{"core.node.lease_fallbacks_per_kop", "count"},

	{"authn.shield_ns", "ns"},
	{"authn.verify_ns", "ns"},
	{"authn.envelope_encode_ns", "ns"},
	{"authn.envelope_decode_ns", "ns"},
	{"authn.roundtrip_ns", "ns"},
	{"authn.roundtrip_allocs", "count"},
	{"authn.shield_batch16_ns_per_msg", "ns"},
	{"authn.envelope_overhead_bytes", "B"},

	{"tee.transition_ns", "ns"},
	{"tee.conf_charge_ns", "ns"},
	{"netstack.stack_charge_ns", "ns"},
	{"netstack.send_ns", "ns"},
	{"netstack.queue_flush_ns_per_msg", "ns"},
	{"netstack.allocs_per_msg", "count"},
	{"netstack.pkts_per_op", "count"},
	{"netstack.bytes_per_op", "B"},

	{"kvstore.get_ns", "ns"},
	{"kvstore.write_ns", "ns"},
	{"kvstore.allocs_per_get", "count"},
	{"kvstore.allocs_per_write", "count"},
	{"kvstore.host_bytes_per_key", "B"},
	{"bufpool.getput_ns", "ns"},

	{"seal.append_ns", "ns"},
	{"seal.commit_us", "us"},
	{"seal.allocs_per_append", "count"},
	{"seal.bytes_per_record", "B"},
	{"seal.fsyncs_per_op", "count"},
	{"seal.replay_ms_per_10k", "ms"},
	{"seal.checkpoint_ms", "ms"},

	{"raft.step_ns_per_op", "ns"},
	{"raft.msgs_per_op", "count"},
	{"raft.bytes_per_op", "B"},
	{"raft.allocs_per_op", "count"},
	{"raft.elections_per_crash", "count"},
	{"abd.step_ns_per_op", "ns"},
	{"abd.msgs_per_op", "count"},
	{"abd.bytes_per_op", "B"},
	{"abd.allocs_per_op", "count"},
}
