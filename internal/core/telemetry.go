package core

import (
	"strings"

	"recipe/internal/telemetry"
)

// Phase histogram names: one histogram per stage of a request's life, so a
// latency budget can be read off per phase. All values are nanoseconds.
// The client round-trip histogram (recipe_phase_client_rtt_ns) is recorded
// by whoever drives the client (the harness); everything here is node-side.
const (
	// MetricPhaseIngressVerify times the authn decode+MAC-verify of one
	// inbound envelope on the protocol loop.
	MetricPhaseIngressVerify = "recipe_phase_ingress_verify_ns"
	// MetricPhaseQueueWait times one loop iteration's dwell in the commit
	// queue before the committer picks it up (durable nodes only; nothing
	// records on memory-only nodes).
	MetricPhaseQueueWait = "recipe_phase_queue_wait_ns"
	// MetricPhaseEgressSeal times sealing one peer's coalesced batch into
	// envelopes and handing it to the transport.
	MetricPhaseEgressSeal = "recipe_phase_egress_seal_ns"
	// MetricPhaseWALFsync times each sealed-WAL fsync (group commit).
	MetricPhaseWALFsync = "recipe_phase_wal_fsync_ns"
	// MetricPhaseRaftCommitLag times leader append → commit apply per
	// command (quorum replication latency as the leader observes it).
	MetricPhaseRaftCommitLag = "recipe_phase_raft_commit_lag_ns"
	// MetricPhaseNetFlush times one transport flush's network writes.
	MetricPhaseNetFlush = "recipe_phase_net_flush_ns"
	// MetricPhaseNetDwell times how long a peer's oldest queued frame
	// waited in the transport send queue before its flush.
	MetricPhaseNetDwell = "recipe_phase_net_dwell_ns"
	// MetricPhaseClientRTT is the client-observed round trip; recorded by
	// the harness driver, named here so every layer agrees on it.
	MetricPhaseClientRTT = "recipe_phase_client_rtt_ns"
)

// PhaseEnv is the optional Env extension protocols use to record into the
// node's phase histograms. Like ReadEnv, protocols discover it by type
// assertion at Init; a node with telemetry disabled returns nil (histogram
// methods are nil-safe, so protocols need no further checks).
type PhaseEnv interface {
	// PhaseHistogram returns the named phase histogram, registering it on
	// first use. Returns nil when telemetry is disabled.
	PhaseHistogram(name string) *telemetry.Histogram
}

// initTelemetry builds the node's registry, phase histograms, and flight
// recorder, and registers the pre-existing counters behind it. Called from
// NewNode before the WAL is built (it takes the fsync histogram).
func (n *Node) initTelemetry() {
	if n.cfg.DisableTelemetry {
		return
	}
	r := telemetry.NewRegistry()
	n.reg = r
	n.ring = telemetry.NewTraceRing(0)

	n.phase.ingressVerify = r.Histogram(MetricPhaseIngressVerify, "authn decode+verify latency of one inbound envelope (ns)")
	n.phase.queueWait = r.Histogram(MetricPhaseQueueWait, "commit-queue dwell before the committer (ns)")
	n.phase.egressSeal = r.Histogram(MetricPhaseEgressSeal, "seal+encode+hand-off latency of one outbound batch (ns)")
	n.phase.walFsync = r.Histogram(MetricPhaseWALFsync, "sealed-WAL fsync latency per group commit (ns)")
	r.Histogram(MetricPhaseRaftCommitLag, "leader append to commit apply per command (ns)")
	n.phase.netFlush = r.Histogram(MetricPhaseNetFlush, "transport flush network-write latency (ns)")
	n.phase.netDwell = r.Histogram(MetricPhaseNetDwell, "send-queue dwell of a peer's oldest queued frame (ns)")

	r.CounterFunc("recipe_delivered_total", "verified protocol/client messages delivered", n.stats.Delivered.Load)
	r.CounterFunc("recipe_buffered_total", "authentic out-of-order messages parked", n.stats.Buffered.Load)
	r.CounterFunc("recipe_drop_replay_total", "replays rejected", n.stats.DropReplay.Load)
	r.CounterFunc("recipe_drop_mac_total", "tampered/forged messages rejected", n.stats.DropMAC.Load)
	r.CounterFunc("recipe_drop_view_total", "other-view messages rejected", n.stats.DropView.Load)
	r.CounterFunc("recipe_drop_group_total", "cross-shard messages rejected", n.stats.DropGroup.Load)
	r.CounterFunc("recipe_drop_epoch_total", "stale-configuration-epoch messages rejected", n.stats.DropEpoch.Load)
	r.CounterFunc("recipe_drop_malformed_total", "undecodable packets", n.stats.DropMalformed.Load)
	r.CounterFunc("recipe_drop_rollback_total", "sealed recoveries rejected (rollback/fork/tamper)", n.stats.DropRollback.Load)
	r.CounterFunc("recipe_pipeline_stalls_total", "commit handoffs that blocked on a full commit queue", n.stats.PipelineStalls.Load)
	r.CounterFunc("recipe_reads_local_total", "reads served locally under an active lease", n.stats.LocalReads.Load)
	r.CounterFunc("recipe_reads_replica_total", "clean reads served by a non-coordinator replica", n.stats.ReplicaReads.Load)
	r.CounterFunc("recipe_lease_fallbacks_total", "local reads detoured to consensus on lease expiry", n.stats.LeaseFallbacks.Load)
	r.CounterFunc("recipe_suspicions_total", "peers newly suspected by the failure detector", n.stats.Suspicions.Load)
	r.CounterFunc("recipe_evictions_total", "own-group members removed by an adopted shard map", n.stats.Evictions.Load)
	r.CounterFunc("recipe_admission_rejects_total", "client ops shed by the admission gate", n.stats.AdmissionRejects.Load)
	r.CounterFunc("recipe_overflow_drops_total", "authenticated messages dropped on future-buffer overflow", n.shielder.OverflowDrops)
	r.CounterFunc("recipe_trace_events_total", "flight-recorder events recorded (including evicted)", n.ring.Total)

	r.GaugeFunc("recipe_epoch", "current configuration epoch", func() float64 { return float64(n.epoch.Load()) })
	if n.al != nil {
		r.GaugeFunc("recipe_lease_width_ns", "adaptive leader-lease holder width", func() float64 {
			h, _ := n.LeaseWidths()
			return float64(h)
		})
	}
	r.GaugeFunc("recipe_pipeline_depth_commit", "loop iterations awaiting their group-commit fsync", func() float64 {
		return float64(n.CommitDepth())
	})
}

// Telemetry returns the node's metrics registry, nil when
// NodeConfig.DisableTelemetry was set.
func (n *Node) Telemetry() *telemetry.Registry { return n.reg }

// PhaseHistogram implements PhaseEnv for protocols (via nodeEnv).
func (n *Node) PhaseHistogram(name string) *telemetry.Histogram {
	if n.reg == nil {
		return nil
	}
	return n.reg.Histogram(name, "")
}

// TraceEvents returns the flight recorder's retained events, oldest first
// (nil when telemetry is disabled).
func (n *Node) TraceEvents() []telemetry.Event { return n.ring.Events() }

// trace records one flight-recorder event stamped with the node's identity,
// group, and current epoch. Warm-path callers pass static detail strings so
// recording stays allocation-free.
func (n *Node) trace(kind, detail string) {
	if n.ring == nil {
		return
	}
	n.ring.Record(telemetry.Event{
		Kind:   kind,
		Node:   n.id,
		Group:  n.group,
		Epoch:  n.epoch.Load(),
		Detail: detail,
	})
}

// RecordTrace stamps an externally-sourced event into the node's flight
// recorder — the chaos executor uses it so every injected fault appears in
// the same postmortem timeline as the node's own protocol events. No-op
// when telemetry is disabled.
func (n *Node) RecordTrace(kind, detail string) { n.trace(kind, detail) }

// dumpTrace writes the flight-recorder contents through the node's logger —
// the crash-stop postmortem. reason names what killed the node.
func (n *Node) dumpTrace(reason string) {
	if n.ring == nil {
		return
	}
	n.trace("crash-stop", reason)
	var sb strings.Builder
	_ = n.ring.Dump(&sb)
	n.cfg.Logf("node %s: crash-stop (%s)\n%s", n.id, reason, strings.TrimRight(sb.String(), "\n"))
}
