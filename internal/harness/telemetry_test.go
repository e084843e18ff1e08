package harness

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"recipe/internal/core"
	"recipe/internal/telemetry"
	"recipe/internal/workload"
)

// A durable R-Raft cluster must record every phase of a write's life —
// queue wait included, since every ack crosses the commit stage — and the
// node-side phase timings must be consistent with the client round trip
// they decompose: each server phase is a slice of (or overlaps) the round
// trip, so no phase mean exceeds the round-trip mean wildly and the phases
// together account for a visible share of it.
func TestPhaseTimingsExplainRoundTrip(t *testing.T) {
	c, err := New(Options{
		Protocol:   Raft,
		Shielded:   true,
		Durability: true,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Write-only workload: every operation takes the full consensus +
	// durability path, so client RTT and the server phases describe the
	// same population of requests.
	cfg := workload.Config{Keys: 256, ReadRatio: 0, ValueSize: 128, Seed: 42}
	if err := c.Preload(cfg); err != nil {
		t.Fatal(err)
	}
	const totalOps = 600
	if _, err := c.RunOps(cfg, 4, totalOps); err != nil {
		t.Fatal(err)
	}

	ps := c.PhaseSnapshots()
	must := []string{
		core.MetricPhaseClientRTT,
		core.MetricPhaseIngressVerify,
		core.MetricPhaseQueueWait,
		core.MetricPhaseEgressSeal,
		core.MetricPhaseWALFsync,
		core.MetricPhaseRaftCommitLag,
		core.MetricPhaseNetFlush,
		core.MetricPhaseNetDwell,
	}
	for _, name := range must {
		s, ok := ps[name]
		if !ok || s.Count == 0 {
			t.Fatalf("phase %s recorded no observations (have %d phases: %v)", name, len(ps), phaseNames(ps))
		}
		if s.Quantile(0.99) < s.Quantile(0.5) {
			t.Errorf("phase %s: p99 %.0f < p50 %.0f", name, s.Quantile(0.99), s.Quantile(0.5))
		}
	}

	rtt := ps[core.MetricPhaseClientRTT]
	if rtt.Count != totalOps {
		t.Errorf("client RTT count %d, want %d", rtt.Count, totalOps)
	}
	rttMean := rtt.Mean()

	// The request-path phases: what one write traverses server-side. Their
	// means must sum to something commensurate with the round trip — not
	// near-zero (instrumentation dead) and not a large multiple of it
	// (double-counting). The bound is loose because phases overlap (the
	// commit lag contains the follower's verify+fsync) and batches share
	// one seal/flush across many requests.
	sum := 0.0
	for _, name := range []string{
		core.MetricPhaseIngressVerify,
		core.MetricPhaseQueueWait,
		core.MetricPhaseEgressSeal,
		core.MetricPhaseRaftCommitLag,
	} {
		s := ps[name]
		sum += s.Mean()
	}
	if sum <= 0 {
		t.Fatal("server phase means sum to zero")
	}
	if sum > 3*rttMean {
		t.Errorf("server phase means sum to %.0fns, more than 3x the client RTT mean %.0fns", sum, rttMean)
	}
	lagSnap := ps[core.MetricPhaseRaftCommitLag]
	if lag := lagSnap.Mean(); lag > 2*rttMean {
		t.Errorf("raft commit lag mean %.0fns exceeds 2x client RTT mean %.0fns", lag, rttMean)
	}

	// The registry also carries the unified counters; spot-check that the
	// merged export has delivered traffic and a current epoch.
	points := map[string]telemetry.Point{}
	for _, p := range c.Telemetry() {
		points[p.Name] = p
	}
	if points["recipe_delivered_total"].Value == 0 {
		t.Error("recipe_delivered_total is zero after a loaded run")
	}
	if points["recipe_epoch"].Value < 1 {
		t.Errorf("recipe_epoch = %v, want >= 1", points["recipe_epoch"].Value)
	}
}

func phaseNames(ps map[string]telemetry.Snapshot) []string {
	names := make([]string, 0, len(ps))
	for n := range ps {
		names = append(names, n)
	}
	return names
}

// NoTelemetry must produce a cluster with no registries and no recording —
// the zero-overhead control for the benchmark A/B.
func TestNoTelemetryDisablesEverything(t *testing.T) {
	c, err := New(Options{Protocol: Raft, Shielded: true, NoTelemetry: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{Keys: 64, ReadRatio: 0.5, Seed: 7}
	if err := c.Preload(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunOps(cfg, 2, 100); err != nil {
		t.Fatal(err)
	}
	if pts := c.Telemetry(); pts != nil {
		t.Fatalf("NoTelemetry cluster exported %d points", len(pts))
	}
	if s := c.ClientLatency(); s.Count != 0 {
		t.Fatalf("NoTelemetry cluster recorded %d client RTTs", s.Count)
	}
	for id, n := range c.Nodes {
		if n.Telemetry() != nil {
			t.Fatalf("node %s has a registry despite NoTelemetry", id)
		}
		if evs := n.TraceEvents(); evs != nil {
			t.Fatalf("node %s has trace events despite NoTelemetry", id)
		}
	}
}

// A crash-stop must dump the flight-recorder ring through the node's
// logger: the postmortem story for chaos-test failures.
func TestCrashStopDumpsFlightRecorder(t *testing.T) {
	var mu sync.Mutex
	var logs strings.Builder
	c, err := New(Options{
		Protocol:   Raft,
		Shielded:   true,
		Durability: true,
		Seed:       11,
		Logf: func(format string, args ...any) {
			mu.Lock()
			fmt.Fprintf(&logs, format+"\n", args...)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{Keys: 64, ReadRatio: 0, Seed: 11}
	if err := c.Preload(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunOps(cfg, 2, 100); err != nil {
		t.Fatal(err)
	}

	// Before the crash, the ring must already hold protocol history: at
	// minimum the leader change from the initial election (every replica
	// observes it) and the epoch adoption from attestation.
	victim := ""
	for _, id := range c.Groups[0].Order {
		if st := c.Nodes[id].Status(); !st.IsCoordinator {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("no follower to crash")
	}
	kinds := map[string]bool{}
	for _, ev := range c.TraceEvents(victim) {
		kinds[ev.Kind] = true
	}
	if !kinds["leader-change"] {
		t.Errorf("victim's trace ring lacks a leader-change event; kinds: %v", kinds)
	}
	if !kinds["epoch-adopt"] {
		t.Errorf("victim's trace ring lacks an epoch-adopt event; kinds: %v", kinds)
	}

	c.Crash(victim)

	mu.Lock()
	out := logs.String()
	mu.Unlock()
	if !strings.Contains(out, "crash-stop (simulated machine failure)") {
		t.Fatalf("crash did not log a crash-stop dump:\n%s", tail(out, 2000))
	}
	if !strings.Contains(out, "flight recorder:") {
		t.Fatalf("crash dump lacks the flight-recorder header:\n%s", tail(out, 2000))
	}
	if !strings.Contains(out, "leader-change") {
		t.Errorf("crash dump lacks the leader-change event:\n%s", tail(out, 2000))
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
