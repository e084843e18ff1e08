package harness

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"recipe/internal/loadgen"
	"recipe/internal/workload"
)

// openLoopConfig assembles the boilerplate shared by the open-loop tests:
// a loadgen.Config wired to this cluster's connection mint, chaos target,
// and intended/service histograms.
func openLoopConfig(c *Cluster, rate float64, d time.Duration, conns int, seed int64) loadgen.Config {
	return loadgen.Config{
		Rate:      rate,
		Duration:  d,
		Sessions:  1000,
		Conns:     conns,
		Workload:  workload.Config{Keys: 256, ReadRatio: 0.5, ValueSize: 64, Seed: seed},
		NewClient: c.Client,
		Intended:  c.ClientHistogram(loadgen.MetricIntendedRTT, "intended-start latency"),
		Target:    c,
	}
}

// TestOpenLoopSmokeRate is the CI smoke leg: a healthy cluster must keep up
// with a modest Poisson arrival rate (achieved within 5% of offered, no
// client errors) and the intended-latency histogram must hold a full
// percentile ladder.
func TestOpenLoopSmokeRate(t *testing.T) {
	c := startCluster(t, fastOpts(Raft, true))
	cfg := openLoopConfig(c, 400, 1500*time.Millisecond, 8, 1)
	if err := c.Preload(cfg.Workload); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen.Run: %v", err)
	}
	if rep.Errors != 0 {
		t.Errorf("healthy run saw %d client errors", rep.Errors)
	}
	if rep.Completed != rep.Generated-rep.Errors {
		t.Errorf("completed %d of %d generated arrivals", rep.Completed, rep.Generated)
	}
	if rep.Achieved < 0.95*rep.Offered {
		t.Errorf("achieved %.0f ops/s for offered %.0f: fell below 95%%", rep.Achieved, rep.Offered)
	}
	snap := cfg.Intended.Snapshot()
	if int(snap.Count) != rep.Completed+rep.Errors {
		t.Errorf("intended histogram holds %d samples, want %d", snap.Count, rep.Completed+rep.Errors)
	}
	p50, p99, p999 := snap.Quantile(0.50), snap.Quantile(0.99), snap.Quantile(0.999)
	if p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Errorf("percentile ladder broken: p50=%.0fns p99=%.0fns p999=%.0fns", p50, p99, p999)
	}
}

// TestOpenLoopCoordinatedOmission is the regression test for the measurement
// methodology itself. A ~500ms network stall (LinkDelay on every replica,
// which also delays the client links) is injected mid-run. The open-loop
// driver charges latency from each arrival's *intended* start, so the stall
// surfaces in p99; the closed-loop control — same driver, same schedule,
// Closed:true — only has Conns operations in flight to slow down, so its
// percentiles stay low. That disagreement IS coordinated omission: if both
// modes ever agree under a stall, the open-loop ledger has regressed.
func TestOpenLoopCoordinatedOmission(t *testing.T) {
	const stall = 500 * time.Millisecond
	schedText := func(order []string) string {
		var b strings.Builder
		for _, id := range order {
			fmt.Fprintf(&b, "@400ms delay %s %s\n", id, stall)
		}
		for _, id := range order {
			fmt.Fprintf(&b, "@900ms clear-delay %s\n", id)
		}
		return b.String()
	}
	run := func(closed bool) (loadgen.Report, *loadgen.ChaosSchedule, float64, float64, float64) {
		c := startCluster(t, fastOpts(Raft, true))
		sched, err := loadgen.ParseChaosSchedule(schedText(c.Order))
		if err != nil {
			t.Fatalf("ParseChaosSchedule: %v", err)
		}
		cfg := openLoopConfig(c, 800, 2500*time.Millisecond, 8, 2)
		cfg.Chaos = sched
		cfg.Closed = closed
		if err := c.Preload(cfg.Workload); err != nil {
			t.Fatalf("Preload: %v", err)
		}
		rep, err := loadgen.Run(cfg)
		if err != nil {
			t.Fatalf("loadgen.Run(closed=%v): %v", closed, err)
		}
		snap := cfg.Intended.Snapshot()
		return rep, sched, snap.Quantile(0.50), snap.Quantile(0.99), snap.ShareAbove(150 * time.Millisecond)
	}

	openRep, _, openP50, openP99, openShare := run(false)
	closedRep, _, closedP50, closedP99, closedShare := run(true)
	t.Logf("open:   %d ops, p50=%.1fms p99=%.1fms share>150ms=%.1f%%",
		openRep.Completed, openP50/1e6, openP99/1e6, 100*openShare)
	t.Logf("closed: %d ops, p50=%.1fms p99=%.1fms share>150ms=%.1f%%",
		closedRep.Completed, closedP50/1e6, closedP99/1e6, 100*closedShare)

	// The open loop must surface the stall: arrivals scheduled during the
	// window waited out most of it, so p99 sees at least half the stall.
	if want := float64(stall) / 2; openP99 < want {
		t.Errorf("open-loop p99 = %.1fms did not surface the %.0fms stall (want >= %.0fms)",
			openP99/1e6, float64(stall)/1e6, want/1e6)
	}
	if openShare < 0.05 {
		t.Errorf("open loop charged only %.2f%% of arrivals >150ms; the stall window alone covers ~20%% of the run", 100*openShare)
	}
	// The closed loop must hide it: only Conns in-flight ops slow down.
	if limit := float64(stall) / 2; closedP99 >= limit {
		t.Errorf("closed-loop p99 = %.1fms unexpectedly surfaced the stall (want < %.0fms) — control is no longer closed-loop",
			closedP99/1e6, limit/1e6)
	}
	if openShare < 5*closedShare {
		t.Errorf("stall share: open %.2f%% vs closed %.2f%% — open loop must charge at least 5x more of its ops to the stall",
			100*openShare, 100*closedShare)
	}
}

// TestChaosReplayDeterministic: one schedule, two identically-seeded fresh
// clusters — the executed details and the chaos trace (kind + detail, in
// order) must match exactly. This is what makes a chaos run a reproducible
// experiment rather than an anecdote.
func TestChaosReplayDeterministic(t *testing.T) {
	const schedText = `
@50ms  crash n2
@250ms recover n2
@300ms delay n1 5ms
@400ms clear-delay n1
`
	type runTrace struct {
		details []string
		trace   []string
	}
	runOnce := func() runTrace {
		c := startCluster(t, fastOpts(Raft, true))
		sched, err := loadgen.ParseChaosSchedule(schedText)
		if err != nil {
			t.Fatalf("ParseChaosSchedule: %v", err)
		}
		cfg := openLoopConfig(c, 300, 600*time.Millisecond, 4, 3)
		cfg.Chaos = sched
		if err := c.Preload(cfg.Workload); err != nil {
			t.Fatalf("Preload: %v", err)
		}
		rep, err := loadgen.Run(cfg)
		if err != nil {
			t.Fatalf("loadgen.Run: %v", err)
		}
		var rt runTrace
		for _, ex := range rep.ChaosEvents {
			if ex.Err != nil {
				t.Fatalf("chaos event %s failed: %v", ex.Event, ex.Err)
			}
			rt.details = append(rt.details, string(ex.Event.Action)+" "+ex.Detail)
		}
		for _, ev := range c.ChaosTraceEvents() {
			rt.trace = append(rt.trace, ev.Kind+" "+ev.Detail)
		}
		return rt
	}
	a, b := runOnce(), runOnce()
	if strings.Join(a.details, "\n") != strings.Join(b.details, "\n") {
		t.Errorf("executed details diverged across replays:\n%q\nvs\n%q", a.details, b.details)
	}
	if strings.Join(a.trace, "\n") != strings.Join(b.trace, "\n") {
		t.Errorf("chaos traces diverged across replays:\n%q\nvs\n%q", a.trace, b.trace)
	}
}

// TestOpenLoopChaosZeroLostAcks is the end-to-end safety check: an open-loop
// run over a durable cluster with a crash+recover schedule must not lose a
// single acknowledged write, and every executed chaos event must appear in
// the cluster's chaos trace with a timestamp consistent with its schedule.
func TestOpenLoopChaosZeroLostAcks(t *testing.T) {
	opts := fastOpts(Raft, true)
	opts.Durability = true
	c := startCluster(t, opts)
	sched, err := loadgen.ParseChaosSchedule("@300ms crash follower\n@900ms recover follower\n")
	if err != nil {
		t.Fatalf("ParseChaosSchedule: %v", err)
	}
	cfg := openLoopConfig(c, 400, 1500*time.Millisecond, 8, 4)
	cfg.Chaos = sched

	// Track the newest acknowledged version per key; any later Get must see
	// at least that version, or an acked write was lost.
	var mu sync.Mutex
	acked := make(map[string]uint64)
	cfg.OnResult = func(r loadgen.Result) {
		if r.Err != nil || !r.Res.OK || r.Op.Read || r.Op.Delete {
			return
		}
		mu.Lock()
		if r.Res.Version.TS > acked[r.Op.Key] {
			acked[r.Op.Key] = r.Res.Version.TS
		}
		mu.Unlock()
	}
	if err := c.Preload(cfg.Workload); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	start := time.Now()
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen.Run: %v", err)
	}
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged; the run proved nothing")
	}
	t.Logf("%d completed ops, %d errors, %d distinct acked keys", rep.Completed, rep.Errors, len(acked))

	cli, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer cli.Close()
	lost := 0
	for key, ts := range acked {
		res, err := cli.Get(key)
		if err != nil {
			t.Fatalf("post-run Get(%s): %v", key, err)
		}
		if !res.OK || res.Version.TS < ts {
			lost++
			t.Errorf("acked write lost: key %s acked at ts=%d, read back OK=%v ts=%d", key, ts, res.OK, res.Version.TS)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked writes lost across crash+recover", lost, len(acked))
	}

	// Every in-window schedule entry must have executed and left a matching
	// chaos trace whose timestamp sits inside the event's execution window.
	ring := c.ChaosTraceEvents()
	for _, ex := range rep.ChaosEvents {
		if ex.Err != nil {
			t.Fatalf("chaos event %s failed: %v", ex.Event, ex.Err)
		}
		kind := "chaos-" + string(ex.Event.Action)
		found := false
		for _, ev := range ring {
			if ev.Kind != kind || ev.Detail != ex.Detail {
				continue
			}
			found = true
			// The trace is stamped between the scheduled offset and the
			// executor's recorded completion offset (both measured from the
			// run's internal start, which follows `start` after connection
			// minting — allow that slack on the upper bound).
			off := ev.Time.Sub(start)
			if off < ex.Event.At || off > ex.Offset+2*time.Second {
				t.Errorf("trace %s %q stamped at offset %s, outside [%s, %s+slack]",
					ev.Kind, ev.Detail, off, ex.Event.At, ex.Offset)
			}
		}
		if !found {
			t.Errorf("executed chaos event %s (detail %q) missing from ChaosTraceEvents", ex.Event, ex.Detail)
		}
	}
	// The faults must also be visible on the nodes' own flight recorders,
	// interleaved with protocol events for postmortem dumps.
	kinds := make(map[string]bool)
	for _, id := range c.Order {
		for _, ev := range c.Nodes[id].TraceEvents() {
			kinds[ev.Kind] = true
		}
	}
	for _, want := range []string{"chaos-crash", "chaos-recover"} {
		if !kinds[want] {
			t.Errorf("no node flight recorder holds a %s event", want)
		}
	}
}
