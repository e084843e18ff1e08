// Command recipe-bench regenerates every table and figure of the paper's
// evaluation section as text tables: Fig 3 (value sizes), Fig 4 (R/W ratios
// + speedup table), Fig 5 (confidentiality), Fig 6a (transformation/TEE
// overheads), Fig 6b (network stacks), Table 4 (CAS vs IAS attestation), and
// the §B.3 Damysus comparison.
//
// Beyond the paper's closed-loop tables, `-experiment openloop` is the
// honest-scale harness: Poisson arrivals at fixed offered rates
// (-rate/-sessions/-duration/-conns), coordinated-omission-free percentiles
// charged from intended arrival time, and an optional chaos schedule
// (-chaos FILE, or a built-in crash/recover/delay script) executed mid-run.
//
// Usage:
//
//	recipe-bench [-ops N] [-experiment all|fig3|fig4|fig5|fig6a|fig6b|table4|damysus|mem|durability|reads|phases|openloop] [-json FILE]
//	recipe-bench -experiment openloop [-rate 500,1000,2000] [-duration 5s] [-sessions 10000] [-conns 32] [-chaos FILE]
//
// Each cluster-driven experiment line carries client-observed latency
// percentiles (p50/p99/p999, µs) from the harness telemetry layer, and
// -json FILE additionally collects every measurement as a JSON array of
// {experiment, label, kops, latency} rows for machine consumption; every
// latency object is stamped with the offered and achieved rate (achieved <
// offered is the saturation signal).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"recipe/internal/attest"
	"recipe/internal/core"
	"recipe/internal/harness"
	"recipe/internal/loadgen"
	"recipe/internal/netstack"
	"recipe/internal/tee"
	"recipe/internal/telemetry"
	"recipe/internal/workload"
)

var (
	opsFlag        = flag.Int("ops", 4000, "operations per measurement")
	experimentFlag = flag.String("experiment", "all", "experiment to run (all, fig3, fig4, fig5, fig6a, fig6b, table4, damysus, mem, durability, reads, phases, openloop)")
	clientsFlag    = flag.Int("clients", 32, "closed-loop clients per measurement")
	keysFlag       = flag.Int("keys", 20000, "store size (keys) for the durability experiment")
	jsonFlag       = flag.String("json", "", "write every measurement as a JSON array to FILE")
	rateFlag       = flag.String("rate", "500,1000,2000", "openloop: comma-separated offered arrival rates (ops/s)")
	durationFlag   = flag.Duration("duration", 5*time.Second, "openloop: arrival-generation window per measurement")
	sessionsFlag   = flag.Int("sessions", 10_000, "openloop: logical client sessions multiplexed over the pool")
	connsFlag      = flag.Int("conns", 32, "openloop: pooled real connections (worker goroutines)")
	chaosFlag      = flag.String("chaos", "", "openloop: chaos schedule file for the chaos leg (default: built-in crash/recover/delay script)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	experiments := map[string]func() error{
		"fig3":       fig3,
		"fig4":       fig4,
		"fig5":       fig5,
		"fig6a":      fig6a,
		"fig6b":      fig6b,
		"table4":     table4,
		"damysus":    damysusCmp,
		"mem":        memTable,
		"durability": durabilityTable,
		"reads":      readsTable,
		"phases":     phasesTable,
		"openloop":   openloopTable,
	}
	runOne := func(name string) error {
		f, ok := experiments[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		return f()
	}
	if *experimentFlag != "all" {
		if err := runOne(*experimentFlag); err != nil {
			return err
		}
		return writeJSON()
	}
	for _, name := range []string{"fig3", "fig4", "fig5", "fig6a", "fig6b", "table4", "damysus", "mem", "durability", "reads", "phases", "openloop"} {
		if err := runOne(name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return writeJSON()
}

// latencyJSON is the machine-readable shape of one latency distribution.
// Every distribution carries the offered and achieved rate it was measured
// under: achieved < offered is the saturation signal operators act on, and
// a percentile without its arrival rate is not comparable to anything. For
// closed-loop measurements the two are equal by construction (a closed loop
// offers exactly what completes).
type latencyJSON struct {
	P50us          float64 `json:"p50_us"`
	P90us          float64 `json:"p90_us"`
	P99us          float64 `json:"p99_us"`
	P999us         float64 `json:"p999_us"`
	MaxUs          float64 `json:"max_us"`
	Count          uint64  `json:"count"`
	OfferedOpsSec  float64 `json:"offered_ops_s"`
	AchievedOpsSec float64 `json:"achieved_ops_s"`
}

func toLatencyJSON(s telemetry.Snapshot) *latencyJSON {
	if s.Count == 0 {
		return nil
	}
	return &latencyJSON{
		P50us:  s.Quantile(0.50) / 1e3,
		P90us:  s.Quantile(0.90) / 1e3,
		P99us:  s.Quantile(0.99) / 1e3,
		P999us: s.Quantile(0.999) / 1e3,
		MaxUs:  float64(s.Max) / 1e3,
		Count:  s.Count,
	}
}

// jsonRow is one measurement cell in the -json output.
type jsonRow struct {
	Experiment string       `json:"experiment"`
	Label      string       `json:"label"`
	KOps       float64      `json:"kops"`
	Latency    *latencyJSON `json:"latency,omitempty"`
}

var jsonRows []jsonRow

// record collects one measurement cell for the -json emitter (a no-op
// without -json, so the tables stay the only output).
func record(experiment, label string, m measurement) {
	if *jsonFlag == "" {
		return
	}
	lat := toLatencyJSON(m.latency)
	if lat != nil {
		lat.AchievedOpsSec = m.opsPerSec
		lat.OfferedOpsSec = m.offered
		if lat.OfferedOpsSec == 0 {
			lat.OfferedOpsSec = m.opsPerSec
		}
	}
	jsonRows = append(jsonRows, jsonRow{
		Experiment: experiment,
		Label:      label,
		KOps:       m.opsPerSec / 1000,
		Latency:    lat,
	})
}

func writeJSON() error {
	if *jsonFlag == "" {
		return nil
	}
	buf, err := json.MarshalIndent(jsonRows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*jsonFlag, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d measurement rows to %s\n", len(jsonRows), *jsonFlag)
	return nil
}

// durabilityTable compares replica recovery time at -keys store size across
// the three recovery paths: memory-only (full state transfer from a live
// peer), sealed WAL replay (local recovery, suffix-only transfer), and
// sealed snapshot restart (checkpointed local recovery). R-Raft, one
// crashed follower.
func durabilityTable() error {
	fmt.Printf("\n=== Durability: follower recovery time at %d keys (R-Raft, 256B values) ===\n", *keysFlag)
	fmt.Println(envLine())
	tw, flush := newTable("mode", "recovery(ms)", "local", "note")
	defer flush()
	for _, mode := range []struct {
		name      string
		durable   bool
		checkpt   bool
		snapEvery int
		note      string
	}{
		{"memory-only", false, false, 0, "full state transfer from live peer"},
		{"sealed-wal", true, false, 1 << 30, "WAL replay + suffix transfer (auto-checkpoints off)"},
		{"sealed-snapshot", true, true, 0, "snapshot restore + suffix transfer"},
	} {
		ms, local, err := measureRecovery(mode.durable, mode.checkpt, mode.snapEvery, *keysFlag)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%v\t%s\n", mode.name, ms, local, mode.note)
	}
	return nil
}

// measureRecovery times one follower crash/recover cycle through the shared
// harness helper. Returns wall milliseconds and whether sealed local
// recovery ran.
func measureRecovery(durable, checkpoint bool, snapshotEvery, keys int) (float64, bool, error) {
	return harness.MeasureFollowerRecovery(harness.Options{
		Protocol: harness.Raft, Shielded: true, Seed: 1,
		Durability: durable, SnapshotEvery: snapshotEvery,
	}, keys, checkpoint, 5*time.Minute)
}

// readsTable sweeps the scale-out read path (PR 7): a 95/5 hotspot workload
// over R-Raft under each ReadPolicy, at the default client count and at 10x.
// LeaderOnly funnels every read through the coordinator's log; LeaseLocal
// lets the leaseholder answer locally; AnyClean spreads reads across every
// replica with a clean committed version, and the cached variant adds the
// epoch-coherent client session cache on top.
func readsTable() error {
	fmt.Printf("\n=== Reads: 95/5 hotspot read scaling by ReadPolicy (R-Raft, 256B values) ===\n")
	fmt.Println(envLine())
	tw, flush := newTable("policy", "clients", "kOps/s", "local", "replica", "fallbacks", "p50(µs)", "p99(µs)", "p999(µs)")
	defer flush()
	for _, clients := range []int{*clientsFlag, 10 * *clientsFlag} {
		for _, p := range []struct {
			name   string
			policy core.ReadPolicy
			cache  int
		}{
			{"leader-only", core.ReadLeaderOnly, 0},
			{"lease-local", core.ReadLeaseLocal, 0},
			{"any-clean", core.ReadAnyClean, 0},
			{"any-clean-cached", core.ReadAnyClean, 256},
		} {
			m, local, replica, fallbacks, err := measureReads(harness.Options{
				Protocol: harness.Raft, Shielded: true, Seed: 1,
				ReadPolicy: p.policy, SessionCache: p.cache,
			}, clients)
			if err != nil {
				return err
			}
			record("reads", fmt.Sprintf("%s/clients=%d", p.name, clients), m)
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%s\n",
				p.name, clients, kops(m.opsPerSec), local, replica, fallbacks, latCols(m.latency))
		}
	}
	return nil
}

// measureReads is measure() with the cluster handle kept, so the read-path
// counters can be reported next to the throughput they explain.
func measureReads(opts harness.Options, clients int) (m measurement, local, replica, fallbacks uint64, err error) {
	w := workload.ReadHotspot(256)
	w.Keys = 1024
	w.Seed = opts.Seed
	c, err := harness.New(opts)
	if err != nil {
		return measurement{}, 0, 0, 0, err
	}
	defer c.Stop()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		return measurement{}, 0, 0, 0, err
	}
	if err := c.Preload(w); err != nil {
		return measurement{}, 0, 0, 0, err
	}
	// Warm up so leases are granted and renewal is steady before the
	// timed section; then count only the timed section's read paths.
	if _, err := c.RunOps(w, clients, *opsFlag/10+1); err != nil {
		return measurement{}, 0, 0, 0, err
	}
	l0, r0, f0 := c.ReadStats()
	lat0 := c.ClientLatency()
	ops, err := c.RunOps(w, clients, *opsFlag)
	if err != nil {
		return measurement{}, 0, 0, 0, err
	}
	lat1 := c.ClientLatency()
	l1, r1, f1 := c.ReadStats()
	m = measurement{opsPerSec: ops, latency: lat1.Sub(&lat0)}
	return m, l1 - l0, r1 - r0, f1 - f0, nil
}

// phasesTable is the telemetry layer's own experiment: it slices a write's
// life across the data plane — ingress MAC verify, commit queue wait,
// egress seal, WAL fsync, raft append→commit lag, netstack flush and dwell —
// and reports p50/p99/p999 per phase next to the client round trip they
// compose, at the default client count and at 10x. Durable R-Raft, 50%
// reads, 256B values.
func phasesTable() error {
	fmt.Println("\n=== Phases: per-phase latency percentiles (durable R-Raft, 50%R, 256B) ===")
	fmt.Println(envLine())
	phaseOrder := []string{
		core.MetricPhaseClientRTT,
		core.MetricPhaseIngressVerify,
		core.MetricPhaseQueueWait,
		core.MetricPhaseEgressSeal,
		core.MetricPhaseWALFsync,
		core.MetricPhaseRaftCommitLag,
		core.MetricPhaseNetFlush,
		core.MetricPhaseNetDwell,
	}
	tw, flush := newTable("phase", "clients", "count", "p50(µs)", "p99(µs)", "p999(µs)")
	defer flush()
	for _, clients := range []int{*clientsFlag, 10 * *clientsFlag} {
		w := workload.Config{Keys: 1024, ReadRatio: 0.50, ValueSize: 256, Seed: 1}
		c, err := harness.New(harness.Options{
			Protocol: harness.Raft, Shielded: true, Seed: 1, Durability: true,
		})
		if err != nil {
			return err
		}
		if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
			c.Stop()
			return err
		}
		if err := c.Preload(w); err != nil {
			c.Stop()
			return err
		}
		// Warm-up settles elections, leases, and buffer pools; the phase
		// histograms are then diffed across the timed section only.
		if _, err := c.RunOps(w, clients, *opsFlag/10+1); err != nil {
			c.Stop()
			return err
		}
		base := c.PhaseSnapshots()
		ops, err := c.RunOps(w, clients, *opsFlag)
		if err != nil {
			c.Stop()
			return err
		}
		cur := c.PhaseSnapshots()
		c.Stop()
		for _, name := range phaseOrder {
			snap, b := cur[name], base[name]
			d := snap.Sub(&b)
			record("phases", fmt.Sprintf("%s/clients=%d", name, clients),
				measurement{opsPerSec: ops, latency: d})
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", name, clients, d.Count, latCols(d))
		}
	}
	return nil
}

// openloopTable is the honest-scale experiment (PR 10): offered load at
// fixed Poisson arrival rates, latency charged from each arrival's intended
// start time (coordinated omission measured, not masked), steady and under
// a chaos schedule, on a fresh R-Raft cluster per cell. The chaos leg runs
// durable so crash+recover exercises sealed recovery, and every injected
// event lands in the flight recorders next to the spike it caused.
func openloopTable() error {
	rates, err := parseRates(*rateFlag)
	if err != nil {
		return err
	}
	chaos, err := chaosSchedule(*durationFlag)
	if err != nil {
		return err
	}
	fmt.Printf("\n=== Open loop: CO-free latency at fixed arrival rates (R-Raft, 90%%R, 256B, %d sessions, %s) ===\n",
		*sessionsFlag, *durationFlag)
	fmt.Println(envLine())
	tw, flush := newTable("rate(ops/s)", "mode", "achieved", "errors", "p50(µs)", "p99(µs)", "p999(µs)", "service p99(µs)")
	var chaosLines []string
	for _, rate := range rates {
		for _, mode := range []struct {
			name  string
			sched *loadgen.ChaosSchedule
		}{
			{"steady", nil},
			{"chaos", chaos},
		} {
			m, svc, rep, err := measureOpenLoop(rate, mode.sched)
			if err != nil {
				return err
			}
			record("openloop", fmt.Sprintf("rate=%.0f/%s", rate, mode.name), m)
			svcP99 := "-"
			if svc.Count > 0 {
				svcP99 = fmt.Sprintf("%.0f", svc.Quantile(0.99)/1e3)
			}
			fmt.Fprintf(tw, "%.0f\t%s\t%.0f\t%d\t%s\t%s\n",
				rate, mode.name, rep.Achieved, rep.Errors, latCols(m.latency), svcP99)
			for _, ev := range rep.ChaosEvents {
				status := ev.Detail
				if ev.Err != nil {
					status = "error: " + ev.Err.Error()
				}
				chaosLines = append(chaosLines, fmt.Sprintf("  rate=%.0f @%s %s %s", rate, ev.Offset.Round(time.Millisecond), ev.Event.Action, status))
			}
		}
	}
	flush()
	if len(chaosLines) > 0 {
		fmt.Println("chaos events as executed:")
		for _, l := range chaosLines {
			fmt.Println(l)
		}
	}
	return nil
}

// parseRates parses the -rate CSV into offered arrival rates.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad -rate entry %q (want positive ops/s)", f)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rate named no rates")
	}
	return rates, nil
}

// chaosSchedule loads -chaos FILE, or falls back to the built-in script
// scaled to the run window: crash a follower at 20%, recover it at 45%,
// slow the leader's links 5ms±2ms over [60%, 80%].
func chaosSchedule(d time.Duration) (*loadgen.ChaosSchedule, error) {
	if *chaosFlag != "" {
		text, err := os.ReadFile(*chaosFlag)
		if err != nil {
			return nil, err
		}
		return loadgen.ParseChaosSchedule(string(text))
	}
	frac := func(x float64) time.Duration { return time.Duration(float64(d) * x).Round(time.Millisecond) }
	return &loadgen.ChaosSchedule{Events: []loadgen.ChaosEvent{
		{At: frac(0.20), Action: loadgen.ActCrash, Node: "follower"},
		{At: frac(0.45), Action: loadgen.ActRecover, Node: "follower"},
		{At: frac(0.60), Action: loadgen.ActDelay, Node: "leader", Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
		{At: frac(0.80), Action: loadgen.ActClearDelay, Node: "leader"},
	}}, nil
}

// measureOpenLoop runs one open-loop cell on a fresh cluster. The returned
// measurement's latency is the intended-start→completion distribution; the
// send→completion (service) snapshot rides along for the table.
func measureOpenLoop(rate float64, sched *loadgen.ChaosSchedule) (measurement, telemetry.Snapshot, loadgen.Report, error) {
	opts := harness.Options{Protocol: harness.Raft, Shielded: true, Seed: 1}
	if sched != nil {
		opts.Durability = true
	}
	c, err := harness.New(opts)
	if err != nil {
		return measurement{}, telemetry.Snapshot{}, loadgen.Report{}, err
	}
	defer c.Stop()
	w := workload.Config{Keys: 1024, ReadRatio: 0.90, ValueSize: 256, Seed: 1}
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		return measurement{}, telemetry.Snapshot{}, loadgen.Report{}, err
	}
	if err := c.Preload(w); err != nil {
		return measurement{}, telemetry.Snapshot{}, loadgen.Report{}, err
	}
	intended := c.ClientHistogram(loadgen.MetricIntendedRTT, "open-loop intended-start to completion (ns)")
	service := c.ClientHistogram(core.MetricPhaseClientRTT, "")
	i0, s0 := intended.Snapshot(), service.Snapshot()
	rep, err := loadgen.Run(loadgen.Config{
		Rate:     rate,
		Duration: *durationFlag,
		Sessions: *sessionsFlag,
		Conns:    *connsFlag,
		Workload: w,
		NewClient: func() (*core.Client, error) {
			return c.Client()
		},
		Intended: intended,
		Service:  service,
		Chaos:    sched,
		Target:   c,
	})
	if err != nil {
		return measurement{}, telemetry.Snapshot{}, loadgen.Report{}, err
	}
	i1, s1 := intended.Snapshot(), service.Snapshot()
	m := measurement{opsPerSec: rep.Achieved, offered: rep.Offered, latency: i1.Sub(&i0)}
	return m, s1.Sub(&s0), rep, nil
}

// memTable reports the hot-path memory discipline (PR 4): heap traffic and
// GC totals per operation for the per-message worst case (MaxBatch=1) and
// default batching, 50% reads / 256 B values.
func memTable() error {
	fmt.Println("\n=== Hot-path memory discipline: allocs/op, B/op, GC pause (50%R, 256B) ===")
	fmt.Println(envLine())
	tw, flush := newTable("system", "mode", "kOps/s", "allocs/op", "B/op", "gc-pause(ms)", "p50(µs)", "p99(µs)", "p999(µs)")
	defer flush()
	for _, proto := range []harness.ProtocolKind{harness.Raft, harness.Chain} {
		for _, mode := range []struct {
			name     string
			maxBatch int
		}{
			{"per-message", 1},
			{"batched", 0}, // node default (64)
		} {
			m, err := measureMem(harness.Options{Protocol: proto, Shielded: true, Seed: 1,
				MaxBatch: mode.maxBatch},
				workload.Config{ReadRatio: 0.50, ValueSize: 256})
			if err != nil {
				return err
			}
			record("mem", fmt.Sprintf("R-%s/%s", proto, mode.name), m)
			fmt.Fprintf(tw, "R-%s\t%s\t%s\t%.0f\t%.0f\t%.2f\t%s\n",
				proto, mode.name, kops(m.opsPerSec), m.allocsPerOp, m.bytesPerOp, m.gcPauseMs, latCols(m.latency))
		}
	}
	return nil
}

// systems of Figs 3-5.
var systems = []struct {
	name     string
	proto    harness.ProtocolKind
	shielded bool
}{
	{"PBFT", harness.PBFT, false},
	{"R-Raft", harness.Raft, true},
	{"R-CR", harness.Chain, true},
	{"R-AllConcur", harness.AllConcur, true},
	{"R-ABD", harness.ABD, true},
}

// measurement is one experiment cell: throughput plus the process-wide heap
// traffic and GC totals attributed per operation (runtime.ReadMemStats
// around the timed section), so the memory-discipline trajectory is visible
// alongside the paper's throughput numbers. latency is the client-observed
// round-trip distribution of the timed section only (warm-up excluded),
// from the harness telemetry layer.
type measurement struct {
	opsPerSec   float64
	offered     float64 // open-loop target arrival rate (0 = closed loop)
	allocsPerOp float64
	bytesPerOp  float64
	gcPauseMs   float64 // total GC pause during the timed section
	latency     telemetry.Snapshot
}

// measureMem runs one throughput measurement and reports throughput and
// memory behaviour.
func measureMem(opts harness.Options, w workload.Config) (measurement, error) {
	w.Keys = 1024
	w.Seed = opts.Seed
	c, err := harness.New(opts)
	if err != nil {
		return measurement{}, err
	}
	defer c.Stop()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		return measurement{}, err
	}
	if err := c.Preload(w); err != nil {
		return measurement{}, err
	}
	// Warm up briefly so leader paths, caches, and buffer pools settle.
	if _, err := c.RunOps(w, *clientsFlag, *opsFlag/10+1); err != nil {
		return measurement{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lat0 := c.ClientLatency()
	ops, err := c.RunOps(w, *clientsFlag, *opsFlag)
	if err != nil {
		return measurement{}, err
	}
	lat1 := c.ClientLatency()
	runtime.ReadMemStats(&after)
	n := float64(*opsFlag)
	return measurement{
		opsPerSec:   ops,
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		bytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		gcPauseMs:   float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		latency:     lat1.Sub(&lat0),
	}, nil
}

// measure runs one throughput measurement and returns the full cell,
// latency distribution included.
func measure(opts harness.Options, w workload.Config) (measurement, error) {
	return measureMem(opts, w)
}

// latCols renders a latency snapshot as the standard three table cells:
// p50, p99, p999 in microseconds.
func latCols(s telemetry.Snapshot) string {
	if s.Count == 0 {
		return "-\t-\t-"
	}
	return fmt.Sprintf("%.0f\t%.0f\t%.0f", s.Quantile(0.50)/1e3, s.Quantile(0.99)/1e3, s.Quantile(0.999)/1e3)
}

// envLine is printed under every experiment header: several tables (the
// memory discipline, the commit stage's overlap) only mean something
// relative to the cores behind them, so the host parallelism travels with
// the numbers.
func envLine() string {
	return "host: " + telemetry.HostInfo().String()
}

func newTable(header ...string) (*tabwriter.Writer, func()) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	return tw, func() { _ = tw.Flush() }
}

func kops(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

func fig3() error {
	fmt.Println("\n=== Fig 3: throughput (kOps/s) vs value size, 90% reads ===")
	fmt.Println(envLine())
	sizes := []int{256, 1024, 4096}
	tw, flush := newTable("system", "256B", "1024B", "4096B", "p50(µs)", "p99(µs)", "p999(µs)")
	defer flush()
	for _, sys := range systems {
		fmt.Fprintf(tw, "%s", sys.name)
		var rowLat telemetry.Snapshot
		for _, size := range sizes {
			m, err := measure(harness.Options{Protocol: sys.proto, Shielded: sys.shielded, Seed: 1},
				workload.Config{ReadRatio: 0.90, ValueSize: size})
			if err != nil {
				return err
			}
			record("fig3", fmt.Sprintf("%s/%dB", sys.name, size), m)
			rowLat.Merge(&m.latency)
			fmt.Fprintf(tw, "\t%s", kops(m.opsPerSec))
		}
		fmt.Fprintf(tw, "\t%s\n", latCols(rowLat))
	}
	return nil
}

func fig4() error {
	fmt.Println("\n=== Fig 4: throughput (kOps/s) and speedup vs PBFT, 256B values ===")
	fmt.Println(envLine())
	fmt.Println("(allocs/op, B/op, and total GC pause are from the 50%R run)")
	ratios := []int{50, 75, 90, 95, 99}
	results := make(map[string]map[int]float64, len(systems))
	mems := make(map[string]measurement, len(systems))
	lats := make(map[string]telemetry.Snapshot, len(systems))
	for _, sys := range systems {
		results[sys.name] = make(map[int]float64, len(ratios))
		for _, r := range ratios {
			m, err := measureMem(harness.Options{Protocol: sys.proto, Shielded: sys.shielded, Seed: 1},
				workload.Config{ReadRatio: float64(r) / 100, ValueSize: 256})
			if err != nil {
				return err
			}
			record("fig4", fmt.Sprintf("%s/%d%%R", sys.name, r), m)
			results[sys.name][r] = m.opsPerSec
			rowLat := lats[sys.name]
			rowLat.Merge(&m.latency)
			lats[sys.name] = rowLat
			if r == 50 {
				mems[sys.name] = m
			}
		}
	}
	tw, flush := newTable("system", "50%R", "75%R", "90%R", "95%R", "99%R", "allocs/op", "B/op", "gc-pause(ms)", "p50(µs)", "p99(µs)", "p999(µs)")
	for _, sys := range systems {
		fmt.Fprintf(tw, "%s", sys.name)
		for _, r := range ratios {
			fmt.Fprintf(tw, "\t%s", kops(results[sys.name][r]))
		}
		m := mems[sys.name]
		lat := lats[sys.name]
		fmt.Fprintf(tw, "\t%.0f\t%.0f\t%.2f\t%s", m.allocsPerOp, m.bytesPerOp, m.gcPauseMs, latCols(lat))
		fmt.Fprintln(tw)
	}
	flush()

	fmt.Println("\nspeedup over PBFT (paper reports 5.3x - 24x):")
	tw2, flush2 := newTable("R/W ratio", "R-ABD", "R-CR", "R-Raft", "R-AllConcur")
	defer flush2()
	for _, r := range ratios {
		base := results["PBFT"][r]
		fmt.Fprintf(tw2, "%d%%", r)
		for _, name := range []string{"R-ABD", "R-CR", "R-Raft", "R-AllConcur"} {
			fmt.Fprintf(tw2, "\t%.1fx", results[name][r]/base)
		}
		fmt.Fprintln(tw2)
	}
	return nil
}

func fig5() error {
	fmt.Println("\n=== Fig 5: throughput (kOps/s) with confidentiality vs plain PBFT ===")
	fmt.Println(envLine())
	ratios := []int{50, 95}
	tw, flush := newTable("system", "50%R", "95%R", "p50(µs)", "p99(µs)", "p999(µs)")
	defer flush()
	for _, sys := range systems {
		conf := sys.proto != harness.PBFT
		fmt.Fprintf(tw, "%s", label(sys.name, conf))
		var rowLat telemetry.Snapshot
		for _, r := range ratios {
			m, err := measure(
				harness.Options{Protocol: sys.proto, Shielded: sys.shielded, Confidential: conf, Seed: 1},
				workload.Config{ReadRatio: float64(r) / 100, ValueSize: 256})
			if err != nil {
				return err
			}
			record("fig5", fmt.Sprintf("%s/%d%%R", label(sys.name, conf), r), m)
			rowLat.Merge(&m.latency)
			fmt.Fprintf(tw, "\t%s", kops(m.opsPerSec))
		}
		fmt.Fprintf(tw, "\t%s\n", latCols(rowLat))
	}
	return nil
}

func label(name string, conf bool) string {
	if conf {
		return name + "(conf)"
	}
	return name
}

func fig6a() error {
	fmt.Println("\n=== Fig 6a: transformation+TEE overhead factor (native / recipe), 256B ===")
	fmt.Println(envLine())
	ratios := []int{50, 75, 90, 95, 99}
	native := tee.NativeCostModel()
	tw, flush := newTable("protocol", "50%R", "75%R", "90%R", "95%R", "99%R")
	defer flush()
	for _, proto := range []harness.ProtocolKind{harness.Raft, harness.Chain, harness.AllConcur, harness.ABD} {
		fmt.Fprintf(tw, "R-%s", proto)
		for _, r := range ratios {
			w := workload.Config{ReadRatio: float64(r) / 100, ValueSize: 256}
			nat, err := measure(harness.Options{
				Protocol: proto, Shielded: false, TEE: &native,
				Stack: netstack.StackDirectIO, Seed: 1,
			}, w)
			if err != nil {
				return err
			}
			rec, err := measure(harness.Options{Protocol: proto, Shielded: true, Seed: 1}, w)
			if err != nil {
				return err
			}
			record("fig6a", fmt.Sprintf("R-%s/native/%d%%R", proto, r), nat)
			record("fig6a", fmt.Sprintf("R-%s/recipe/%d%%R", proto, r), rec)
			fmt.Fprintf(tw, "\t%.1fx", nat.opsPerSec/rec.opsPerSec)
		}
		fmt.Fprintln(tw)
	}
	fmt.Println("(paper reports 2x - 15x overheads, highest for total-order protocols)")
	return nil
}

func fig6b() error {
	fmt.Println("\n=== Fig 6b: network stack throughput (Gb/s) vs payload size ===")
	fmt.Println(envLine())
	payloads := []int{64, 256, 1024, 1460, 2048, 4096}
	stacks := []netstack.StackKind{
		netstack.StackKernelNet,
		netstack.StackDirectIO,
		netstack.StackKernelNetTEE,
		netstack.StackDirectIOTEE,
		netstack.StackRecipeLib,
	}
	header := []string{"stack"}
	for _, p := range payloads {
		header = append(header, fmt.Sprintf("%dB", p))
	}
	tw, flush := newTable(header...)
	defer flush()
	for _, stack := range stacks {
		fmt.Fprintf(tw, "%s", stack)
		for _, payload := range payloads {
			gbps, err := netThroughput(stack, payload)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%.2f", gbps)
		}
		fmt.Fprintln(tw)
	}
	return nil
}

func netThroughput(stack netstack.StackKind, payload int) (float64, error) {
	fabric := netstack.NewFabric(netstack.WithStack(netstack.Stacks[stack]))
	src, err := fabric.Register("src")
	if err != nil {
		return 0, err
	}
	dst, err := fabric.Register("dst")
	if err != nil {
		return 0, err
	}
	buf := make([]byte, payload)
	const rounds = 50_000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := src.Send("dst", buf); err != nil {
			return 0, err
		}
		<-dst.Inbox()
	}
	elapsed := time.Since(start).Seconds()
	bits := float64(rounds) * float64(payload) * 8
	return bits / elapsed / 1e9, nil
}

func table4() error {
	fmt.Println("\n=== Table 4: attestation latency, Recipe CAS vs IAS ===")
	fmt.Println(envLine())
	// Modelled latencies are scaled 1/10 during measurement and scaled back
	// for reporting; the ratio is preserved exactly.
	const scale, rounds = 0.1, 5
	mean := func(svc *attest.Service) (time.Duration, error) {
		plat, err := tee.NewPlatform("t4", tee.WithCostModel(tee.NativeCostModel()))
		if err != nil {
			return 0, err
		}
		svc.TrustPlatform(plat)
		enclave := plat.NewEnclave([]byte("code"))
		svc.AllowMeasurement(enclave.Measurement())
		start := time.Now()
		for i := 0; i < rounds; i++ {
			agent, err := attest.NewAgent(enclave)
			if err != nil {
				return 0, err
			}
			if _, err := svc.RemoteAttestation(agent, ""); err != nil {
				return 0, err
			}
		}
		return time.Duration(float64(time.Since(start)) / rounds / scale), nil
	}
	cas, err := attest.NewService(attest.WithLatencyScale(scale))
	if err != nil {
		return err
	}
	ias, err := attest.NewIAS(attest.WithLatencyScale(scale))
	if err != nil {
		return err
	}
	casMean, err := mean(cas)
	if err != nil {
		return err
	}
	iasMean, err := mean(ias)
	if err != nil {
		return err
	}
	tw, flush := newTable("service", "mean (s)", "speedup")
	defer flush()
	fmt.Fprintf(tw, "Recipe CAS\t%.3f\t%.1fx\n", casMean.Seconds(), float64(iasMean)/float64(casMean))
	fmt.Fprintf(tw, "IAS\t%.3f\t\n", iasMean.Seconds())
	fmt.Println("(paper: CAS 0.169s, IAS 2.913s, 18.2x)")
	return nil
}

func damysusCmp() error {
	fmt.Println("\n=== §B.3: Recipe vs Damysus (kOps/s, 50% reads) ===")
	fmt.Println(envLine())
	tw, flush := newTable("system", "payload", "kOps/s", "p50(µs)", "p99(µs)", "p999(µs)")
	damysusAt := make(map[int]float64, 3)
	for _, payload := range []int{1, 64, 256} {
		m, err := measure(harness.Options{Protocol: harness.Damysus, Seed: 1},
			workload.Config{ReadRatio: 0.50, ValueSize: payload})
		if err != nil {
			return err
		}
		record("damysus", fmt.Sprintf("Damysus/%dB", payload), m)
		damysusAt[payload] = m.opsPerSec
		fmt.Fprintf(tw, "Damysus\t%dB\t%s\t%s\n", payload, kops(m.opsPerSec), latCols(m.latency))
	}
	var best float64
	for _, sys := range systems[1:] {
		m, err := measure(harness.Options{Protocol: sys.proto, Shielded: true, Seed: 1},
			workload.Config{ReadRatio: 0.50, ValueSize: 256})
		if err != nil {
			return err
		}
		record("damysus", sys.name+"/256B", m)
		if m.opsPerSec > best {
			best = m.opsPerSec
		}
		fmt.Fprintf(tw, "%s\t256B\t%s\t%s\n", sys.name, kops(m.opsPerSec), latCols(m.latency))
	}
	flush()
	fmt.Printf("best Recipe vs Damysus(256B): %.1fx  (paper: 2.3x - 5.9x)\n", best/damysusAt[256])
	fmt.Printf("best Recipe vs Damysus(0B):   %.1fx  (paper: 1.1x - 2.8x)\n", best/damysusAt[1])
	return nil
}
