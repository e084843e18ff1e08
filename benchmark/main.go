// Command benchmark is the repository's one gated benchmark: five workloads,
// each an in-process three-replica cluster driven open loop at fixed rates,
// closed loop at peak, and open loop again while replicas crash and recover.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"recipe/internal/telemetry"
)

// result is the one JSON object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toResult(defs []metricDef, values map[string]float64, correct bool, attempted, failed int) result {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// hostStamp is carried by every output: numbers from unlike hosts or commits
// must never be compared by accident.
func hostStamp() string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("%s go=%s commit=%s", telemetry.HostInfo(), runtime.Version(), commit)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five, one after the other)")
		seed         = flag.Int64("seed", 1, "seeds key choice, arrival schedules and fault timing")
		seconds      = flag.Float64("seconds", 18, "measured seconds per run, split between the phases")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass, per-layer metrics")
		traceOut     = flag.String("trace-out", "", "where --trace 1 writes its spans (default .bench_build/trace-<workload>.jsonl)")
		conns        = flag.Int("conns", runtime.NumCPU(), "connections, one client and one worker each")
		quick        = flag.Bool("quick", false, "one round instead of four: a smoke run, not a measurement")
		calibrate    = flag.Int("calibrate", 0, "run the full set this many times and print each metric's median, range and bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	cfg := config{seed: *seed, conns: *conns, plan: planFor(*seconds, 4), workDir: ".bench_build"}
	if *quick {
		cfg.plan = planFor(*seconds, 1)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "# "+hostStamp())

	defs := workloads
	if *workloadName != "" {
		def := findWorkload(*workloadName)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		defs = []workloadDef{*def}
	}
	if *calibrate > 0 {
		if err := runCalibration(defs, cfg, *calibrate, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	allCorrect := true
	for i := range defs {
		def := &defs[i]
		var res result
		switch *traceFlag {
		case 0:
			rep, err := runEndToEnd(def, cfg)
			if err != nil {
				fatal(err)
			}
			rep.print(os.Stderr, def)
			res = toResult(endToEnd, rep.metrics, rep.correct(), rep.attempted, rep.failed)
		case 1:
			out := *traceOut
			if out == "" {
				out = filepath.Join(cfg.workDir, "trace-"+def.name+".jsonl")
			}
			rep, err := runTraced(def, cfg, out)
			if err != nil {
				fatal(err)
			}
			rep.print(os.Stderr, def)
			res = toResult(perLayer, rep.metrics, rep.correct(), rep.attempted, rep.failed)
		default:
			fatal(fmt.Errorf("--trace must be 0 or 1"))
		}
		allCorrect = allCorrect && res.Correct
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		if *workloadName == "" {
			// All-workloads mode: one line per workload, labelled.
			fmt.Printf("{\"workload\":%q,\"host\":%q,\"result\":%s}\n", def.name, hostStamp(), line)
		} else {
			fmt.Println(string(line))
		}
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "benchmark: output verification FAILED")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printMetrics writes one line per metric: name, value, unit.
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.3f %s\n", d.name, values[d.name], d.unit)
	}
}

// print writes the end-to-end report for people: every metric by name with
// its unit, then what the gate does not carry (tails, pacer lateness, each
// round, the outcome of each check).
func (r *e2eReport) print(w io.Writer, def *workloadDef) {
	fmt.Fprintf(w, "== %s (end to end, tracing off)\n", def.name)
	printMetrics(w, endToEnd, r.metrics)
	fmt.Fprintf(w, "  %-36s %14d count\n  %-36s %14d count\n  %-36s %14d count\n  %-36s %14d count\n",
		"lost_acked_writes", r.lostAcked, "stale_reads", r.staleReads, "bad_values", r.badValues, "divergent_keys", r.divergent)
	fmt.Fprintf(w, "  %-36s %14.6f ratio (%d of %d)\n", "fail_frac", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, g := range r.rungs {
		var flags []string
		if g.meets {
			flags = append(flags, "meets-limit")
		} else {
			flags = append(flags, "misses-limit")
		}
		if !g.valid {
			flags = append(flags, "INVALID:generator-lag")
		}
		var p50s []string
		n := 0
		for i := range g.rounds {
			p50s = append(p50s, fmt.Sprintf("%.1f", usOf(quantile(g.rounds[i].lat, .5))))
			n += g.rounds[i].attempted
		}
		fmt.Fprintf(w, "  rung %-4s offered %7.0f/s n=%d p50 by round [%s] us p99 %9.1f us (pooled %9.1f, p999 %9.1f) gen-lag p50 %5.1f us p99 %6.1f us [%s]\n",
			g.name, g.offered, n, strings.Join(p50s, " "), usOf(g.quantile(.99)), usOf(quantile(g.lat, .99)), usOf(quantile(g.lat, .999)),
			usOf(quantile(g.lag, .5)), usOf(quantile(g.lag, .99)), strings.Join(flags, ","))
	}
	for i := range r.peaks {
		pk := &r.peaks[i]
		fmt.Fprintf(w, "  peak round %d: %.0f ops/s n=%d svc p50 %.1f us p99 %.1f us cpu %.1f us/op allocs %.1f/op\n",
			i, pk.rate(), pk.attempted, usOf(quantile(pk.svc, .5)), usOf(quantile(pk.svc, .99)), pk.cpuUsPerOp, pk.allocsPerOp)
	}
	c := r.fault.crash
	fmt.Fprintf(w, "  fault: n=%d failed=%d reissued=%d p50 %.1f us p99 %.1f us; crashed %s at %.2fs, unavail %.1f ms, re-elect %.1f ms, terms +%d\n",
		r.fault.attempted, r.fault.failed, r.fault.reissued, usOf(quantile(r.fault.lat, .5)), usOf(quantile(r.fault.lat, .99)),
		c.victim, c.at.Seconds(), ms(c.unavail), ms(c.reelect), c.terms)
	for _, s := range r.setups {
		fmt.Fprintf(w, "  set-up: new %.1f ms elect %.1f ms preload %.1f ms\n", ms(s.build), ms(s.elect), ms(s.preload))
	}
}
