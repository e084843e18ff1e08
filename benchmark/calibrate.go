package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// Bounds come from calibration: a metric may worsen by a tenth, or by twice
// the half-range seen across identical runs when that is more, up to the
// quarter the gate allows at most.
const (
	minBound = 0.10
	maxBound = 0.25
	// setupFloor is the absolute slack on setup_s, which is well under a
	// second everywhere: a tenth of so little would gate on noise.
	setupFloor = 0.1
	// hiP99Limit is how far below the latency limit the hi rung's p99 must
	// stay in every calibration run for max_rate_in_slo_ops_s to sit still.
	hiP99Limit = 5 * time.Millisecond
)

// runCalibration runs every workload in defs runs times, on seeds seed,
// seed+1, ..., and prints for each metric and workload the median and range,
// then the bound each metric needs over all workloads. It also notes which
// rungs must move (a hi rung whose p99 came within half the limit, an over
// rung that ever met it) and every run in which an operation failed.
func runCalibration(defs []workloadDef, cfg config, runs int, w io.Writer) error {
	bounds := make(map[string]float64)
	var notes []string
	for i := range defs {
		def := &defs[i]
		values := make(map[string][]float64)
		for r := 0; r < runs; r++ {
			c := cfg
			c.seed = cfg.seed + int64(r)
			rep, err := runEndToEnd(def, c)
			if err != nil {
				return err
			}
			if !rep.correct() {
				return fmt.Errorf("%s: seed %d: output verification failed", def.name, c.seed)
			}
			if rep.failed > 0 {
				notes = append(notes, fmt.Sprintf("%s seed %d: %d operations failed (%d of them in the fault phase)", def.name, c.seed, rep.failed, rep.fault.failed))
			}
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], rep.metrics[d.name])
			}
			if p99 := rep.rungs[2].quantile(0.99); p99 > float64(hiP99Limit) {
				notes = append(notes, fmt.Sprintf("%s seed %d: hi rung p99 %.1f ms exceeds %v: lower it", def.name, c.seed, p99/1e6, hiP99Limit))
			}
			if rep.rungs[3].meets {
				notes = append(notes, fmt.Sprintf("%s seed %d: over rung met the limit: raise it", def.name, c.seed))
			}
			for _, g := range rep.rungs[:3] {
				if !g.valid {
					notes = append(notes, fmt.Sprintf("%s seed %d: rung %s invalid under the generator-lag rule", def.name, c.seed, g.name))
				}
			}
		}
		fmt.Fprintf(w, "== %s (%d runs)\n", def.name, runs)
		for _, d := range endToEnd {
			v := append([]float64(nil), values[d.name]...)
			slices.Sort(v)
			med := median(v)
			halfRange := (v[len(v)-1] - v[0]) / 2
			bound := max(minBound, 2*halfRange/med)
			if d.name == "setup_s" {
				bound = max(bound, setupFloor/med)
			}
			bounds[d.name] = max(bounds[d.name], bound)
			fmt.Fprintf(w, "  %-24s median %12.3f min %12.3f max %12.3f %-6s half-range %5.1f %%\n",
				d.name, med, v[0], v[len(v)-1], d.unit, 100*halfRange/med)
		}
	}
	fmt.Fprintf(w, "== bounds for BENCHMARK.json (largest need over the workloads run, capped at %.2f)\n", maxBound)
	for _, d := range endToEnd {
		need := bounds[d.name]
		fmt.Fprintf(w, "  %-24s %.2f", d.name, min(need, maxBound))
		if need > maxBound {
			fmt.Fprintf(w, "   (needs %.2f: too noisy to gate at this run length)", need)
		}
		fmt.Fprintln(w)
	}
	for _, mv := range notes {
		fmt.Fprintln(w, "NOTE:", mv)
	}
	return nil
}
