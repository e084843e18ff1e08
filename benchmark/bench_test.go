package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesProgram: the names, units and workloads the gate
// reads from BENCHMARK.json are the ones the program emits, in order, and
// stay inside the gate's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d (2 to 8 allowed)", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}

	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q [%q] is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if !setup {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d (at most 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q [%q] is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// TestInteractionTableCoversEveryLayerMetric: README.md's interaction table
// has exactly one row per per-layer metric.
func TestInteractionTableCoversEveryLayerMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "## How the metrics should interact")
	if !ok {
		t.Fatal("README.md has no interaction section")
	}
	if next := strings.Index(table, "\n## "); next >= 0 {
		table = table[:next]
	}
	rows := map[string]int{}
	cell := regexp.MustCompile("^\\| `([^`]+)` \\|")
	for _, line := range strings.Split(table, "\n") {
		if m := cell.FindStringSubmatch(line); m != nil {
			rows[m[1]]++
		}
	}
	for _, d := range perLayer {
		if rows[d.name] != 1 {
			t.Errorf("%s has %d rows in the interaction table, want 1", d.name, rows[d.name])
		}
		delete(rows, d.name)
	}
	for name := range rows {
		t.Errorf("interaction table row %s is not a per-layer metric", name)
	}
}

// TestQuickPass runs every workload for a fraction of a second per phase,
// with tracing off and on, and checks the shape of what comes out: exactly
// the listed metrics, verified outputs, and a well-formed trace. The numbers
// themselves mean nothing at this length.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts ten clusters")
	}
	cfg := config{seed: 1, conns: 2, plan: planFor(1, 1), workDir: t.TempDir()}
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			rep, err := runEndToEnd(def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Errorf("verification failed: lost %d stale %d bad %d divergent %d", rep.lostAcked, rep.staleReads, rep.badValues, rep.divergent)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			checkMetricSet(t, endToEnd, rep.metrics)

			out := filepath.Join(cfg.workDir, def.name+".jsonl")
			traced, err := runTraced(def, cfg, out)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.correct() {
				t.Errorf("traced pass: verification failed: %+v", traced.verdict)
			}
			checkMetricSet(t, perLayer, traced.metrics)
			checkTrace(t, out)
		})
	}
}

func checkMetricSet(t *testing.T, defs []metricDef, got map[string]float64) {
	t.Helper()
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		if _, ok := got[d.name]; !ok {
			t.Errorf("metric %s was not emitted", d.name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("metric %s was emitted but is not listed", name)
		}
	}
}

// checkTrace: the file parses, ids are unique, every span ends no earlier
// than it starts, and every span either has a recorded parent that encloses
// it or is one of the known roots.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[uint64]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if _, dup := spans[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d repeated or zero", s.ID)
		}
		spans[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if !rootNames[s.Name] {
				t.Errorf("span %d %s has no parent and is not a known root", s.ID, s.Name)
			}
			if s.Name == "loadgen.arrival" {
				arrivals++
			}
			continue
		}
		p, ok := spans[s.Parent]
		if !ok {
			t.Errorf("span %d %s names parent %d, which was not recorded", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Errorf("span %d %s is not enclosed by its parent %d %s", s.ID, s.Name, p.ID, p.Name)
		}
	}
	if arrivals == 0 {
		t.Error("trace holds no loadgen.arrival root")
	}
}
