package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"recipe/internal/harness"
	"recipe/internal/workload"
)

// The latency limit a rung must meet to count towards max_rate_in_slo_ops_s:
// 99 in 100 arrivals complete within sloP99 of their due time, completions
// keep up with arrivals, and nothing fails.
const (
	sloP99      = 10 * time.Millisecond
	sloAchieved = 0.97
)

// A rung is invalid when the pacer's own lateness exceeds this share of the
// rung's median latency: the number would then describe the timer.
const maxGenLagShare = 0.20

// plan is how one run divides its measured seconds. A run measures rounds
// independent clusters in turn, each through the lo, mid and hi rungs and a
// closed-loop peak, and reports the median over the rounds. The host's
// processor speed wanders by a tenth from second to second; rounds spread
// over the run meet it several times where one long phase would meet it once,
// the median drops the rounds it disturbed most, and set-up is timed once per
// round besides. The over rung and the fault phase run once, on the last
// cluster.
type plan struct {
	rounds      int
	warm        time.Duration // per round, untimed: pools, channels and leases reach their steady state
	rung, peak  time.Duration // per round
	over, fault time.Duration
}

// planFor splits seconds into units: per round three for each of the three
// rungs and four for the peak, then six for the over rung and 22 for the
// fault phase. With four rounds and 20 s a unit is a quarter second. Each
// round's warm-up takes two more units, which seconds does not count.
func planFor(seconds float64, rounds int) plan {
	unit := time.Duration(seconds * float64(time.Second) / float64(13*rounds+28))
	return plan{rounds: rounds, warm: 2 * unit, rung: 3 * unit, peak: 4 * unit, over: 6 * unit, fault: 22 * unit}
}

// config is what the command line chose for one run.
type config struct {
	seed    int64
	conns   int
	plan    plan
	workDir string // scratch space inside the checkout (durable replicas, traces)
}

// setupTimes splits one set-up into its steps.
type setupTimes struct{ build, elect, preload time.Duration }

func (s setupTimes) total() time.Duration { return s.build + s.elect + s.preload }

// bench is one cluster of a workload plus everything derived from the seed.
type bench struct {
	def     *workloadDef
	cfg     config
	round   int
	cluster *harness.Cluster
	conns   []*conn
	ck      *checker
	gen     *workload.Generator
	setup   setupTimes
	dataDir string

	attempted, failed int
}

// newCluster builds one cluster as the workload configures it, waits for a
// coordinator, and preloads the key space, timing each step. Without
// checkpoints a durable replica never seals a snapshot of its store: one
// stalls the coordinator for 50-200 ms, and which rung it lands in would
// decide max_rate_in_slo_ops_s.
func newCluster(def *workloadDef, mix workload.Config, dataDir string, checkpoints bool) (*harness.Cluster, setupTimes, error) {
	opts := def.cluster
	opts.Seed = clusterSeed
	if opts.Durability {
		opts.DataDir = dataDir
		if !checkpoints {
			opts.SnapshotEvery = 1 << 30
		}
	}
	var st setupTimes
	t0 := time.Now()
	c, err := harness.New(opts)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		c.Stop()
		return nil, st, err
	}
	t2 := time.Now()
	if err := c.Preload(mix); err != nil {
		c.Stop()
		return nil, st, err
	}
	st = setupTimes{build: t1.Sub(t0), elect: t2.Sub(t1), preload: time.Since(t2)}
	return c, st, nil
}

// openBench sets up the cluster of one round and connects cfg.conns clients.
func openBench(def *workloadDef, cfg config, round int, checkpoints bool) (*bench, error) {
	b := &bench{def: def, cfg: cfg, round: round,
		dataDir: filepath.Join(cfg.workDir, fmt.Sprintf("data-%s-%d-%d", def.name, os.Getpid(), round))}
	mix := def.mix
	mix.Keys, mix.Seed = keySpace, cfg.seed
	c, st, err := newCluster(def, mix, b.dataDir, checkpoints)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	b.cluster, b.setup = c, st
	b.gen = workload.New(mix)
	b.ck = newChecker(b.gen, cfg.conns)
	for i := 0; i < cfg.conns; i++ {
		cli, err := c.Client()
		if err != nil {
			b.close()
			return nil, fmt.Errorf("%s: client %d: %w", def.name, i, err)
		}
		b.conns = append(b.conns, &conn{
			id: uint32(i), cli: cli, ck: b.ck,
			value:   append([]byte(nil), b.gen.Value()...),
			samples: make([]sample, 0, 1<<16),
		})
	}
	return b, nil
}

func (b *bench) close() {
	for _, c := range b.conns {
		_ = c.cli.Close()
	}
	b.cluster.Stop()
	_ = os.RemoveAll(b.dataDir)
}

// stream returns the operation stream numbered n of this run's seed and
// this round.
func (b *bench) stream(n int) opStream {
	return opStream{gen: b.gen.Derive(b.cfg.seed*7919 + int64(b.round)*1000 + int64(n))}
}

// rng returns the random source numbered n of this run's seed and this round
// (arrival schedules and fault timing).
func (b *bench) rng(n int) *rand.Rand {
	return rand.New(rand.NewSource(b.cfg.seed*104729 + int64(b.round)*1000 + int64(n)))
}

// schedule pre-generates the open-loop schedule numbered n.
func (b *bench) schedule(n int, rate float64, d time.Duration) []arrival {
	return poissonSchedule(rate, d, b.stream(n), b.rng(n))
}

func (b *bench) count(p *phaseResult) {
	b.attempted += p.attempted
	b.failed += p.failed
}

// warm runs a short closed loop so pools, channels and leases are in their
// steady state before anything is timed.
func (b *bench) warm() {
	streams := make([]opStream, len(b.conns))
	for i := range streams {
		streams[i] = b.stream(900 + i)
	}
	p := runClosed(b.conns, b.cfg.plan.warm, streams)
	b.count(&p)
}

// rung runs open-loop rung i for d.
func (b *bench) rung(i int, d time.Duration) phaseResult {
	p := runOpen(b.conns, b.schedule(i, b.def.rungs[i], d), 1, nil, nil)
	b.count(&p)
	return p
}

// rungResult is one open-loop rung, pooled over the rounds that ran it and
// judged against the latency limit.
type rungResult struct {
	name     string
	offered  float64
	rounds   []phaseResult
	lat, lag []int64 // pooled, sorted
	meets    bool    // met the latency limit
	valid    bool    // the pacer was precise enough for the latency to mean anything
}

func judge(name string, offered float64, d time.Duration, rounds []phaseResult) rungResult {
	r := rungResult{name: name, offered: offered, rounds: rounds, meets: true}
	for i := range rounds {
		p := &rounds[i]
		r.lat = append(r.lat, p.lat...)
		r.lag = append(r.lag, p.lag...)
		achieved := float64(p.completed()) / max(p.elapsed, d).Seconds()
		arrived := float64(p.attempted) / d.Seconds()
		if p.failed > 0 || achieved < sloAchieved*arrived {
			r.meets = false
		}
	}
	slices.Sort(r.lat)
	slices.Sort(r.lag)
	r.meets = r.meets && r.quantile(0.99) <= float64(sloP99)
	r.valid = quantile(r.lag, 0.5) <= maxGenLagShare*r.quantile(0.5)
	return r
}

// quantile is the median over the rounds of each round's q-quantile of
// latency: one round that met a stall of the host's does not decide it.
func (r *rungResult) quantile(q float64) float64 {
	var v []float64
	for i := range r.rounds {
		v = append(v, quantile(r.rounds[i].lat, q))
	}
	return median(v)
}

// processCPU returns the user+system processor time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakResult is one closed-loop phase with its processor and heap accounting.
type peakResult struct {
	phaseResult
	cpuUsPerOp  float64
	allocsPerOp float64
}

func (b *bench) peak() peakResult {
	streams := make([]opStream, len(b.conns))
	for i := range streams {
		streams[i] = b.stream(100 + i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := processCPU()
	p := runClosed(b.conns, b.cfg.plan.peak, streams)
	cpu = processCPU() - cpu
	runtime.ReadMemStats(&after)
	b.count(&p)
	n := float64(max(p.completed(), 1))
	return peakResult{
		phaseResult: p,
		cpuUsPerOp:  float64(cpu) / 1e3 / n,
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
	}
}

// verdict is what output verification found on one cluster.
type verdict struct {
	staleReads, badValues, lostAcked, divergent int
}

func (v *verdict) add(o verdict) {
	v.staleReads += o.staleReads
	v.badValues += o.badValues
	v.lostAcked += o.lostAcked
	v.divergent += o.divergent
}

func (v *verdict) correct() bool {
	return v.staleReads == 0 && v.badValues == 0 && v.lostAcked == 0 && v.divergent == 0
}

// verify runs the final check on this cluster, with no operation in flight:
// the live replicas' stores are compared, waiting at most patience for them
// to agree, and with readBack every written key is also read through a client.
func (b *bench) verify(readBack bool, patience time.Duration) (verdict, error) {
	v := verdict{staleReads: int(b.ck.staleReads.Load()), badValues: int(b.ck.badValues.Load())}
	if readBack {
		v.lostAcked = b.ck.readBack(b.conns[0].cli)
	}
	var err error
	if v.divergent, err = b.ck.awaitAgreement(b.cluster, b.def.leaderless, patience); err != nil {
		return verdict{}, fmt.Errorf("%s: final check: %w", b.def.name, err)
	}
	return v, nil
}

// e2eReport is everything a --trace 0 run measured.
type e2eReport struct {
	setups []setupTimes
	rungs  [4]rungResult
	peaks  []peakResult
	fault  faultResult
	verdict

	attempted, failed int
	metrics           map[string]float64
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(def *workloadDef, cfg config) (*e2eReport, error) {
	rep := &e2eReport{}
	p := cfg.plan
	var perRung [3][]phaseResult
	for round := 0; round < p.rounds; round++ {
		b, err := openBench(def, cfg, round, false)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer b.close()
			rep.setups = append(rep.setups, b.setup)
			b.warm()
			for i := range perRung {
				perRung[i] = append(perRung[i], b.rung(i, p.rung))
			}
			rep.peaks = append(rep.peaks, b.peak())
			if round == p.rounds-1 {
				// The over rung's backlog is drained when rung returns.
				rep.rungs[3] = judge(rungNames[3], def.rungs[3], p.over, []phaseResult{b.rung(3, p.over)})
				if rep.fault, err = b.faultPhase(nil, p.fault); err != nil {
					return err
				}
			}
			// Every cluster's replicas are compared; the one that lost a
			// replica is also read back through a client.
			v, err := b.verify(round == p.rounds-1, settleTime)
			rep.verdict.add(v)
			rep.attempted += b.attempted
			rep.failed += b.failed
			return err
		}()
		if err != nil {
			return nil, err
		}
	}
	for i := range perRung {
		rep.rungs[i] = judge(rungNames[i], def.rungs[i], p.rung, perRung[i])
	}

	var setups, rates, cpus, allocs []float64
	for _, s := range rep.setups {
		setups = append(setups, s.total().Seconds())
	}
	for i := range rep.peaks {
		pk := &rep.peaks[i]
		rates, cpus, allocs = append(rates, pk.rate()), append(cpus, pk.cpuUsPerOp), append(allocs, pk.allocsPerOp)
	}
	best := 0.0
	for _, r := range rep.rungs {
		if r.meets && r.offered > best {
			best = r.offered
		}
	}
	rep.metrics = map[string]float64{
		"setup_s":               median(setups),
		"lat_lo_p50_us":         usOf(rep.rungs[0].quantile(0.5)),
		"lat_mid_p50_us":        usOf(rep.rungs[1].quantile(0.5)),
		"peak_tput_ops_s":       median(rates),
		"max_rate_in_slo_ops_s": best,
		"cpu_us_per_op":         median(cpus),
		"allocs_per_op":         median(allocs),
		"lat_fault_p50_us":      usOf(quantile(rep.fault.lat, 0.5)),
		"unavail_ms":            ms(rep.fault.crash.unavail),
	}
	return rep, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
