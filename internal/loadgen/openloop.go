package loadgen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"recipe/internal/core"
	"recipe/internal/telemetry"
	"recipe/internal/workload"
)

// MetricIntendedRTT names the open-loop intended-start→completion histogram:
// latency charged from when the arrival was *scheduled* to happen, not from
// when a connection got around to sending it. The recipe_phase_ prefix puts
// it in the same phase-snapshot family as the node-side histograms and the
// send→completion client RTT (core.MetricPhaseClientRTT), so the two can be
// read side by side — their gap is exactly the coordinated-omission error.
const MetricIntendedRTT = "recipe_phase_intended_rtt_ns"

// Config parameterises one load run.
type Config struct {
	// Rate is the offered arrival rate in ops/s (open loop only).
	Rate float64
	// Duration is how long arrivals are generated for.
	Duration time.Duration
	// Sessions is the number of logical client sessions multiplexed over the
	// connection pool (default 10_000). Arrivals carry a session label; the
	// aggregate stream is statistically identical to Sessions independent
	// per-session Poisson sources (superposition).
	Sessions int
	// Conns is the real connection pool size — worker goroutines, each with
	// its own client from NewClient (default 32). core.Client is
	// single-goroutine, hence one per worker.
	Conns int
	// Workload shapes the operation mix; its Seed drives the whole run
	// (arrival times, session labels, op stream) deterministically.
	Workload workload.Config
	// NewClient mints one pooled connection (required). The harness's
	// Cluster.Client is the usual source.
	NewClient func() (*core.Client, error)
	// Intended receives intended-start→completion latency (nil-safe). Open
	// loop records completion minus scheduled arrival time — queueing an
	// arrival behind a stall counts against the system. Closed mode records
	// send→completion here too: that equivalence IS coordinated omission,
	// and the CO regression test measures the two modes' disagreement.
	Intended *telemetry.Histogram
	// Service receives send→completion latency (nil-safe): what the wire
	// saw, regardless of how late the send started.
	Service *telemetry.Histogram
	// Chaos, when non-nil, is executed against Target during the run.
	Chaos *ChaosSchedule
	// Target executes chaos events (required when Chaos has events).
	Target ChaosTarget
	// Closed switches to a closed-loop control run: Conns workers issue
	// back-to-back ops for Duration, no arrival schedule, latency charged
	// from send. Exists so CO comparisons share one driver and differ only
	// in the loop model.
	Closed bool
	// OnResult, when set, observes every completed operation (called from
	// worker goroutines; must be safe for concurrent use).
	OnResult func(Result)
	// MaxArrivals overrides the schedule size cap (0 = ~4.2M).
	MaxArrivals int
}

// Result is one completed operation, as delivered to Config.OnResult.
type Result struct {
	// Session is the logical session label (-1 in closed mode).
	Session int
	// Op is the operation as generated.
	Op workload.Op
	// Res is the cluster's reply (zero value when Err != nil).
	Res core.Result
	// Err is the client error, if any (timeout budget exhausted, etc).
	Err error
}

// Report summarises one run.
type Report struct {
	// Offered is the target arrival rate (ops/s); in closed mode it equals
	// Achieved, because a closed loop only offers what completes.
	Offered float64
	// Achieved is completed ops per wall second. Achieved < Offered is the
	// saturation signal: the system fell behind the arrival schedule.
	Achieved float64
	// Generated is how many arrivals the schedule held (0 in closed mode's
	// report — arrivals are not pre-generated there).
	Generated int
	// Completed counts ops that got a reply; Errors counts ops whose client
	// gave up (retry budget exhausted mid-fault). Errors still record
	// latency: the time was spent whether or not a reply came.
	Completed, Errors int
	// Elapsed is the wall time from first intended arrival to last
	// completion.
	Elapsed time.Duration
	// ChaosEvents lists every schedule entry with its resolved detail and
	// execution offset (empty without a schedule).
	ChaosEvents []ExecutedEvent
}

// Run executes one load run and blocks until every arrival has completed
// and every in-window chaos event has fired.
func Run(cfg Config) (Report, error) {
	if cfg.Duration <= 0 {
		return Report{}, fmt.Errorf("loadgen: Duration must be positive")
	}
	if !cfg.Closed && cfg.Rate <= 0 {
		return Report{}, fmt.Errorf("loadgen: open-loop Rate must be positive")
	}
	if cfg.NewClient == nil {
		return Report{}, fmt.Errorf("loadgen: NewClient is required")
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 10_000
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 32
	}
	chaosOn := cfg.Chaos != nil && len(cfg.Chaos.Events) > 0
	if chaosOn && cfg.Target == nil {
		return Report{}, fmt.Errorf("loadgen: Chaos schedule set without a Target")
	}

	gen := workload.New(cfg.Workload)
	var sched []arrival
	if !cfg.Closed {
		// Seed+1: the schedule's arrival/session stream must not replay the
		// op stream's randomness.
		rng := rand.New(rand.NewSource(cfg.Workload.Seed + 1))
		var err error
		sched, err = buildSchedule(cfg.Rate, cfg.Duration, cfg.Sessions, gen, rng, cfg.MaxArrivals)
		if err != nil {
			return Report{}, err
		}
	}

	clients := make([]*core.Client, cfg.Conns)
	for i := range clients {
		cli, err := cfg.NewClient()
		if err != nil {
			for _, c := range clients[:i] {
				_ = c.Close()
			}
			return Report{}, fmt.Errorf("loadgen: conn %d: %w", i, err)
		}
		clients[i] = cli
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()

	var (
		completed, errs atomic.Int64
		wg, chaosWG     sync.WaitGroup
		chaosEvents     []ExecutedEvent
	)
	start := time.Now()
	if chaosOn {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			chaosEvents = runChaos(cfg.Chaos, cfg.Target, start, cfg.Duration)
		}()
	}

	if cfg.Closed {
		deadline := start.Add(cfg.Duration)
		for i, cli := range clients {
			wg.Add(1)
			go func(i int, cli *core.Client) {
				defer wg.Done()
				wgen := gen.Derive(cfg.Workload.Seed + int64(i+1)*7919)
				for time.Now().Before(deadline) {
					op := wgen.Next()
					sendStart := time.Now()
					res, err := execOp(cli, op)
					done := time.Now()
					cfg.Intended.Record(done.Sub(sendStart))
					cfg.Service.Record(done.Sub(sendStart))
					if err != nil {
						errs.Add(1)
					} else {
						completed.Add(1)
					}
					if cfg.OnResult != nil {
						cfg.OnResult(Result{Session: -1, Op: op, Res: res, Err: err})
					}
				}
			}(i, cli)
		}
	} else {
		var next atomic.Int64
		for _, cli := range clients {
			wg.Add(1)
			go func(cli *core.Client) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(sched) {
						return
					}
					a := &sched[i]
					due := start.Add(a.at)
					sleepUntil(due)
					sendStart := time.Now()
					res, err := execOp(cli, a.op)
					done := time.Now()
					// The open-loop ledger: completion minus *intended*
					// start. A worker that claimed this arrival late (all
					// conns stuck behind a stall) pays the backlog here.
					cfg.Intended.Record(done.Sub(due))
					cfg.Service.Record(done.Sub(sendStart))
					if err != nil {
						errs.Add(1)
					} else {
						completed.Add(1)
					}
					if cfg.OnResult != nil {
						cfg.OnResult(Result{Session: int(a.session), Op: a.op, Res: res, Err: err})
					}
				}
			}(cli)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	chaosWG.Wait()

	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	rep := Report{
		Offered:     cfg.Rate,
		Achieved:    float64(completed.Load()) / elapsed.Seconds(),
		Generated:   len(sched),
		Completed:   int(completed.Load()),
		Errors:      int(errs.Load()),
		Elapsed:     elapsed,
		ChaosEvents: chaosEvents,
	}
	if cfg.Closed {
		rep.Offered = rep.Achieved
	}
	return rep, nil
}

func execOp(cli *core.Client, op workload.Op) (core.Result, error) {
	switch {
	case op.Read:
		return cli.Get(op.Key)
	case op.Delete:
		return cli.Delete(op.Key)
	default:
		return cli.Put(op.Key, op.Value)
	}
}

// spinThreshold is the final stretch before an arrival's due time where the
// worker stops sleeping and yields its way to the deadline instead. A sleep
// ending inside the last millisecond or so overshoots by about a
// millisecond (measured on a 2-CPU Linux host), so the stretch must be
// wider than that.
const spinThreshold = 5 * time.Millisecond

// sleepUntil parks until due: coarse sleep to just short of it, then
// yield-spin across the last stretch — yielding lets other goroutines run on
// this processor, so only idle time is spun. Arrivals already past due
// (backlog) return immediately — their lateness is the intended-latency
// signal, not something to re-schedule.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > spinThreshold:
			time.Sleep(d - spinThreshold)
		default:
			runtime.Gosched()
		}
	}
}
