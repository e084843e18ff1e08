package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"recipe/internal/workload"
)

// opSpec is one generated operation: a get or a put of one key of the
// preloaded key space. Put values are stamped by the connection that sends
// them (check.go).
type opSpec struct {
	read bool
	key  int32
}

// arrival is one open-loop arrival: the operation and when it is due,
// measured from the phase start.
type arrival struct {
	at time.Duration
	op opSpec
}

// sample is one finished operation. Times are nanoseconds; done is measured
// from the phase start.
type sample struct {
	lat  int64 // due -> done (open loop), send -> done (closed loop)
	svc  int64 // send -> done
	lag  int64 // send - due for arrivals whose worker was already waiting at the due time; -1 otherwise
	done int64
	ok   bool
	// retried marks an operation whose client needed more than one attempt.
	retried bool
}

// opStream draws operations from the repository's workload generator and
// maps its key strings back to indices into the shared key table.
type opStream struct{ gen *workload.Generator }

func (s opStream) next() opSpec {
	op := s.gen.Next()
	return opSpec{read: op.Read, key: keyIndex(op.Key)}
}

// poissonSchedule pre-generates a Poisson arrival timeline at rate ops/s for
// duration d. Fixing every due time before the run starts is what makes the
// loop open: a stall delays arrivals, it never removes them.
func poissonSchedule(rate float64, d time.Duration, ops opStream, rng *rand.Rand) []arrival {
	sched := make([]arrival, 0, int(rate*d.Seconds()*1.1)+16)
	gap := float64(time.Second) / rate
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() * gap)
		if t >= d {
			return sched
		}
		sched = append(sched, arrival{at: t, op: ops.next()})
	}
}

// coarseSleep is how early before a due time a worker stops sleeping. A
// time.Sleep of tens of microseconds takes about a millisecond here, so the
// last stretch is crossed by yielding, never by a short sleep.
const coarseSleep = 5 * time.Millisecond

// waitUntil parks until due: sleeps while more than coarseSleep early, then
// yields the processor in a loop until the clock passes due. Yielding lets
// the cluster's goroutines run on this processor; only idle time is spun.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > coarseSleep:
			time.Sleep(d - coarseSleep)
		default:
			runtime.Gosched()
		}
	}
}

// runOpen drives one open-loop phase: every connection's worker claims the
// next unclaimed arrival, waits for its due time, and executes it. Latency
// is charged from the due time, so an arrival claimed late (all connections
// busy) pays its wait. tries is how often an operation may be issued before
// it has failed (check.go). started, when set, is called with the phase start
// before the first arrival is due.
func runOpen(conns []*conn, sched []arrival, tries int, trace *tracer, started func(time.Time)) phaseResult {
	for _, c := range conns {
		c.samples = c.samples[:0]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	if started != nil {
		started(start)
	}
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.at)
				early := time.Until(due) > 0
				waitUntil(due)
				send := time.Now()
				ok, retried := c.exec(a.op, tries)
				done := time.Now()
				s := sample{
					lat: int64(done.Sub(due)), svc: int64(done.Sub(send)), lag: -1,
					done: int64(done.Sub(start)), ok: ok, retried: retried,
				}
				if early {
					s.lag = int64(send.Sub(due))
				}
				c.samples = append(c.samples, s)
				trace.arrival(c.id, a.op, due, send, done)
			}
		}(c)
	}
	wg.Wait()
	return collect(conns, time.Since(start))
}

// runClosed drives one closed-loop phase: every connection issues operations
// back to back for d. No pacer runs, so processor time and allocations
// measured around it belong to the program.
func runClosed(conns []*conn, d time.Duration, streams []opStream) phaseResult {
	for _, c := range conns {
		c.samples = c.samples[:0]
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range conns {
		wg.Add(1)
		go func(c *conn, ops opStream) {
			defer wg.Done()
			for {
				send := time.Now()
				if !send.Before(deadline) {
					return
				}
				op := ops.next()
				ok, retried := c.exec(op, 1)
				done := time.Now()
				svc := int64(done.Sub(send))
				c.samples = append(c.samples, sample{
					lat: svc, svc: svc, lag: -1, done: int64(done.Sub(start)), ok: ok, retried: retried,
				})
			}
		}(c, streams[i])
	}
	wg.Wait()
	return collect(conns, time.Since(start))
}

// phaseResult summarises one phase.
type phaseResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	// lat, svc and lag are sorted ascending. lag holds only the arrivals
	// whose worker was waiting at the due time.
	lat, svc, lag []int64
}

func (p *phaseResult) completed() int { return p.attempted - p.failed }

// rate is completions per second of the phase's wall time.
func (p *phaseResult) rate() float64 {
	return float64(p.completed()) / p.elapsed.Seconds()
}

func collect(conns []*conn, elapsed time.Duration) phaseResult {
	r := phaseResult{elapsed: elapsed}
	for _, c := range conns {
		for i := range c.samples {
			s := &c.samples[i]
			r.attempted++
			if !s.ok {
				r.failed++
			}
			r.lat = append(r.lat, s.lat)
			r.svc = append(r.svc, s.svc)
			if s.lag >= 0 {
				r.lag = append(r.lag, s.lag)
			}
		}
	}
	slices.Sort(r.lat)
	slices.Sort(r.svc)
	slices.Sort(r.lag)
	return r
}

// quantile returns the nearest-rank q-quantile of sorted, or 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// usOf converts nanoseconds to microseconds.
func usOf(ns float64) float64 { return ns / 1e3 }

// median returns the median of v (v is reordered), or 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}
