package main

import (
	"fmt"
	"slices"
	"time"
)

// recoverTimeout bounds one replica's state transfer during Recover.
const recoverTimeout = 10 * time.Second

// crashTries is how often the phases that crash a replica issue an operation
// before it has failed. At the parent commit a crashing replica can answer a
// request with its own crash error, and the client library takes that, like
// its eight spent attempts, as final; an application in a failover issues the
// operation again, and so do these phases. Left at 1, one native-raft run in
// four would report a failed operation, and `failed` could not tell a later
// regression from this. Every reissue is counted and reported
// (core.client.reissued_per_crash); the steady phases allow none.
const crashTries = 3

// crash is the fault phase's crash as the benchmark observed it.
type crash struct {
	victim  string
	at      time.Duration // crash time, from the phase start
	reelect time.Duration // crash -> some live replica coordinates again (0 when leaderless)
	terms   uint64        // protocol terms that passed before a coordinator was seen again
	// unavail is the longest time any one connection went without a
	// successful completion, among gaps that overlap the time after the crash.
	unavail time.Duration
}

// faultResult is the fault phase: an open-loop run during which one replica
// crashes and stays down.
type faultResult struct {
	phaseResult
	crash crash
	// retried holds the send->done times of operations that needed more than
	// one attempt, sorted.
	retried []int64
	// reissued counts operations issued again after a failed first try.
	reissued int
}

// victim picks the replica to crash: the coordinator, or under a leaderless
// protocol the replica that delivered the most messages since last asked,
// which is where the connections are pinned.
func (b *bench) victim(delivered map[string]uint64) (string, error) {
	if !b.def.leaderless {
		return b.cluster.WaitForCoordinator(2 * time.Second)
	}
	best, bestDelta := "", uint64(0)
	for _, id := range b.cluster.Order {
		n, ok := b.cluster.Nodes[id]
		if !ok {
			continue
		}
		now := n.Stats().Delivered.Load()
		if d := now - delivered[id]; best == "" || d > bestDelta {
			best, bestDelta = id, d
		}
		delivered[id] = now
	}
	if best == "" {
		return "", fmt.Errorf("no live replica to crash")
	}
	return best, nil
}

// term returns the highest protocol term among live replicas.
func (b *bench) term() uint64 {
	var t uint64
	for _, id := range b.cluster.Order {
		if n, ok := b.cluster.Nodes[id]; ok {
			t = max(t, n.Status().Term)
		}
	}
	return t
}

// crashNow crashes the victim (abandoning any unsynced WAL tail), waits at
// most wait for a live replica to coordinate again, and returns what it saw.
// start is the phase start.
func (b *bench) crashNow(start time.Time, wait time.Duration, delivered map[string]uint64, trace *tracer) (crash, error) {
	id, err := b.victim(delivered)
	if err != nil {
		return crash{}, err
	}
	termBefore := b.term()
	at := time.Now()
	b.cluster.Crash(id)
	cr := crash{victim: id, at: at.Sub(start)}
	if !b.def.leaderless {
		if _, err := b.cluster.WaitForCoordinator(wait); err == nil {
			cr.reelect = time.Since(at)
		}
	}
	cr.terms = b.term() - termBefore
	if trace != nil {
		root := trace.root("harness.fault", "crash "+id, at, at.Add(cr.reelect))
		trace.child(root, "harness.reelect", at, at.Add(cr.reelect))
	}
	return cr, nil
}

// recoverNow recovers a crashed replica and returns how long Recover took.
func (b *bench) recoverNow(id string, trace *tracer) (time.Duration, error) {
	start := time.Now()
	if err := b.cluster.Recover(id, recoverTimeout); err != nil {
		return 0, fmt.Errorf("recover %s: %w", id, err)
	}
	end := time.Now()
	if trace != nil {
		trace.child(trace.root("harness.fault", "recover "+id, start, end), "harness.recover", start, end)
	}
	return end.Sub(start), nil
}

// reissued sums the connections' reissue counts.
func (b *bench) reissued() int {
	n := 0
	for _, c := range b.conns {
		n += c.reissued
	}
	return n
}

// faultPhase offers the workload's fault rate on schedule for d. A seeded
// 8-12 % in, the victim crashes and stays down: requests
// keep arriving while no coordinator exists, the client's retries carry them
// across the outage, and the rest of the phase runs on two replicas. Only the
// goroutine started here changes the topology.
func (b *bench) faultPhase(trace *tracer, d time.Duration) (faultResult, error) {
	sched := b.schedule(50, b.def.faultRate(), d)
	reissuedBefore := b.reissued()
	offset := time.Duration((0.08 + 0.04*b.rng(51).Float64()) * float64(d))
	delivered := make(map[string]uint64)
	if b.def.leaderless {
		_, _ = b.victim(delivered) // baseline for the delta the victim is picked by
	}
	var cr crash
	crashed := make(chan error, 1)
	phase := runOpen(b.conns, sched, crashTries, trace, func(start time.Time) {
		go func() {
			time.Sleep(time.Until(start.Add(offset)))
			var err error
			cr, err = b.crashNow(start, d-offset, delivered, trace)
			crashed <- err
		}()
	})
	if err := <-crashed; err != nil {
		return faultResult{}, fmt.Errorf("%s: fault phase: %w", b.def.name, err)
	}
	b.count(&phase)
	res := faultResult{phaseResult: phase, reissued: b.reissued() - reissuedBefore}
	for _, c := range b.conns {
		var done []int64
		for j := range c.samples {
			s := &c.samples[j]
			if s.ok {
				done = append(done, s.done)
			}
			if s.retried {
				res.retried = append(res.retried, s.svc)
			}
		}
		slices.Sort(done)
		cr.unavail = max(cr.unavail, longestGap(done, int64(cr.at), int64(d)))
	}
	slices.Sort(res.retried)
	res.crash = cr
	return res, nil
}

// longestGap returns the longest interval between successive values of
// sorted that overlaps [from, to]. The phase's start opens the first interval
// and to closes the last, so a connection that never completes anything again
// counts its whole silence.
func longestGap(sorted []int64, from, to int64) time.Duration {
	var prev, longest int64
	for _, t := range sorted {
		if t >= from && prev <= to {
			longest = max(longest, t-prev)
		}
		prev = t
	}
	if prev < to {
		longest = max(longest, to-prev)
	}
	return time.Duration(longest)
}

// recoveryResult is the recovery phase: what Recover cost under load, and
// what output verification found afterwards.
type recoveryResult struct {
	recovers []float64 // each Recover call, ms
	reissued int       // operations issued again after a failed first try
	verdict
}

// recoveryPhase runs Cluster.Recover under live arrivals, which the fault
// phase does not: at the parent commit that loses acknowledged writes (README,
// "Known limits"), so it runs after the verdict that decides the run's
// `correct`, and what it finds is reported as per-layer counts a fix can move
// to zero. The fault rate is offered on schedule for d; 5 % in, the replica the fault phase left down recovers; 35 % in, the
// coordinator of the moment crashes; 65 % in, it recovers. Then, with nothing
// in flight, every written key is read back and the three replicas' stores
// are compared.
func (b *bench) recoveryPhase(trace *tracer, d time.Duration, down string, before verdict) (recoveryResult, error) {
	sched := b.schedule(60, b.def.faultRate(), d)
	reissuedBefore := b.reissued()
	delivered := make(map[string]uint64)
	if b.def.leaderless {
		_, _ = b.victim(delivered)
	}
	var res recoveryResult
	finished := make(chan error, 1)
	phase := runOpen(b.conns, sched, crashTries, trace, func(start time.Time) {
		at := func(share float64) { time.Sleep(time.Until(start.Add(time.Duration(share * float64(d))))) }
		recoverDown := func() error {
			took, err := b.recoverNow(down, trace)
			if err == nil {
				res.recovers = append(res.recovers, ms(took))
			}
			return err
		}
		script := func() error {
			at(0.05)
			if err := recoverDown(); err != nil {
				return err
			}
			at(0.35)
			cr, err := b.crashNow(start, d/4, delivered, trace)
			if err != nil {
				return err
			}
			down = cr.victim
			at(0.65)
			return recoverDown()
		}
		go func() { finished <- script() }()
	})
	if err := <-finished; err != nil {
		return res, fmt.Errorf("%s: recovery phase: %w", b.def.name, err)
	}
	b.count(&phase)
	res.reissued = b.reissued() - reissuedBefore
	// What recovery broke stays broken: a second is enough to tell it from a
	// replica that is merely behind at this rate.
	after, err := b.verify(true, time.Second)
	if err != nil {
		return res, err
	}
	res.verdict = after
	res.staleReads -= before.staleReads
	res.badValues -= before.badValues
	return res, nil
}
