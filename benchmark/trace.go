package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request (or
// one replay) share trace; parent is the id of the span that caused this
// one, 0 for a root. Times are nanoseconds since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// rootNames are the spans that may have no parent.
var rootNames = map[string]bool{
	"loadgen.arrival": true, // one open-loop arrival, due -> done
	"replay":          true, // one layer's replay of the op stream (Note names the layer)
	"harness.setup":   true,
	"harness.fault":   true, // one crash/recover cycle
}

// tracer keeps spans in memory, one buffer per connection so recording takes
// no lock, and writes them out when the benchmark ends. A nil tracer records
// nothing.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Uint64
	perConn [][]span
	main    []span // spans recorded by the benchmark's main goroutine
	// clock is what an empty span measures: the cost of reading the clock
	// twice, subtracted from every replayed call.
	clock float64
}

func newTracer(conns int) *tracer {
	t := &tracer{epoch: time.Now(), perConn: make([][]span, conns)}
	for i := range t.perConn {
		t.perConn[i] = make([]span, 0, 1<<16)
	}
	t.main = make([]span, 0, 1<<16)
	d := make([]float64, 10000)
	for i := range d {
		s := time.Now()
		d[i] = float64(time.Since(s))
	}
	t.clock = median(d)
	return t
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// arrival records one open-loop arrival: the root from due to done, the wait
// for the due time and a free connection, and the client operation.
func (t *tracer) arrival(connID uint32, op opSpec, due, send, done time.Time) {
	if t == nil {
		return
	}
	root := t.nextID.Add(3) - 2
	note := "put"
	if op.read {
		note = "get"
	}
	buf := t.perConn[connID]
	buf = append(buf,
		span{ID: root, Trace: root, Name: "loadgen.arrival", Start: t.ns(due), End: t.ns(done), Note: note},
		span{ID: root + 1, Parent: root, Trace: root, Name: "loadgen.wait", Start: t.ns(due), End: t.ns(send)},
		span{ID: root + 2, Parent: root, Trace: root, Name: "core.client.op", Start: t.ns(send), End: t.ns(done), Note: note},
	)
	t.perConn[connID] = buf
}

// root opens a root span on the main goroutine and returns its id.
func (t *tracer) root(name, note string, start, end time.Time) uint64 {
	id := t.nextID.Add(1)
	t.main = append(t.main, span{ID: id, Trace: id, Name: name, Start: t.ns(start), End: t.ns(end), Note: note})
	return id
}

// child records a child of parent on the main goroutine.
func (t *tracer) child(parent uint64, name string, start, end time.Time) {
	t.main = append(t.main, span{ID: t.nextID.Add(1), Parent: parent, Trace: parent, Name: name, Start: t.ns(start), End: t.ns(end)})
}

// callStats is what replaying one layer call over the op stream measured.
type callStats struct {
	ns     float64 // median duration of one call, clock cost removed
	allocs float64 // heap allocations per call
}

// replay calls fn n times under one "replay" root, one child span per call,
// and returns the median call time and the allocations per call. The layers
// replayed run alone on this goroutine after the cluster has stopped, so the
// process-wide allocation count belongs to fn.
func (t *tracer) replay(name string, n int, fn func(i int)) callStats {
	return t.replayWith(name, n, nil, fn)
}

// replayWith is replay with an untimed step before each call. What prep
// allocates is counted, so use allocs only when prep is nil.
func (t *tracer) replayWith(name string, n int, prep, fn func(i int)) callStats {
	starts, ends := make([]time.Time, n), make([]time.Time, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if prep != nil {
			prep(i)
		}
		starts[i] = time.Now()
		fn(i)
		ends[i] = time.Now()
	}
	runtime.ReadMemStats(&after)
	root := t.root("replay", name, starts[0], ends[n-1])
	d := make([]float64, n)
	for i := range d {
		t.child(root, name, starts[i], ends[i])
		d[i] = float64(ends[i].Sub(starts[i]))
	}
	return callStats{ns: max(median(d)-t.clock, 0), allocs: float64(after.Mallocs-before.Mallocs) / float64(n)}
}

// write stores the spans as JSON lines and returns how many there were.
func (t *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, buf := range append([][]span{t.main}, t.perConn...) {
		for i := range buf {
			if err := enc.Encode(&buf[i]); err != nil {
				f.Close()
				return n, err
			}
		}
		n += len(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
