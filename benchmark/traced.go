package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"

	"recipe/internal/core"
)

// probeOps is how many gets, then puts, the unloaded probe issues.
const probeOps = 300

// tracedReport is everything a --trace 1 run measured.
type tracedReport struct {
	metrics map[string]float64
	verdict
	attempted, failed int
	spans             int
	tracePath         string
	midValid          bool
	recovery          recoveryResult
}

// counters is a snapshot of the counters the cluster and its clients already
// expose; the traced rung reads its per-layer ratios from their deltas.
type counters struct {
	delivered, stalls         uint64
	local, replica, fallbacks uint64
	pkts, bytes               uint64
	retries, busy             uint64
	fsyncs                    uint64
}

func (b *bench) counters() counters {
	var c counters
	for _, id := range b.cluster.Order {
		if n, ok := b.cluster.Nodes[id]; ok {
			c.delivered += n.Stats().Delivered.Load()
			c.stalls += n.Stats().PipelineStalls.Load()
		}
	}
	c.local, c.replica, c.fallbacks = b.cluster.ReadStats()
	c.pkts, _, c.bytes = b.cluster.Fabric.Stats()
	for _, cn := range b.conns {
		st := cn.cli.Stats()
		c.retries += st.Retries
		c.busy += st.BusyRejects
	}
	c.fsyncs = b.cluster.PhaseSnapshots()[core.MetricPhaseWALFsync].Count
	return c
}

// probe issues probeOps gets and then probeOps puts, one at a time on one
// connection of the otherwise idle cluster: what one operation costs when
// nothing queues. It returns the per-kind medians and the heap cost per put.
func (b *bench) probe() (getP50, putP50, allocsPerPut, allocBytesPerOp float64) {
	c := b.conns[0]
	ops := b.stream(300)
	time1 := func(read bool) (p50 float64, mallocs, bytes uint64) {
		d := make([]float64, probeOps)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range d {
			op := ops.next()
			op.read = read
			start := time.Now()
			ok, _ := c.exec(op, 1)
			d[i] = float64(time.Since(start))
			b.attempted++
			if !ok {
				b.failed++
			}
		}
		runtime.ReadMemStats(&after)
		return median(d), after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	getP50, _, getBytes := time1(true)
	putP50, putMallocs, putBytes := time1(false)
	return getP50, putP50, float64(putMallocs) / probeOps, float64(getBytes+putBytes) / (2 * probeOps)
}

// runTraced is the traced pass of one workload. Part A drives the cluster:
// an unloaded probe, the mid rung with tracing off and again with a span per
// arrival, the hi rung, the fault phase, verification, and then recovery under
// load. Part B replays the same generated op stream through each layer alone
// (layers.go). The spans are kept in memory and written to out at the end.
func runTraced(def *workloadDef, cfg config, out string) (*tracedReport, error) {
	b, err := openBench(def, cfg, 0, true)
	if err != nil {
		return nil, err
	}
	closeBench := sync.OnceFunc(b.close)
	defer closeBench()
	t := newTracer(cfg.conns)
	m := make(map[string]float64, len(perLayer))

	now := time.Now()
	setupStart := now.Add(-b.setup.total())
	root := t.root("harness.setup", def.name, setupStart, now)
	t.child(root, "harness.new", setupStart, setupStart.Add(b.setup.build))
	t.child(root, "harness.elect", setupStart.Add(b.setup.build), setupStart.Add(b.setup.build+b.setup.elect))
	t.child(root, "harness.preload", now.Add(-b.setup.preload), now)
	m["harness.new_ms"], m["harness.elect_ms"], m["harness.preload_ms"] = ms(b.setup.build), ms(b.setup.elect), ms(b.setup.preload)

	b.warm()
	getP50, putP50, allocsPerPut, allocBytes := b.probe()
	m["core.client.get_p50_us"], m["core.client.put_p50_us"] = usOf(getP50), usOf(putP50)
	m["core.client.alloc_bytes_per_op"] = allocBytes

	// The mid rung twice: tracing off, then a span per arrival. Their
	// difference is what tracing costs.
	rung := 3 * cfg.plan.rung // as long as the end-to-end run's rounds together
	untraced := b.rung(1, rung)
	sched := b.schedule(1, def.rungs[1], rung)
	before := b.counters()
	waitBefore := b.cluster.PhaseSnapshots()[core.MetricPhaseQueueWait]
	traced := runOpen(b.conns, sched, 1, t, nil)
	after := b.counters()
	waitAfter := b.cluster.PhaseSnapshots()[core.MetricPhaseQueueWait]
	b.count(&traced)
	ops := float64(max(traced.completed(), 1))
	reads := 0
	for _, a := range sched {
		if a.op.read {
			reads++
		}
	}
	m["loadgen.gen_lag_p50_us"] = usOf(quantile(traced.lag, 0.5))
	m["loadgen.gen_lag_p99_us"] = usOf(quantile(traced.lag, 0.99))
	m["loadgen.lat_mid_p99_us"] = usOf(quantile(traced.lat, 0.99))
	m["loadgen.lat_mid_p999_us"] = usOf(quantile(traced.lat, 0.999))
	m["loadgen.svc_mid_p50_us"] = usOf(quantile(traced.svc, 0.5))
	m["loadgen.svc_mid_p99_us"] = usOf(quantile(traced.svc, 0.99))
	m["loadgen.trace_overhead_frac"] = quantile(traced.lat, 0.5)/quantile(untraced.lat, 0.5) - 1
	m["core.client.retries_per_kop"] = 1000 * float64(after.retries-before.retries) / ops
	m["core.client.busy_per_kop"] = 1000 * float64(after.busy-before.busy) / ops
	m["core.node.msgs_per_op"] = float64(after.delivered-before.delivered) / ops
	wait := waitAfter.Sub(&waitBefore)
	m["core.node.queue_wait_p50_us"] = usOf(wait.Quantile(0.5))
	m["core.node.pipeline_stalls_per_kop"] = 1000 * float64(after.stalls-before.stalls) / ops
	m["core.node.local_read_frac"] = float64(after.local-before.local) / float64(max(reads, 1))
	m["core.node.lease_fallbacks_per_kop"] = 1000 * float64(after.fallbacks-before.fallbacks) / ops
	m["netstack.pkts_per_op"] = float64(after.pkts-before.pkts) / ops
	m["netstack.bytes_per_op"] = float64(after.bytes-before.bytes) / ops
	m["seal.fsyncs_per_op"] = float64(after.fsyncs-before.fsyncs) / ops

	hi := b.rung(2, rung)
	m["loadgen.lat_hi_p50_us"] = usOf(quantile(hi.lat, 0.5))
	m["loadgen.lat_hi_p99_us"] = usOf(quantile(hi.lat, 0.99))

	fault, err := b.faultPhase(t, cfg.plan.fault/2)
	if err != nil {
		return nil, err
	}
	m["loadgen.lat_fault_p99_us"] = usOf(quantile(fault.lat, 0.99))
	m["harness.elect_after_crash_ms"] = ms(fault.crash.reelect)
	m["core.client.failover_retry_ms"] = quantile(fault.retried, 0.5) / 1e6
	m["raft.elections_per_crash"] = float64(fault.crash.terms)

	v, err := b.verify(true, settleTime)
	if err != nil {
		return nil, err
	}
	rep := &tracedReport{
		metrics: m, verdict: v,
		attempted: b.attempted, failed: b.failed,
		tracePath: out,
		midValid:  quantile(traced.lag, 0.5) <= maxGenLagShare*quantile(traced.lat, 0.5),
	}

	// Recovery under load comes after the verdict above, which alone decides
	// `correct`: what it loses at this commit is reported, not hidden.
	rec, err := b.recoveryPhase(t, cfg.plan.fault, fault.crash.victim, v)
	if err != nil {
		return nil, err
	}
	rep.recovery = rec
	rep.attempted, rep.failed = b.attempted, b.failed
	m["harness.recover_ms"] = median(slices.Clone(rec.recovers))
	m["harness.recover_lost_acked_writes"] = float64(rec.lostAcked)
	m["harness.recover_divergent_keys"] = float64(rec.divergent)
	m["harness.recover_stale_reads"] = float64(rec.staleReads + rec.badValues)
	m["core.client.reissued_per_crash"] = float64(fault.reissued+rec.reissued) / 2

	_, signed := b.cluster.Map()
	in := layerInputs{
		def: def, gen: b.gen, keys: b.ck.keys, value: b.gen.Value(),
		signedMap: signed, mapKey: b.cluster.CAS.MapPublicKey(), workDir: cfg.workDir,
	}
	// The same generated op stream the traced rung offered.
	for _, a := range sched[:min(replayOps, len(sched))] {
		in.ops = append(in.ops, a.op)
	}
	for ops := b.stream(1); len(in.ops) < replayOps; {
		in.ops = append(in.ops, ops.next())
	}
	// Part B runs with the cluster stopped: it has this process to itself.
	closeBench()
	if err := replayLayers(t, in, m); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}

	// What the layers do not explain of one unloaded put. Its blocking path
	// crosses the client-node link twice and one replication round trip per
	// protocol round; every crossing encodes, shields, sends, verifies and
	// decodes one message. The protocol step is all three replicas' work run
	// serially, an upper bound on what blocks.
	proto, rounds := "raft", 1.0
	if def.leaderless {
		proto, rounds = "abd", 2.0
	}
	legs := 2 + 2*rounds
	perLeg := m["core.wire.encode_ns"] + m["core.wire.decode_ns"] + m["netstack.send_ns"]
	legAllocs := m["core.wire.allocs_per_msg"] + m["netstack.allocs_per_msg"]
	if def.cluster.Shielded {
		perLeg += m["authn.roundtrip_ns"]
		legAllocs += m["authn.roundtrip_allocs"]
	}
	attributed := legs*perLeg + m[proto+".step_ns_per_op"]
	attributedAllocs := legs*legAllocs + m[proto+".allocs_per_op"]
	if def.cluster.Durability {
		attributed += m["seal.append_ns"] + 1e3*m["seal.commit_us"]
		attributedAllocs += m["seal.allocs_per_append"]
	}
	m["core.client.unattributed_us"] = usOf(putP50 - attributed)
	m["core.client.unattributed_allocs"] = allocsPerPut - attributedAllocs

	if rep.spans, err = t.write(out); err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", def.name, err)
	}
	return rep, nil
}

func (r *tracedReport) print(w io.Writer, def *workloadDef) {
	fmt.Fprintf(w, "== %s (traced pass, per layer)\n", def.name)
	printMetrics(w, perLayer, r.metrics)
	fmt.Fprintf(w, "  %d spans written to %s\n", r.spans, r.tracePath)
	rec := &r.recovery
	fmt.Fprintf(w, "  recovery under load (not part of correct): Recover took %.1f ms; lost_acked_writes %d, divergent_keys %d, stale_reads %d, bad_values %d, reissued %d\n",
		rec.recovers, rec.lostAcked, rec.divergent, rec.staleReads, rec.badValues, rec.reissued)
	if !r.midValid {
		fmt.Fprintln(w, "  traced mid rung INVALID: generator lag exceeds 20 % of its median latency")
	}
}
