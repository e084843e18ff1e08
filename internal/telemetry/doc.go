// Package telemetry is the observability substrate: fixed-footprint
// lock-free latency histograms, a named-metric registry with Prometheus
// text exposition, and a bounded flight-recorder trace ring.
//
// # Histograms
//
// Histogram is a log-bucketed latency histogram in the HDR style:
// power-of-two major buckets subdivided into 16 linear sub-buckets, so any
// recorded value lands in a bucket whose width is at most 1/16 of its
// magnitude (quantile error ≤ ~6%, ~3% at bucket midpoints). Every bucket
// is an atomic counter in one fixed array, so Record is wait-free and
// allocation-free — it is designed to sit on the node's hot path, inside
// the 1 alloc/op budget the allocation guard enforces. Snapshot copies
// the counters into a value type that merges (cross-node aggregation),
// subtracts (interval measurement around a benchmark's timed section), and
// answers p50/p90/p99/p999/max.
//
// # Registry
//
// Registry unifies a process's metrics behind one named interface. New
// metrics use the typed Counter/Gauge/Histogram handles; the counters that
// already exist across the codebase (authn drop counters, read-path
// counters, commit-queue stall/depth gauges, WAL counters) register as
// CounterFunc/GaugeFunc closures over their existing atomics, so the hot
// paths that increment them are untouched. Export produces a merged-able
// point set; WriteText emits Prometheus text exposition format (the
// recipe-node -metrics-addr endpoint and recipe-cli metrics speak it).
//
// # Flight recorder
//
// TraceRing is a bounded ring of recent protocol events (elections, lease
// transitions, epoch bumps, recoveries, backpressure stalls). Recording is
// cheap and allocation-free for preformatted events; the ring overwrites
// its oldest entry when full, so a node can always afford to keep it on.
// Nodes dump the ring on crash-stop, giving chaos and -race failures a
// postmortem story.
//
// The package depends only on the standard library, so every layer of the
// stack (core, seal, netstack, protocols, harness) can record into it
// without import cycles.
package telemetry
