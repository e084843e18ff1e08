// PR-4 tentpole benchmarks: allocation discipline of the steady-state
// shielded hot path. The microbenches isolate the four per-message stages
// (seal, verify, envelope encode, envelope decode) with b.ReportAllocs; the
// end-to-end benches run a sustained YCSB workload and report heap traffic
// (B/op, allocs/op) and GC totals via runtime.ReadMemStats alongside
// throughput, at MaxBatch=1 (per-message worst case) and default batching.
// Results are committed as BENCH_PR4.json.
package recipe

import (
	"runtime"
	"testing"
	"time"

	"recipe/internal/authn"
	"recipe/internal/harness"
	"recipe/internal/tee"
	"recipe/internal/workload"
)

// hotPathPayload is the microbench payload size (a typical 256 B value
// wrapped in a wire message is ~300 B).
const hotPathPayload = 300

// newHotPathPair builds a sender/receiver shielder pair on a native-cost
// platform so the benchmark measures the data plane, not the simulated TEE.
func newHotPathPair(b *testing.B, opts ...authn.Option) (*authn.Shielder, *authn.Shielder) {
	b.Helper()
	plat, err := tee.NewPlatform("hotpath", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		b.Fatalf("platform: %v", err)
	}
	s := authn.NewShielder(plat.NewEnclave([]byte("s")), opts...)
	v := authn.NewShielder(plat.NewEnclave([]byte("v")), opts...)
	key := make([]byte, 32)
	for _, sh := range []*authn.Shielder{s, v} {
		if err := sh.OpenChannel("hot", key); err != nil {
			b.Fatalf("OpenChannel: %v", err)
		}
	}
	return s, v
}

// BenchmarkHotPathAllocs measures allocs/op and B/op for each stage of the
// non-confidential shielded data plane, plus the combined round trip the CI
// allocation guard budgets (seal+verify+encode+decode).
func BenchmarkHotPathAllocs(b *testing.B) {
	payload := make([]byte, hotPathPayload)

	b.Run("seal", func(b *testing.B) {
		s, _ := newHotPathPair(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Shield("hot", 7, payload); err != nil {
				b.Fatalf("Shield: %v", err)
			}
		}
	})

	b.Run("encode", func(b *testing.B) {
		s, _ := newHotPathPair(b)
		env, err := s.Shield("hot", 7, payload)
		if err != nil {
			b.Fatalf("Shield: %v", err)
		}
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = env.AppendTo(buf[:0])
		}
		_ = buf
	})

	b.Run("decode", func(b *testing.B) {
		s, _ := newHotPathPair(b)
		env, err := s.Shield("hot", 7, payload)
		if err != nil {
			b.Fatalf("Shield: %v", err)
		}
		data := env.Encode()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var e authn.Envelope
			if err := authn.DecodeEnvelopeInto(&e, data); err != nil {
				b.Fatalf("decode: %v", err)
			}
		}
	})

	b.Run("verify", func(b *testing.B) {
		// Verification requires fresh counters, so seal is part of the loop;
		// the seal-only bench above isolates its share.
		s, v := newHotPathPair(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env, err := s.Shield("hot", 7, payload)
			if err != nil {
				b.Fatalf("Shield: %v", err)
			}
			if _, _, err := v.Verify(env); err != nil {
				b.Fatalf("Verify: %v", err)
			}
		}
	})

	// The CI-guarded number: one message's full journey through the authn
	// data plane, seal -> encode -> decode -> verify.
	b.Run("roundtrip", func(b *testing.B) {
		s, v := newHotPathPair(b)
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env, err := s.Shield("hot", 7, payload)
			if err != nil {
				b.Fatalf("Shield: %v", err)
			}
			buf = env.AppendTo(buf[:0])
			var e authn.Envelope
			if err := authn.DecodeEnvelopeInto(&e, buf); err != nil {
				b.Fatalf("decode: %v", err)
			}
			if _, _, err := v.Verify(e); err != nil {
				b.Fatalf("Verify: %v", err)
			}
		}
	})

	b.Run("roundtrip-confidential", func(b *testing.B) {
		s, v := newHotPathPair(b, authn.WithConfidentiality())
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env, err := s.Shield("hot", 7, payload)
			if err != nil {
				b.Fatalf("Shield: %v", err)
			}
			buf = env.AppendTo(buf[:0])
			authn.RecyclePayload(&env)
			var e authn.Envelope
			if err := authn.DecodeEnvelopeInto(&e, buf); err != nil {
				b.Fatalf("decode: %v", err)
			}
			if _, _, err := v.Verify(e); err != nil {
				b.Fatalf("Verify: %v", err)
			}
		}
	})

	// End-to-end: sustained YCSB against a 3-replica R-Raft cluster. Heap
	// traffic and GC totals for the whole process are attributed per
	// operation; MaxBatch=1 is the per-message worst case the acceptance
	// criteria compare against default batching.
	for _, mode := range []struct {
		name     string
		maxBatch int
	}{
		{"e2e-ycsb/MaxBatch=1", 1},
		{"e2e-ycsb/batched", 0}, // node default (64)
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := evalOptions(harness.Raft, true, false)
			opts.MaxBatch = mode.maxBatch
			benchSustainedMem(b, opts, workload.Config{ReadRatio: 0.50, ValueSize: 256})
		})
	}
}

// benchSustainedMem drives b.N YCSB operations and reports throughput plus
// process-wide heap traffic and GC totals per operation.
func benchSustainedMem(b *testing.B, opts harness.Options, w workload.Config) {
	b.Helper()
	w.Keys = benchKeys
	w.Seed = opts.Seed
	c, err := harness.New(opts)
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	defer c.Stop()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		b.Fatalf("coordinator: %v", err)
	}
	if err := c.Preload(w); err != nil {
		b.Fatalf("preload: %v", err)
	}
	// Warm pools and steady paths before measuring.
	if _, err := c.RunOps(w, benchClients, 500); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	ops, err := c.RunOps(w, benchClients, b.N)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if err != nil {
		b.Fatalf("driver: %v", err)
	}
	n := float64(b.N)
	b.ReportMetric(ops, "ops/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/op-heap")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/op-heap")
	b.ReportMetric(float64(after.NumGC-before.NumGC), "GCs")
	b.ReportMetric(float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "gc-pause-ms")
	reportEnv(b)
	b.ReportMetric(0, "ns/op")
}
