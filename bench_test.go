// Benchmarks regenerating every table and figure of the paper's evaluation
// (§B). Each benchmark reports ops/s (or bytes/s for the network figure);
// cmd/recipe-bench runs the same experiments and prints them as paper-style
// tables with the speedup columns.
//
// Absolute numbers will not match the authors' SGX + 40GbE testbed — the
// substrate here is a calibrated simulator — but the shapes do: who wins, by
// roughly what factor, and where the crossovers fall. See EXPERIMENTS.md.
package recipe

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/harness"
	"recipe/internal/netstack"
	"recipe/internal/tee"
	"recipe/internal/telemetry"
	"recipe/internal/workload"
)

// benchKeys keeps preload fast; the paper uses ~10k keys, which only
// shifts absolute cache behaviour, not the protocol comparison.
const benchKeys = 1024

// benchClients is the closed-loop client count driving each cluster; it is
// sized so throughput is capacity-bound (replica busy time), not bound by a
// handful of clients' request latency.
const benchClients = 32

// benchSystems are the five systems of Figs 3-5: the four R-protocols plus
// the PBFT baseline.
var benchSystems = []struct {
	name  string
	proto harness.ProtocolKind
	// shielded is ignored for PBFT/Damysus (they carry their own authn).
	shielded bool
}{
	{"PBFT", harness.PBFT, false},
	{"R-Raft", harness.Raft, true},
	{"R-CR", harness.Chain, true},
	{"R-AllConcur", harness.AllConcur, true},
	{"R-ABD", harness.ABD, true},
}

// reportEnv attaches the host parallelism to every benchmark line. The
// committed BENCH_*.json files are read on machines other than the one that
// produced them, and several figures (read scaling, durable recovery) are
// meaningless without knowing how many cores were behind the numbers.
func reportEnv(b *testing.B) {
	b.Helper()
	host := telemetry.HostInfo()
	b.ReportMetric(float64(host.NumCPU), "numcpu")
	b.ReportMetric(float64(host.GOMAXPROCS), "gomaxprocs")
}

// benchThroughput drives b.N workload operations against a fresh cluster
// and reports ops/s.
func benchThroughput(b *testing.B, opts harness.Options, w workload.Config) {
	b.Helper()
	benchThroughputClients(b, opts, w, benchClients, false)
}

// benchThroughputClients is benchThroughput with an explicit closed-loop
// client count (the read-scaling experiment grows the client population past
// benchClients) and optional read-path counter reporting.
func benchThroughputClients(b *testing.B, opts harness.Options, w workload.Config, clients int, reportReads bool) {
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
	lat0 := c.ClientLatency()
	b.ResetTimer()
	ops, err := c.RunOps(w, clients, b.N)
	b.StopTimer()
	if err != nil {
		b.Fatalf("driver: %v", err)
	}
	b.ReportMetric(ops, "ops/s")
	reportEnv(b)
	// Client-observed latency percentiles of the timed section, from the
	// telemetry layer's round-trip histogram (µs; absent with NoTelemetry).
	lat1 := c.ClientLatency()
	if d := lat1.Sub(&lat0); d.Count > 0 {
		b.ReportMetric(d.Quantile(0.50)/1e3, "p50-us")
		b.ReportMetric(d.Quantile(0.99)/1e3, "p99-us")
		b.ReportMetric(d.Quantile(0.999)/1e3, "p999-us")
	}
	if reportReads {
		local, replica, fallbacks := c.ReadStats()
		b.ReportMetric(float64(local), "localreads")
		b.ReportMetric(float64(replica), "replicareads")
		b.ReportMetric(float64(fallbacks), "leasefallbacks")
	}
	b.ReportMetric(0, "ns/op") // throughput is the figure of merit here
}

// evalOptions builds the evaluation configuration for one system.
func evalOptions(proto harness.ProtocolKind, shielded, confidential bool) harness.Options {
	return harness.Options{
		Protocol:     proto,
		Shielded:     shielded,
		Confidential: confidential,
		Seed:         1,
	}
}

// BenchmarkFig3ValueSizes reproduces Fig 3: throughput for value sizes
// 256 B / 1 KiB / 4 KiB under a 90%-read YCSB workload. Expected shape:
// throughput drops with value size (EPC pressure), R-* stay above PBFT.
func BenchmarkFig3ValueSizes(b *testing.B) {
	for _, sys := range benchSystems {
		for _, size := range []int{256, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", sys.name, size), func(b *testing.B) {
				benchThroughput(b,
					evalOptions(sys.proto, sys.shielded, false),
					workload.Config{ReadRatio: 0.90, ValueSize: size})
			})
		}
	}
}

// BenchmarkFig4ReadRatios reproduces Fig 4: throughput across R/W mixes
// (50/75/90/95/99% reads, 256 B values). Expected shape: all R-* beat PBFT
// by 5x-24x; R-CR leads on read-heavy mixes thanks to local tail reads.
func BenchmarkFig4ReadRatios(b *testing.B) {
	for _, sys := range benchSystems {
		for _, ratio := range []int{50, 75, 90, 95, 99} {
			b.Run(fmt.Sprintf("%s/%dR", sys.name, ratio), func(b *testing.B) {
				benchThroughput(b,
					evalOptions(sys.proto, sys.shielded, false),
					workload.Config{ReadRatio: float64(ratio) / 100, ValueSize: 256})
			})
		}
	}
}

// BenchmarkFig5Confidentiality reproduces Fig 5: the R-protocols with
// confidentiality (values and payloads encrypted) at 50% and 95% reads vs
// plain PBFT. Expected shape: ~2x cost over non-confidential R-*, still well
// above PBFT.
func BenchmarkFig5Confidentiality(b *testing.B) {
	for _, sys := range benchSystems {
		conf := sys.proto != harness.PBFT // PBFT offers no confidentiality
		for _, ratio := range []int{50, 95} {
			b.Run(fmt.Sprintf("%s/%dR", sys.name, ratio), func(b *testing.B) {
				benchThroughput(b,
					evalOptions(sys.proto, sys.shielded, conf),
					workload.Config{ReadRatio: float64(ratio) / 100, ValueSize: 256})
			})
		}
	}
}

// BenchmarkFig6aOverheads reproduces Fig 6a: each CFT protocol natively
// (no TEE cost, no authn layer, raw stack) versus Recipe-transformed.
// Expected shape: the transformation costs 2x-15x, highest for the
// total-order protocols (Raft, AllConcur).
func BenchmarkFig6aOverheads(b *testing.B) {
	native := tee.NativeCostModel()
	for _, proto := range []harness.ProtocolKind{
		harness.Raft, harness.Chain, harness.AllConcur, harness.ABD,
	} {
		for _, ratio := range []int{50, 75, 90, 95, 99} {
			b.Run(fmt.Sprintf("native-%s/%dR", proto, ratio), func(b *testing.B) {
				opts := evalOptions(proto, false, false)
				opts.TEE = &native
				opts.Stack = netstack.StackDirectIO
				benchThroughput(b, opts, workload.Config{ReadRatio: float64(ratio) / 100, ValueSize: 256})
			})
			b.Run(fmt.Sprintf("recipe-%s/%dR", proto, ratio), func(b *testing.B) {
				benchThroughput(b,
					evalOptions(proto, true, false),
					workload.Config{ReadRatio: float64(ratio) / 100, ValueSize: 256})
			})
		}
	}
}

// BenchmarkFig6bNetStacks reproduces Fig 6b: raw throughput of the five
// network stacks across payload sizes. The benchmark streams packets
// between two fabric endpoints; B/s output gives the Gb/s curve. Expected
// shape: native direct I/O >> native kernel-net >> recipe-lib > kernel-net
// in TEEs; TEE variants 4x-8x below native.
func BenchmarkFig6bNetStacks(b *testing.B) {
	stacks := []netstack.StackKind{
		netstack.StackKernelNet,
		netstack.StackDirectIO,
		netstack.StackKernelNetTEE,
		netstack.StackDirectIOTEE,
		netstack.StackRecipeLib,
	}
	for _, stack := range stacks {
		for _, payload := range []int{64, 256, 1024, 1460, 2048, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", stack, payload), func(b *testing.B) {
				fabric := netstack.NewFabric(netstack.WithStack(netstack.Stacks[stack]))
				src, err := fabric.Register("src")
				if err != nil {
					b.Fatalf("register: %v", err)
				}
				dst, err := fabric.Register("dst")
				if err != nil {
					b.Fatalf("register: %v", err)
				}
				buf := make([]byte, payload)
				b.SetBytes(int64(payload))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := src.Send("dst", buf); err != nil {
						b.Fatalf("send: %v", err)
					}
					<-dst.Inbox()
				}
			})
		}
	}
}

// BenchmarkTable4Attestation reproduces Table 4: end-to-end remote
// attestation latency through the in-datacenter CAS versus the vendor's IAS.
// Latencies are scaled down 10x uniformly so the benchmark stays fast; the
// CAS:IAS ratio (the paper's 18.2x) is preserved exactly.
func BenchmarkTable4Attestation(b *testing.B) {
	const scale = 0.1
	for _, svc := range []struct {
		name  string
		build func() (*attest.Service, error)
	}{
		{"CAS", func() (*attest.Service, error) {
			return attest.NewService(attest.WithLatencyScale(scale))
		}},
		{"IAS", func() (*attest.Service, error) {
			return attest.NewIAS(attest.WithLatencyScale(scale))
		}},
	} {
		b.Run(svc.name, func(b *testing.B) {
			service, err := svc.build()
			if err != nil {
				b.Fatalf("service: %v", err)
			}
			plat, err := tee.NewPlatform("bench", tee.WithCostModel(tee.NativeCostModel()))
			if err != nil {
				b.Fatalf("platform: %v", err)
			}
			service.TrustPlatform(plat)
			enclave := plat.NewEnclave([]byte("code"))
			service.AllowMeasurement(enclave.Measurement())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent, err := attest.NewAgent(enclave)
				if err != nil {
					b.Fatalf("agent: %v", err)
				}
				if _, err := service.RemoteAttestation(agent, ""); err != nil {
					b.Fatalf("attestation: %v", err)
				}
			}
		})
	}
}

// BenchmarkDamysusComparison reproduces the §B.3 Damysus comparison:
// the Damysus-like hybrid baseline at payloads 0/64/256 B against the
// R-protocols at 256 B (Fig 4's 50R column provides the Recipe side).
// Expected shape: Recipe 1.1x-5.9x above Damysus.
func BenchmarkDamysusComparison(b *testing.B) {
	for _, payload := range []int{0, 64, 256} {
		b.Run(fmt.Sprintf("Damysus/%dB", payload), func(b *testing.B) {
			size := payload
			if size == 0 {
				size = 1 // zero-byte values are modelled as 1-byte
			}
			benchThroughput(b,
				evalOptions(harness.Damysus, false, false),
				workload.Config{ReadRatio: 0.50, ValueSize: size})
		})
	}
	for _, sys := range benchSystems[1:] { // the four R-protocols
		b.Run(fmt.Sprintf("%s/256B", sys.name), func(b *testing.B) {
			benchThroughput(b,
				evalOptions(sys.proto, sys.shielded, false),
				workload.Config{ReadRatio: 0.50, ValueSize: 256})
		})
	}
}

// BenchmarkShieldedBatching measures the PR-1 tentpole: end-to-end shielded
// throughput with the batched message path (coalesced envelopes + batched
// AppendEntries + per-peer packet queues) against the per-message baseline
// (MaxBatch=1: one envelope, one MAC, one packet per message). Write-heavy
// so the replication path, not local reads, dominates.
func BenchmarkShieldedBatching(b *testing.B) {
	for _, proto := range []harness.ProtocolKind{harness.Raft, harness.Chain} {
		for _, mode := range []struct {
			name     string
			maxBatch int
		}{
			{"per-message", 1},
			{"batched", 0}, // node default (64)
		} {
			b.Run(fmt.Sprintf("R-%s/%s", proto, mode.name), func(b *testing.B) {
				opts := evalOptions(proto, true, false)
				opts.MaxBatch = mode.maxBatch
				benchThroughput(b, opts, workload.Config{ReadRatio: 0.50, ValueSize: 256})
			})
		}
	}
}

// BenchmarkShardedThroughput measures the PR-2 tentpole: aggregate R-Raft
// throughput as the cluster is partitioned across replication groups. Every
// shard is an independent R-Raft group owning a hash partition of the
// keyspace; the fabric, CAS, and TEE platforms are shared. The workload is
// the paper's 50%-read mix so the replicated write path — the part sharding
// parallelizes — dominates.
//
// Two scaling dimensions are reported:
//
//   - fleet12: a fixed budget of 12 replicas regrouped as 1x12, 2x6, 4x3.
//     This is the textbook reason services shard — per-operation replication
//     cost is proportional to group size, so partitioning a fixed fleet into
//     more, smaller groups multiplies aggregate throughput on any hardware
//     (a 12-replica group pays 11 follower fan-outs per write; four
//     3-replica groups pay 2 each).
//   - group3: fixed 3-replica groups scaled out to 1, 2, 4 shards. Per-op
//     work is constant, so aggregate scaling here tracks the host's spare
//     cores (flat on a single-core runner, near-linear on a multi-core one).
func BenchmarkShardedThroughput(b *testing.B) {
	const fleet = 12
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("R-raft/fleet12/shards=%d", shards), func(b *testing.B) {
			opts := evalOptions(harness.Raft, true, false)
			opts.Shards = shards
			opts.Nodes = fleet / shards
			benchThroughput(b, opts, workload.Config{ReadRatio: 0.50, ValueSize: 256})
		})
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("R-raft/group3/shards=%d", shards), func(b *testing.B) {
			opts := evalOptions(harness.Raft, true, false)
			opts.Shards = shards
			benchThroughput(b, opts, workload.Config{ReadRatio: 0.50, ValueSize: 256})
		})
	}
}

// staleReplayRecorder captures client→node packets during the pre-split
// phase so the benchmark can replay them post-split — the captured-traffic
// attack the epoch MAC domain must stop.
type staleReplayRecorder struct {
	mu       sync.Mutex
	to       string
	captured [][]byte
	armed    bool
}

func (r *staleReplayRecorder) Apply(p netstack.Packet) []netstack.Packet {
	r.mu.Lock()
	if r.armed && p.To == r.to && len(r.captured) < 64 {
		r.captured = append(r.captured, append([]byte(nil), p.Data...))
	}
	r.mu.Unlock()
	return []netstack.Packet{p}
}

// BenchmarkElasticResharding measures the PR-3 tentpole: a live 2→4 split
// of an R-Raft cluster under sustained YCSB load. The timed section is the
// post-split steady state (what clients see after the cluster doubled); the
// pre-split throughput, the throughput sustained while the migration ran,
// and the wall-clock of the split itself are reported as extra metrics. A
// fresh 4-shard cluster at the same replica budget is the recovery
// reference. After the split the benchmark verifies zero lost or duplicated
// keys (every key in exactly its owning group) and that a captured
// pre-split envelope replayed post-split is rejected and counted in
// SecurityStats.RejectedStaleEpoch.
func BenchmarkElasticResharding(b *testing.B) {
	w := workload.Config{ReadRatio: 0.50, ValueSize: 256, Keys: benchKeys, Seed: 1}

	b.Run("R-raft/split-2to4", func(b *testing.B) {
		opts := evalOptions(harness.Raft, true, false)
		opts.Shards = 2
		rec := &staleReplayRecorder{to: "s1n1"}
		opts.Injector = rec
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

		// Pre-split steady state (also feeds the replay recorder).
		rec.mu.Lock()
		rec.armed = true
		rec.mu.Unlock()
		preOps, err := c.RunOps(w, benchClients, 4000)
		if err != nil {
			b.Fatalf("pre-split driver: %v", err)
		}
		rec.mu.Lock()
		rec.armed = false
		captured := rec.captured
		rec.mu.Unlock()

		// Split 2→4 under sustained load.
		var during atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < benchClients/4; i++ {
			cli, err := c.Client()
			if err != nil {
				b.Fatalf("client: %v", err)
			}
			gen := workload.New(workload.Config{ReadRatio: w.ReadRatio, ValueSize: w.ValueSize,
				Keys: w.Keys, Seed: int64(1000 + i)})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { _ = cli.Close() }()
				for {
					select {
					case <-stop:
						return
					default:
					}
					op := gen.Next()
					if op.Read {
						if _, err := cli.Get(op.Key); err == nil {
							during.Add(1)
						}
					} else if _, err := cli.Put(op.Key, op.Value); err == nil {
						during.Add(1)
					}
				}
			}()
		}
		resizeStart := time.Now()
		if err := c.Resize(4); err != nil {
			b.Fatalf("Resize(4): %v", err)
		}
		resizeDur := time.Since(resizeStart)
		close(stop)
		wg.Wait()

		// Zero lost or duplicated keys: every preloaded key lives in exactly
		// its owning group.
		gen := workload.New(w)
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < gen.Keys(); i++ {
			key := gen.Key(i)
			owner := c.ShardOf(key)
			for {
				ok := true
				for g := 0; g < c.Shards(); g++ {
					found := false
					for _, id := range c.Groups[g].Order {
						n, live := c.Groups[g].Nodes[id]
						if !live {
							continue
						}
						if _, err := n.Store().Get(key); err == nil {
							found = true
							break
						}
					}
					if g == owner && !found {
						ok = false // owner still converging
					}
					if g != owner && found {
						b.Fatalf("key %q duplicated into group %d (owner %d)", key, g, owner)
					}
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("key %q lost: absent from owning group %d", key, owner)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}

		// Captured pre-split traffic replayed post-split must die at the
		// epoch check.
		if len(captured) == 0 {
			b.Fatalf("recorder captured no pre-split envelopes")
		}
		attacker, err := c.Fabric.Register("bench-attacker")
		if err != nil {
			b.Fatalf("attacker endpoint: %v", err)
		}
		target := c.Nodes["s1n1"]
		epochDropsBefore := target.Stats().DropEpoch.Load()
		for _, data := range captured {
			_ = attacker.Send("s1n1", data)
		}
		replayDeadline := time.Now().Add(5 * time.Second)
		for target.Stats().DropEpoch.Load() == epochDropsBefore {
			if time.Now().After(replayDeadline) {
				b.Fatalf("stale-epoch replays were not rejected")
			}
			time.Sleep(time.Millisecond)
		}

		// Post-split steady state is the timed section.
		b.ResetTimer()
		postOps, err := c.RunOps(w, benchClients, b.N)
		b.StopTimer()
		if err != nil {
			b.Fatalf("post-split driver: %v", err)
		}
		b.ReportMetric(postOps, "ops/s")
		b.ReportMetric(preOps, "pre-split-ops/s")
		b.ReportMetric(float64(during.Load())/resizeDur.Seconds(), "during-split-ops/s")
		b.ReportMetric(float64(resizeDur.Milliseconds()), "resize-ms")
		b.ReportMetric(float64(target.Stats().DropEpoch.Load()-epochDropsBefore), "replays-rejected")
		reportEnv(b)
		b.ReportMetric(0, "ns/op")
	})

	// Recovery reference: a 4-shard cluster born that way.
	b.Run("R-raft/steady-4shard", func(b *testing.B) {
		opts := evalOptions(harness.Raft, true, false)
		opts.Shards = 4
		benchThroughput(b, opts, w)
	})

	// Skewed variant: most traffic on a hot tenth of the keyspace, so the
	// migrating slots carry the load.
	b.Run("R-raft/split-2to4-hotspot-during", func(b *testing.B) {
		opts := evalOptions(harness.Raft, true, false)
		opts.Shards = 2
		c, err := harness.New(opts)
		if err != nil {
			b.Fatalf("cluster: %v", err)
		}
		defer c.Stop()
		if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
			b.Fatalf("coordinator: %v", err)
		}
		hw := w
		hw.Skew = workload.Hotspot
		if err := c.Preload(hw); err != nil {
			b.Fatalf("preload: %v", err)
		}
		if err := c.Resize(4); err != nil {
			b.Fatalf("Resize(4): %v", err)
		}
		b.ResetTimer()
		ops, err := c.RunOps(hw, benchClients, b.N)
		b.StopTimer()
		if err != nil {
			b.Fatalf("driver: %v", err)
		}
		b.ReportMetric(ops, "ops/s")
		b.ReportMetric(0, "ns/op")
	})
}

// BenchmarkShielderBatchAmortization isolates the authn layer: shielding and
// verifying 64 messages one envelope at a time versus one ShieldBatch
// envelope. The batched path pays one MAC, one enclave transition, and one
// header per 64 messages.
func BenchmarkShielderBatchAmortization(b *testing.B) {
	const batchN = 64
	payload := make([]byte, 256)
	setup := func(b *testing.B) (*authn.Shielder, *authn.Shielder) {
		b.Helper()
		plat, err := tee.NewPlatform("bench", tee.WithCostModel(tee.DefaultCostModel()))
		if err != nil {
			b.Fatalf("platform: %v", err)
		}
		s := authn.NewShielder(plat.NewEnclave([]byte("s")))
		v := authn.NewShielder(plat.NewEnclave([]byte("v")))
		key := make([]byte, 32)
		for _, sh := range []*authn.Shielder{s, v} {
			if err := sh.OpenChannel("bench", key); err != nil {
				b.Fatalf("OpenChannel: %v", err)
			}
		}
		return s, v
	}
	b.Run("per-message", func(b *testing.B) {
		s, v := setup(b)
		b.SetBytes(batchN * int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batchN; j++ {
				env, err := s.Shield("bench", 7, payload)
				if err != nil {
					b.Fatalf("Shield: %v", err)
				}
				if _, _, err := v.Verify(env); err != nil {
					b.Fatalf("Verify: %v", err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		s, v := setup(b)
		items := make([]authn.BatchItem, batchN)
		for i := range items {
			items[i] = authn.BatchItem{Kind: 7, Payload: payload}
		}
		b.SetBytes(batchN * int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env, err := s.ShieldBatch("bench", items)
			if err != nil {
				b.Fatalf("ShieldBatch: %v", err)
			}
			_, got, err := v.Verify(env)
			if err != nil || len(got) != batchN {
				b.Fatalf("Verify: %d msgs, %v", len(got), err)
			}
		}
	})
}

// BenchmarkAblationAuthnLayer isolates the cost of the authentication and
// non-equivocation layer alone (DESIGN.md ablation): same protocol, same TEE
// cost model, shield on/off.
func BenchmarkAblationAuthnLayer(b *testing.B) {
	sgx := tee.DefaultCostModel()
	for _, shielded := range []bool{false, true} {
		name := "shield-off"
		if shielded {
			name = "shield-on"
		}
		b.Run(name, func(b *testing.B) {
			opts := evalOptions(harness.Raft, shielded, false)
			opts.TEE = &sgx
			opts.Stack = netstack.StackDirectIOTEE
			benchThroughput(b, opts, workload.Config{ReadRatio: 0.90, ValueSize: 256})
		})
	}
}

// BenchmarkAblationReadScaling compares R-CR (tail-only reads) with R-CRAQ
// (reads apportioned to every replica) on a read-dominated workload — the
// library-extension experiment motivating CRAQ's inclusion in the Table 1
// taxonomy family.
func BenchmarkAblationReadScaling(b *testing.B) {
	for _, proto := range []harness.ProtocolKind{harness.Chain, harness.CRAQ} {
		b.Run(fmt.Sprintf("R-%s/99R", proto), func(b *testing.B) {
			benchThroughput(b,
				evalOptions(proto, true, false),
				workload.Config{ReadRatio: 0.99, ValueSize: 256})
		})
	}
}

// BenchmarkReadScaling measures the scale-out read path: aggregate
// throughput on the 95%-read hotspot workload (R-Raft) as the closed-loop
// client population grows from benchClients to 10x that, across the three
// read policies plus the session-cached variant of any-clean. Expected
// shape: leader-only flattens early (every read is a consensus round at one
// node), lease-local lifts the leader's reads off the log, and any-clean
// spreads them over every replica — at 10x clients it should clear 3x
// leader-only's aggregate. The read-path counters are reported alongside so
// the attribution (local vs replica vs lease fallback) is in the committed
// numbers. Committed results: BENCH_PR7.json.
func BenchmarkReadScaling(b *testing.B) {
	policies := []struct {
		name   string
		policy ReadPolicy
		cache  int
	}{
		{"leader-only", ReadLeaderOnly, 0},
		{"lease-local", ReadLeaseLocal, 0},
		{"any-clean", ReadAnyClean, 0},
		{"any-clean-cached", ReadAnyClean, 256},
	}
	for _, clients := range []int{benchClients, 10 * benchClients} {
		for _, p := range policies {
			b.Run(fmt.Sprintf("%s/clients=%d", p.name, clients), func(b *testing.B) {
				opts := evalOptions(harness.Raft, true, false)
				opts.ReadPolicy = p.policy
				opts.SessionCache = p.cache
				benchThroughputClients(b, opts, workload.ReadHotspot(256), clients, true)
			})
		}
	}
}

// BenchmarkAblationEPCLimit varies the modelled EPC size at a fixed 4 KiB
// value workload, showing that Fig 3's large-value slowdown is EPC pressure
// (DESIGN.md ablation).
func BenchmarkAblationEPCLimit(b *testing.B) {
	for _, epcMB := range []int64{2, 8, 64} {
		b.Run(fmt.Sprintf("EPC-%dMiB", epcMB), func(b *testing.B) {
			model := tee.DefaultCostModel()
			model.EPCLimitBytes = epcMB << 20
			opts := evalOptions(harness.Chain, true, false)
			opts.TEE = &model
			benchThroughput(b, opts, workload.Config{ReadRatio: 0.90, ValueSize: 4096})
		})
	}
}

// BenchmarkDurableRecovery measures the durability tentpole: how long a
// crashed R-Raft follower takes to rejoin with full state, across the three
// recovery paths — memory-only (the pre-durability baseline: a full state
// transfer streams every key from a live peer), sealed WAL replay (local
// recovery from the encrypted log, then a version-suffix-only transfer), and
// sealed snapshot restart (local recovery from a checkpoint). The figure of
// merit is recovery wall time (ms/recovery); sealed recovery must beat the
// full transfer at large store sizes because its cost tracks the write rate
// since the last checkpoint, not the store size.
//
// A fourth scenario measures whole-group power loss: every replica of the
// group crashes simultaneously and RecoverGroup brings the group back from
// sealed state alone — the benchmark fails if any acknowledged write is
// missing afterwards. Committed results: BENCH_PR5.json (run with
// -benchtime 1x; each iteration builds and preloads a fresh cluster).
func BenchmarkDurableRecovery(b *testing.B) {
	recoverFollower := func(b *testing.B, keys int, durable, checkpoint bool, wantLocal bool, snapshotEvery int) {
		b.Helper()
		var totalMS float64
		for i := 0; i < b.N; i++ {
			opts := harness.Options{Protocol: harness.Raft, Shielded: true, Seed: 1,
				Durability: durable, SnapshotEvery: snapshotEvery}
			ms, local, err := harness.MeasureFollowerRecovery(opts, keys, checkpoint, 5*time.Minute)
			if err != nil {
				b.Fatalf("recovery: %v", err)
			}
			if local != wantLocal {
				b.Fatalf("Recovered() = %v, want %v", local, wantLocal)
			}
			totalMS += ms
		}
		b.ReportMetric(totalMS/float64(b.N), "ms/recovery")
		reportEnv(b)
		b.ReportMetric(0, "ns/op")
	}

	for _, keys := range []int{5000, 100000} {
		b.Run(fmt.Sprintf("keys=%d/state-transfer", keys), func(b *testing.B) {
			recoverFollower(b, keys, false, false, false, 0)
		})
		b.Run(fmt.Sprintf("keys=%d/sealed-wal", keys), func(b *testing.B) {
			// Automatic checkpoints off (huge SnapshotEvery): this variant
			// measures pure WAL replay of the whole history; the default
			// cadence would have checkpointed during preload and turned it
			// into the sealed-snapshot case.
			recoverFollower(b, keys, true, false, true, 1<<30)
		})
		b.Run(fmt.Sprintf("keys=%d/sealed-snapshot", keys), func(b *testing.B) {
			recoverFollower(b, keys, true, true, true, 0)
		})
		b.Run(fmt.Sprintf("keys=%d/power-loss-group", keys), func(b *testing.B) {
			var totalMS float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := harness.New(harness.Options{Protocol: harness.Raft, Shielded: true, Seed: 1, Durability: true})
				if err != nil {
					b.Fatalf("cluster: %v", err)
				}
				if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
					c.Stop()
					b.Fatalf("coordinator: %v", err)
				}
				w := workload.Config{Keys: keys, ValueSize: 256, Seed: 1}
				if err := c.Preload(w); err != nil {
					c.Stop()
					b.Fatalf("preload: %v", err)
				}
				// Acknowledged writes through the protocol, on top of the preload.
				cli, err := c.Client()
				if err != nil {
					c.Stop()
					b.Fatalf("client: %v", err)
				}
				for j := 0; j < 64; j++ {
					if _, err := cli.Put(fmt.Sprintf("acked-%03d", j), []byte("survives")); err != nil {
						c.Stop()
						b.Fatalf("put: %v", err)
					}
				}
				_ = cli.Close()
				for _, id := range append([]string(nil), c.Order...) {
					c.Crash(id)
				}
				b.StartTimer()
				start := time.Now()
				if err := c.RecoverGroup(0, 5*time.Minute); err != nil {
					c.Stop()
					b.Fatalf("recover group: %v", err)
				}
				if _, err := c.WaitForCoordinator(30 * time.Second); err != nil {
					c.Stop()
					b.Fatalf("no coordinator after power loss: %v", err)
				}
				totalMS += float64(time.Since(start).Microseconds()) / 1000
				b.StopTimer()
				cli2, err := c.Client()
				if err != nil {
					c.Stop()
					b.Fatalf("client: %v", err)
				}
				for j := 0; j < 64; j++ {
					res, err := cli2.Get(fmt.Sprintf("acked-%03d", j))
					if err != nil || !res.OK {
						c.Stop()
						b.Fatalf("acknowledged write acked-%03d lost after whole-group power loss (%+v, %v)", j, res, err)
					}
				}
				_ = cli2.Close()
				c.Stop()
				b.StartTimer()
			}
			b.ReportMetric(totalMS/float64(b.N), "ms/recovery")
			reportEnv(b)
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkTelemetryOverhead is the A/B behind telemetry being on by
// default: the same 50%-read YCSB R-Raft workload with the full phase
// instrumentation recording versus Options.NoTelemetry. The acceptance bar
// is that the enabled run stays within a few percent of the disabled one —
// the histograms are fixed-footprint atomics and every span site guards on
// a nil histogram, so the cost is a handful of time.Now calls per request.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		off  bool
	}{
		{"enabled", false},
		{"disabled", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := evalOptions(harness.Raft, true, false)
			opts.NoTelemetry = mode.off
			benchThroughput(b, opts, workload.Config{ReadRatio: 0.50, ValueSize: 256})
		})
	}
}

// BenchmarkFailoverLatency measures the self-managing membership plane end to
// end: one iteration crash-stops a follower of a 3-replica self-managing
// R-Raft group and times (a) detection + signed auto-eviction — SWIM probes
// miss, suspicion gossips, the survivors condemn by majority, and the CAS
// publishes the shrunken map — and (b) auto-repair: sealed local recovery,
// suffix state transfer, and the signed rejoin republish. No operator call
// happens anywhere in the loop; the two phase means are the figures of merit.
func BenchmarkFailoverLatency(b *testing.B) {
	opts := harness.Options{
		Protocol:   harness.Raft,
		Shielded:   true,
		SelfManage: true,
		Durability: true,
		TickEvery:  time.Millisecond,
		Seed:       1,
	}
	c, err := harness.New(opts)
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	defer c.Stop()
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		b.Fatalf("coordinator: %v", err)
	}
	cli, err := c.Client()
	if err != nil {
		b.Fatalf("client: %v", err)
	}
	defer func() { _ = cli.Close() }()
	for j := 0; j < 64; j++ {
		if _, err := cli.Put(fmt.Sprintf("fo-%03d", j), []byte("durable")); err != nil {
			b.Fatalf("put: %v", err)
		}
	}
	wait := func(what string, cond func() bool) {
		b.Helper()
		deadline := time.Now().Add(time.Minute)
		for !cond() {
			if time.Now().After(deadline) {
				b.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var detectTotal, repairTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lead, err := c.Groups[0].WaitForCoordinator(10 * time.Second)
		if err != nil {
			b.Fatalf("coordinator: %v", err)
		}
		victim := ""
		for _, id := range c.Groups[0].Order {
			if id != lead {
				victim = id
				break
			}
		}
		start := time.Now()
		c.Crash(victim)
		wait("auto-eviction", func() bool { return c.Evicted(victim) })
		detect := time.Since(start)
		wait("auto-repair", func() bool { return !c.Evicted(victim) && c.Live(victim) })
		detectTotal += detect
		repairTotal += time.Since(start) - detect
	}
	b.StopTimer()
	b.ReportMetric(detectTotal.Seconds()*1e3/float64(b.N), "detect-evict-ms")
	b.ReportMetric(repairTotal.Seconds()*1e3/float64(b.N), "repair-ms")
	reportEnv(b)
	b.ReportMetric(0, "ns/op")
}
