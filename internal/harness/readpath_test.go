package harness

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"recipe/internal/core"
	"recipe/internal/netstack"
	"recipe/internal/workload"
)

// TestAnyCleanReadsCorrectAcrossProtocols: under ReadAnyClean every protocol
// still returns the session's own writes (the session floor turns replica
// fan-out into read-your-writes), and the read-path counters show replicas
// actually serving.
func TestAnyCleanReadsCorrectAcrossProtocols(t *testing.T) {
	for _, proto := range []ProtocolKind{Raft, CRAQ, ABD, Chain} {
		t.Run(string(proto), func(t *testing.T) {
			opts := fastOpts(proto, true)
			opts.ReadPolicy = core.ReadAnyClean
			c := startCluster(t, opts)
			cli, err := c.Client()
			if err != nil {
				t.Fatalf("Client: %v", err)
			}
			defer func() { _ = cli.Close() }()

			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("k%d", i)
				if res, err := cli.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil || !res.OK {
					t.Fatalf("Put %s = %+v, %v", k, res, err)
				}
			}
			for round := 0; round < 5; round++ {
				for i := 0; i < 20; i++ {
					k := fmt.Sprintf("k%d", i)
					want := []byte(fmt.Sprintf("v%d", i))
					res, err := cli.Get(k)
					if err != nil || !res.OK || !bytes.Equal(res.Value, want) {
						t.Fatalf("Get %s = %+v, %v (want %q)", k, res, err, want)
					}
				}
			}
			local, replica, _ := c.ReadStats()
			if local+replica == 0 {
				t.Fatalf("no reads served on the scale-out paths (local=%d replica=%d)", local, replica)
			}
		})
	}
}

// TestDeposedLeaderStaleReadBlocked: a leader cut off from its followers
// loses its holder-side lease strictly before the majority can elect a
// successor. A client stranded with the deposed leader must never read the
// stale pre-partition value once the majority has committed a newer one —
// the read detours to the (unreachable) quorum path and times out instead.
func TestDeposedLeaderStaleReadBlocked(t *testing.T) {
	c := startCluster(t, fastOpts(Raft, true))
	majority, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = majority.Close() }()
	if res, err := majority.Put("k", []byte("v1")); err != nil || !res.OK {
		t.Fatalf("Put v1 = %+v, %v", res, err)
	}

	old, err := c.Groups[0].WaitForCoordinator(5 * time.Second)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	// The stranded client shares the minority side with the old leader.
	stranded, err := c.Client()
	if err != nil {
		t.Fatalf("stranded client: %v", err)
	}
	defer func() { _ = stranded.Close() }()
	part := netstack.NewPartition(old, "addr:client-2")
	c.Fabric.SetInjector(part)
	part.Activate()

	// The majority elects a successor once the old leader's grantor-side
	// leases expire (holder-side expiry is strictly earlier by the drift
	// margin, so no overlap window exists).
	waitFor(t, 10*time.Second, func() bool {
		for _, id := range c.Groups[0].Order {
			n := c.Nodes[id]
			if n == nil || id == old {
				continue
			}
			if st := n.Status(); st.IsCoordinator {
				return true
			}
		}
		return false
	}, "no successor elected on the majority side")

	// Commit v2 on the majority; the client may need a retry while its
	// coordinator pointer still names the unreachable old leader.
	waitFor(t, 10*time.Second, func() bool {
		res, err := majority.Put("k", []byte("v2"))
		return err == nil && res.OK
	}, "majority could not commit past the deposed leader")

	// Now any OK answer the stranded client gets MUST be v2 — which the old
	// leader cannot produce. The expected outcome is a timeout, with the old
	// leader's lease fallback counter proving the read reached it and was
	// refused a local answer rather than served stale.
	before := c.Nodes[old].Stats().LeaseFallbacks.Load()
	served := false
	for i := 0; i < 3 && !served; i++ {
		res, err := stranded.Get("k")
		if err == nil && res.OK {
			if string(res.Value) != "v2" {
				t.Fatalf("stranded client read stale value %q after majority committed v2", res.Value)
			}
			served = true // partition raced the map; still linearizable
		}
		if c.Nodes[old].Stats().LeaseFallbacks.Load() > before {
			return // the deposed leader demonstrably detoured the read
		}
	}
	if !served {
		t.Fatalf("stranded reads never reached the deposed leader's fallback path (fallbacks %d)",
			c.Nodes[old].Stats().LeaseFallbacks.Load()-before)
	}
}

// TestSessionMonotonicAcrossResize: one session keeps writing and reading
// its own keys while the cluster resizes 2->4 shards. The session must never
// observe a value older than one it has already observed (zero backward
// reads), across the epoch bump, the cache flush, and keys migrating into
// groups with reset version spaces.
func TestSessionMonotonicAcrossResize(t *testing.T) {
	opts := fastShardedOpts(Raft, true, 2)
	opts.ReadPolicy = core.ReadAnyClean
	opts.SessionCache = 32
	c := startCluster(t, opts)
	cli, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = cli.Close() }()

	const keys = 8
	lastSeen := make([]int, keys) // highest value counter observed per key

	parse := func(v []byte) int {
		s := string(v)
		n, err := strconv.Atoi(s[strings.LastIndexByte(s, '-')+1:])
		if err != nil {
			t.Fatalf("unparseable value %q", v)
		}
		return n
	}
	step := func(i int) {
		k := fmt.Sprintf("mono-%d", i%keys)
		if res, err := cli.Put(k, []byte(fmt.Sprintf("c-%d", i))); err == nil && res.OK {
			if i > lastSeen[i%keys] {
				lastSeen[i%keys] = i
			}
		}
		res, err := cli.Get(k)
		if err != nil || !res.OK {
			return // timeouts mid-reconfig are liveness, not safety
		}
		got := parse(res.Value)
		if got < lastSeen[i%keys] {
			t.Errorf("backward read on %s: observed c-%d after c-%d", k, got, lastSeen[i%keys])
		}
		lastSeen[i%keys] = got
	}

	for i := 1; i <= 40; i++ {
		step(i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	resizeErr := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		resizeErr <- c.Resize(4)
		close(done)
	}()
	// Keep the session running for the whole reconfiguration, so reads cross
	// the transition/handover/final epochs mid-stream.
	i := 40
loop:
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case <-done:
			break loop
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("resize did not finish while the session was running")
		}
		i++
		step(i)
	}
	wg.Wait()
	if err := <-resizeErr; err != nil {
		t.Fatalf("Resize(4): %v", err)
	}
	if cli.Epoch() < 4 {
		// The session kept reading without ever adopting the new epoch: the
		// run would not have exercised the cache flush and floor reset.
		t.Fatalf("client never adopted the post-resize epoch (at %d)", cli.Epoch())
	}
	for j := i + 1; j <= i+40; j++ {
		step(j)
	}
}

// TestLeaseChurnUnderTraffic: aggressively short leases renew and expire
// continuously under concurrent client traffic. The CI -race leg runs this
// to shake out unsynchronized access between the lease table, the protocol
// loop, and the clients' session caches.
func TestLeaseChurnUnderTraffic(t *testing.T) {
	opts := fastOpts(Raft, true)
	opts.LeaderLeaseTicks = 2
	opts.ReadPolicy = core.ReadAnyClean
	opts.SessionCache = 16
	c := startCluster(t, opts)

	cfg := workload.ReadHotspot(64)
	cfg.Keys = 128
	cfg.Seed = 7
	if err := c.Preload(cfg); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	ops, err := c.RunOps(cfg, 8, 2000)
	if err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	if ops <= 0 {
		t.Fatalf("no throughput under lease churn")
	}
	local, replica, fallbacks := c.ReadStats()
	if local+replica+fallbacks == 0 {
		t.Fatalf("read-path counters all zero under a 95%% read mix")
	}
	t.Logf("lease churn: %.0f ops/s, local=%d replica=%d fallbacks=%d", ops, local, replica, fallbacks)
}
