package harness

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recipe/internal/core"
)

// The tests in this file run durable clusters, so every acknowledgement
// leaves through the commit stage: the group-commit fsync is pipelined
// behind the protocol loop, and replies follow their fsync.

// TestPipelinedClusterServesTraffic: a durable cluster serves the full
// PUT/GET/DELETE surface for a leader-based and a leaderless protocol, and
// its acknowledgements really went through the commit stage.
func TestPipelinedClusterServesTraffic(t *testing.T) {
	for _, p := range []ProtocolKind{Raft, ABD} {
		t.Run(string(p), func(t *testing.T) {
			c := startCluster(t, durableOpts(p))
			cli, err := c.Client()
			if err != nil {
				t.Fatalf("Client: %v", err)
			}
			defer func() { _ = cli.Close() }()
			want := make(map[string][]byte)
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("pipe-%d", i)
				v := []byte(fmt.Sprintf("v-%d", i))
				if res, err := cli.Put(k, v); err != nil || !res.OK {
					t.Fatalf("Put %s = %+v, %v", k, res, err)
				}
				want[k] = v
			}
			if res, err := cli.Delete("pipe-7"); err != nil || !res.OK {
				t.Fatalf("Delete = %+v, %v", res, err)
			}
			delete(want, "pipe-7")
			for k, v := range want {
				res, err := cli.Get(k)
				if err != nil || !res.OK || !bytes.Equal(res.Value, v) {
					t.Fatalf("Get %s = %+v, %v (want %q)", k, res, err, v)
				}
			}
			if res, err := cli.Get("pipe-7"); err == nil && res.OK {
				t.Fatalf("deleted key still readable: %+v", res)
			}

			ps := c.PhaseSnapshots()
			for _, name := range []string{core.MetricPhaseQueueWait, core.MetricPhaseWALFsync} {
				if ps[name].Count == 0 {
					t.Fatalf("%s recorded nothing: the commit stage carried no acks", name)
				}
			}
		})
	}
}

// TestPipelinedChurnUnderLoad is the reconfiguration stress for the commit
// stage: clients hammer a 2-shard durable cluster at full rate while the
// control plane churns through shard-map installs (Resize up and down),
// replica crashes, and recoveries. Run under -race this checks that
// configuration moves and crash-stops never race an in-flight fsync or the
// replies queued behind it.
func TestPipelinedChurnUnderLoad(t *testing.T) {
	opts := durableOpts(Raft)
	opts.Shards = 2
	c := startCluster(t, opts)

	// Pre-churn oracle, the same contract the memory-only churn tests hold
	// (TestResizeRacingCrashRecover): writes acknowledged in a stable
	// configuration survive the churn. Mid-churn acks are load, not oracle.
	cli0, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	want := make(map[string][]byte)
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("pre-%d", i)
		v := []byte(fmt.Sprintf("v-%d", i))
		if res, err := cli0.Put(k, v); err != nil || !res.OK {
			t.Fatalf("Put %s = %+v, %v", k, res, err)
		}
		want[k] = v
	}
	_ = cli0.Close()

	stop := make(chan struct{})
	var wrote atomic.Int64
	var wg sync.WaitGroup
	const writers = 3
	for w := 0; w < writers; w++ {
		wcli, err := c.Client()
		if err != nil {
			t.Fatalf("writer client: %v", err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { _ = wcli.Close() }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("churn-%d-%d", w, i%64)
				v := []byte(fmt.Sprintf("v-%d-%d", w, i))
				// Failures are expected mid-churn (crashed coordinator,
				// stale epoch); what matters is sustained full-rate traffic
				// through the commit stage while the control plane churns.
				if res, err := wcli.Put(k, v); err == nil && res.OK {
					wrote.Add(1)
				}
			}
		}(w)
	}

	// Churn: grow, crash a follower, shrink with it down, recover it.
	if err := c.Resize(3); err != nil {
		t.Fatalf("Resize(3): %v", err)
	}
	coord, err := c.Groups[0].WaitForCoordinator(5 * time.Second)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	var victim string
	for _, id := range c.Groups[0].Order {
		if id != coord {
			victim = id
			break
		}
	}
	c.Crash(victim)
	if err := c.Resize(2); err != nil {
		t.Fatalf("Resize(2): %v", err)
	}
	if err := c.Recover(victim, 10*time.Second); err != nil {
		t.Fatalf("Recover(%s): %v", victim, err)
	}

	close(stop)
	wg.Wait()
	if wrote.Load() == 0 {
		t.Fatalf("writers made no progress through the churn")
	}

	// The pre-churn oracle survives, and the churned cluster still serves.
	cli, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = cli.Close() }()
	for k, v := range want {
		res, err := cli.Get(k)
		if err != nil || !res.OK || !bytes.Equal(res.Value, v) {
			t.Fatalf("Get %s after churn = %+v, %v (want %q)", k, res, err, v)
		}
	}
	if res, err := cli.Put("post-churn", []byte("alive")); err != nil || !res.OK {
		t.Fatalf("Put after churn = %+v, %v", res, err)
	}
}

// TestPipelinedWholeGroupPowerLoss: every replica of a durable group loses
// power at once while writers keep the commit stage busy — fsyncs queued
// and in flight behind the loop — and the group recovers from sealed local
// state with every acknowledged write intact: the overlapped group commit
// acknowledges nothing its fsync has not sealed.
func TestPipelinedWholeGroupPowerLoss(t *testing.T) {
	c := startCluster(t, durableOpts(Raft))

	var mu sync.Mutex
	acked := make(map[string]string)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wcli, err := c.Client()
		if err != nil {
			t.Fatalf("writer client: %v", err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { _ = wcli.Close() }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("pwr-%d-%d", w, i)
				if res, err := wcli.Put(k, []byte(k)); err == nil && res.OK {
					mu.Lock()
					acked[k] = k
					mu.Unlock()
				}
			}
		}(w)
	}
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}
	for deadline := time.Now().Add(10 * time.Second); ackedCount() < 150; {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("only %d writes acknowledged before the power loss", ackedCount())
		}
		time.Sleep(time.Millisecond)
	}

	for _, id := range append([]string(nil), c.Order...) {
		c.Crash(id)
	}
	// In-flight Puts exhaust their retries against the dead group; none of
	// them was acknowledged, so none joins the oracle.
	close(stop)
	wg.Wait()
	if err := c.RecoverGroup(0, 10*time.Second); err != nil {
		t.Fatalf("RecoverGroup: %v", err)
	}
	if _, err := c.WaitForCoordinator(10 * time.Second); err != nil {
		t.Fatalf("no coordinator after power loss: %v", err)
	}
	checkKeys(t, c, acked)
	for _, n := range c.liveNodes() {
		if n.Stats().DropRollback.Load() != 0 {
			t.Fatalf("clean power-loss recovery counted a rollback at %s", n.ID())
		}
	}
}
