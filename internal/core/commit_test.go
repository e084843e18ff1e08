package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"recipe/internal/attest"
	"recipe/internal/core"
	"recipe/internal/netstack"
	"recipe/internal/protocols/raft"
	"recipe/internal/tee"
)

// gateReg is a CAS-style in-memory registrar whose RegisterSealRoot can be
// gated shut. A node's group commit (seal.Log.Sync) registers the covered
// chain position before it returns, so while the gate is closed no durable
// node can complete a commit — which means no client may see an ack. That is
// the deferred-ack invariant of the commit stage: the fsync runs off the
// protocol loop, but replies still only leave after their fsync+register.
type gateReg struct {
	mu    sync.Mutex
	c     map[string]uint64
	roots map[string][32]byte
	gate  chan struct{}
}

func newGateReg() *gateReg {
	return &gateReg{c: make(map[string]uint64), roots: make(map[string][32]byte)}
}

func (r *gateReg) block() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gate = make(chan struct{})
}

func (r *gateReg) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gate != nil {
		close(r.gate)
		r.gate = nil
	}
}

func (r *gateReg) RegisterSealRoot(id string, counter uint64, root [32]byte) error {
	r.mu.Lock()
	gate := r.gate
	r.mu.Unlock()
	if gate != nil {
		<-gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.c[id]; ok && counter < cur {
		return fmt.Errorf("counter %d behind %d", counter, cur)
	}
	r.c[id] = counter
	r.roots[id] = root
	return nil
}

func (r *gateReg) SealRoot(id string) (uint64, [32]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.c[id]
	return c, r.roots[id], ok
}

// TestAckAfterGroupCommit: with durability enabled, a client PUT is not
// acknowledged until the replica's overlapped group commit has fully
// completed. The registrar gate stalls commits mid-flight; the ack must
// stall with them and arrive only after release.
func TestAckAfterGroupCommit(t *testing.T) {
	master := make([]byte, 32)
	master[0] = 9
	membership := []string{"p1", "p2", "p3"}
	reg := newGateReg()
	fab := netstack.NewFabric()

	nodes := make([]*core.Node, 0, len(membership))
	for i, id := range membership {
		ep, err := fab.Register(id)
		if err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		plat, err := tee.NewPlatform("gate-"+id, tee.WithCostModel(tee.NativeCostModel()))
		if err != nil {
			t.Fatalf("platform: %v", err)
		}
		node, err := core.NewNode(plat.NewEnclave([]byte("gate-raft")), ep,
			raft.New(int64(i)*131+7), core.NodeConfig{
				Secrets: attest.Secrets{
					NodeID:     id,
					MasterKey:  master,
					Membership: membership,
				},
				Shielded:  true,
				TickEvery: time.Millisecond,
				Durability: &core.DurabilityConfig{
					Dir:       t.TempDir(),
					Registrar: reg,
					Fresh:     true,
				},
			})
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		nodes = append(nodes, node)
		node.Start()
	}
	defer func() {
		reg.release() // never leave a commit stage wedged at teardown
		for _, n := range nodes {
			n.Stop()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	elected := false
	for time.Now().Before(deadline) && !elected {
		for _, n := range nodes {
			if n.Status().IsCoordinator {
				elected = true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !elected {
		t.Fatalf("no leader elected")
	}

	cep, err := fab.Register("gate-cli")
	if err != nil {
		t.Fatalf("client endpoint: %v", err)
	}
	plat, err := tee.NewPlatform("gate-cli", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		t.Fatalf("client platform: %v", err)
	}
	cli, err := core.NewClient(plat.NewEnclave([]byte("client")), cep, core.ClientConfig{
		ID:             "gate-client",
		Nodes:          membership,
		MasterKey:      master,
		Shielded:       true,
		RequestTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer func() { _ = cli.Close() }()

	if res, err := cli.Put("warm", []byte("w")); err != nil || !res.OK {
		t.Fatalf("warmup Put = %+v, %v", res, err)
	}

	reg.block()
	type outcome struct {
		ok  bool
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := cli.Put("gated", []byte("g"))
		done <- outcome{ok: err == nil && res.OK, err: err, at: time.Now()}
	}()

	const hold = 300 * time.Millisecond
	select {
	case o := <-done:
		t.Fatalf("ack outran the group commit: Put returned (ok=%v, err=%v) while commits were gated", o.ok, o.err)
	case <-time.After(hold):
	}
	released := time.Now()
	reg.release()

	select {
	case o := <-done:
		if !o.ok {
			t.Fatalf("gated Put failed after release: %v", o.err)
		}
		if o.at.Before(released) {
			t.Fatalf("ack timestamped before the commit gate released")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("gated Put never completed after release")
	}
}
