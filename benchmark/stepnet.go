package main

import (
	"fmt"

	"recipe/internal/core"
	"recipe/internal/kvstore"
	"recipe/internal/tee"
)

// stepNet runs three instances of one protocol on a single goroutine: sends
// queue up and are delivered one at a time, so a replay of the same commands
// exchanges exactly the same messages every time, and messages and bytes per
// operation are exact counts rather than measurements.
type stepNet struct {
	order  []string
	protos map[string]core.Protocol
	envs   map[string]*stepEnv
	queue  []stepMsg

	msgs, bytes int // delivered so far
}

type stepMsg struct {
	from, to string
	w        *core.Wire
}

// stepEnv is the core.Env of one instance on a stepNet.
type stepEnv struct {
	net     *stepNet
	id      string
	store   *kvstore.Store
	alive   bool // what LeaderAlive reports
	replies int
	lastOK  bool
}

var _ core.Env = (*stepEnv)(nil)

func (e *stepEnv) ID() string            { return e.id }
func (e *stepEnv) Peers() []string       { return append([]string(nil), e.net.order...) }
func (e *stepEnv) Store() *kvstore.Store { return e.store }
func (e *stepEnv) LeaderAlive() bool     { return e.alive }
func (e *stepEnv) Logf(string, ...any)   {}

func (e *stepEnv) Send(to string, m *core.Wire) {
	cp := *m
	cp.From = e.id
	e.net.queue = append(e.net.queue, stepMsg{from: e.id, to: to, w: &cp})
}

func (e *stepEnv) Broadcast(m *core.Wire) {
	for _, p := range e.net.order {
		if p != e.id {
			e.Send(p, m)
		}
	}
}

func (e *stepEnv) Reply(_ core.Command, r core.Result) {
	e.replies++
	e.lastOK = r.OK
}

// newStepNet builds three instances on native-cost stores preloaded with the
// key space, and ticks until one coordinates.
func newStepNet(factory func(i int) core.Protocol, keys []string, value []byte) (*stepNet, error) {
	n := &stepNet{protos: make(map[string]core.Protocol), envs: make(map[string]*stepEnv)}
	plat, err := tee.NewPlatform("stepnet", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		n.order = append(n.order, fmt.Sprintf("n%d", i+1))
	}
	for i, id := range n.order {
		store, err := kvstore.Open(plat.NewEnclave([]byte("stepnet")), kvstore.Config{Seed: int64(i)})
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if err := store.WriteVersioned(k, value, kvstore.Version{TS: 1}); err != nil {
				return nil, err
			}
		}
		env := &stepEnv{net: n, id: id, store: store}
		n.envs[id], n.protos[id] = env, factory(i)
		n.protos[id].Init(env)
	}
	// LeaderAlive is false until someone wins, so election timers run.
	for round := 0; round < 1000; round++ {
		if _, ok := n.coordinator(); ok {
			for _, e := range n.envs {
				e.alive = true
			}
			n.settle()
			return n, nil
		}
		for _, id := range n.order {
			n.protos[id].Tick()
		}
		n.settle()
	}
	return nil, fmt.Errorf("stepnet: no coordinator after 1000 ticks")
}

func (n *stepNet) coordinator() (string, bool) {
	for _, id := range n.order {
		if n.protos[id].Status().IsCoordinator {
			return id, true
		}
	}
	return "", false
}

// settle delivers queued messages until none remain.
func (n *stepNet) settle() {
	for len(n.queue) > 0 {
		m := n.queue[0]
		n.queue = n.queue[1:]
		n.msgs++
		n.bytes += m.w.EncodedSize()
		n.protos[m.to].Handle(m.from, m.w)
		if bf, ok := n.protos[m.to].(core.BatchFlusher); ok {
			bf.FlushBatch()
		}
	}
}

// do submits one command at the coordinator and runs the net to quiescence.
// It reports whether the command was answered successfully.
func (n *stepNet) do(coord string, cmd core.Command) bool {
	env := n.envs[coord]
	before := env.replies
	p := n.protos[coord]
	p.Submit(cmd)
	if bf, ok := p.(core.BatchFlusher); ok {
		bf.FlushBatch()
	}
	n.settle()
	return env.replies == before+1 && env.lastOK
}
