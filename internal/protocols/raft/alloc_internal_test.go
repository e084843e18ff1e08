package raft

import (
	"fmt"
	"testing"

	"recipe/internal/core"
	"recipe/internal/prototest"
)

// lastSendEnv keeps only the most recent message sent, so measuring a send
// counts the protocol's allocations and none of the test network's.
type lastSendEnv struct {
	*prototest.Env
	last *core.Wire
}

func (e *lastSendEnv) Send(_ string, m *core.Wire) { e.last = m }

// TestSendAppendAllocatesOnlyTheWire: an AppendEntries carries slices of
// the log, so shipping a batch allocates the message and nothing else.
func TestSendAppendAllocatesOnlyTheWire(t *testing.T) {
	net := prototest.NewNet(t, 3, func(i int) core.Protocol { return New(int64(i)*100 + 7) })
	var leader string
	for i := 0; i < 200 && leader == ""; i++ {
		net.TickAndRun(1, 10_000)
		leader, _ = net.Coordinator()
	}
	if leader == "" {
		t.Fatalf("no leader elected")
	}
	cmds := make([]core.Command, 32)
	for i := range cmds {
		cmds[i] = core.Command{Op: core.OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte("v"), ClientID: "c", Seq: uint64(i + 1)}
	}
	net.SubmitBatch(leader, cmds...)
	net.Run(10_000)

	r := net.Protos[leader].(*Raft)
	env := &lastSendEnv{Env: net.Envs[leader]}
	r.env = env
	prev, hi := r.base, r.lastIndex()
	allocs := testing.AllocsPerRun(200, func() { r.sendAppend("n2", prev, hi) })
	if allocs != 1 {
		t.Errorf("sendAppend with %d entries allocated %v times per call, want 1 (the *Wire)", hi-prev, allocs)
	}
	if got := len(env.last.Cmds); uint64(got) != hi-prev || len(env.last.Value) != 8*got {
		t.Fatalf("sent %d commands and %d term bytes, want %d entries", got, len(env.last.Value), hi-prev)
	}
}
