package raft_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"recipe/internal/core"
	"recipe/internal/protocols/raft"
	"recipe/internal/prototest"
)

// puts returns n distinct write commands for one client, numbered from seq.
func puts(client string, seq, n int) []core.Command {
	cmds := make([]core.Command, n)
	for i := range cmds {
		cmds[i] = core.Command{
			Op: core.OpPut, Key: fmt.Sprintf("%s-%d", client, seq+i), Value: []byte("v"),
			ClientID: client, Seq: uint64(seq + i),
		}
	}
	return cmds
}

// lastIndex is an instance's newest log index.
func lastIndex(net *prototest.Net, id string) uint64 {
	r := net.Protos[id].(*raft.Raft)
	return r.Base() + uint64(r.LogLen())
}

// followersOf lists every instance except the leader.
func followersOf(net *prototest.Net, leader string) []string {
	var out []string
	for _, id := range net.Order() {
		if id != leader {
			out = append(out, id)
		}
	}
	return out
}

// TestHeartbeatsNeverReship: a heartbeat that fires while a batch is still
// on the wire carries no entries, so every index reaches every follower
// exactly once and each batch is one AppendEntries per follower.
func TestHeartbeatsNeverReship(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	net.TickAndRun(4, 10_000)
	first := lastIndex(net, leader) + 1

	got := make(map[string]map[uint64]int)
	batches, heartbeats := 0, 0
	net.Drop = func(s prototest.Sent) bool {
		if s.W.Kind != raft.KindAppendEntries {
			return false
		}
		if len(s.W.Cmds) == 0 {
			heartbeats++
		} else {
			batches++
		}
		if got[s.To] == nil {
			got[s.To] = make(map[uint64]int)
		}
		for i := range s.W.Cmds {
			got[s.To][s.W.Index+uint64(i)+1]++
		}
		return false
	}
	const rounds, perRound = 20, 3
	for i := 0; i < rounds; i++ {
		net.SubmitBatch(leader, puts("c", 1+i*perRound, perRound)...)
		net.TickAll() // heartbeatTicks is 2: the second tick fires one
		net.TickAll() // heartbeat per follower with the batch still queued
		net.Run(10_000)
	}
	net.TickAndRun(2, 10_000)

	last := lastIndex(net, leader)
	if last != first+rounds*perRound-1 {
		t.Fatalf("leader log ends at %d, want %d", last, first+rounds*perRound-1)
	}
	for _, f := range followersOf(net, leader) {
		for idx := first; idx <= last; idx++ {
			if n := got[f][idx]; n != 1 {
				t.Errorf("index %d reached %s %d times, want once", idx, f, n)
			}
		}
	}
	if batches != 2*rounds {
		t.Errorf("%d AppendEntries carried entries, want one per batch per follower (%d)", batches, 2*rounds)
	}
	if heartbeats < 2*rounds {
		t.Errorf("only %d heartbeats for %d rounds", heartbeats, rounds)
	}
	if n := len(net.Envs[leader].Replies); n != rounds*perRound {
		t.Errorf("leader answered %d of %d writes", n, rounds*perRound)
	}
}

// TestDroppedBatchResentAfterHeartbeat: a batch lost to every follower
// stalls commitment only until the next heartbeat, whose rejection re-ships
// the batch.
func TestDroppedBatchResentAfterHeartbeat(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	net.TickAndRun(4, 10_000)

	dropped := 0
	net.Drop = func(s prototest.Sent) bool {
		if s.W.Kind == raft.KindAppendEntries && len(s.W.Cmds) > 0 && dropped < 2 {
			dropped++
			return true
		}
		return false
	}
	net.SubmitBatch(leader, puts("c", 1, 4)...)
	net.Run(10_000)
	if dropped != 2 {
		t.Fatalf("dropped %d batches, want one per follower", dropped)
	}
	if n := len(net.Envs[leader].Replies); n != 0 {
		t.Fatalf("%d writes answered without a quorum", n)
	}
	net.TickAndRun(2, 10_000) // one heartbeat interval
	if n := len(net.Envs[leader].Replies); n != 4 {
		t.Fatalf("after one heartbeat %d of 4 writes committed", n)
	}
	net.TickAndRun(2, 10_000) // the commit index piggybacks on the next one
	for _, f := range followersOf(net, leader) {
		if _, err := net.Envs[f].Store().Get("c-4"); err != nil {
			t.Errorf("%s never applied the re-sent batch: %v", f, err)
		}
	}
}

// TestDivergentSuffixConvergesOneProbeAtATime: a deposed leader holding an
// unreplicated suffix is brought back in line by the new leader with at
// most one AppendEntries outstanding to it at any time.
func TestDivergentSuffixConvergesOneProbeAtATime(t *testing.T) {
	net := newNet(t, 3)
	old := electLeader(t, net)
	net.Drop = func(s prototest.Sent) bool { return s.From == old || s.To == old }
	for i := 0; i < 3; i++ {
		net.SubmitBatch(old, puts("stranded", 1+10*i, 10)...)
		net.Run(10_000)
	}

	var cur string
	for i := 0; i < 300 && cur == ""; i++ {
		net.TickAll()
		net.Run(10_000)
		for _, id := range followersOf(net, old) {
			if net.Protos[id].Status().IsCoordinator {
				cur = id
			}
		}
	}
	if cur == "" {
		t.Fatalf("majority elected no leader")
	}
	net.SubmitBatch(cur, puts("d", 1, 5)...)
	net.TickAndRun(2, 10_000)

	outstanding, peak := 0, 0
	net.Drop = func(s prototest.Sent) bool {
		switch {
		case s.From == cur && s.To == old && s.W.Kind == raft.KindAppendEntries:
			outstanding++
			peak = max(peak, outstanding)
		case s.From == old && s.To == cur && s.W.Kind == raft.KindAppendResp:
			outstanding--
		}
		return false
	}
	net.TickAndRun(10, 10_000)
	if peak > 1 {
		t.Errorf("%d AppendEntries outstanding to the deposed leader at once", peak)
	}
	if got, want := lastIndex(net, old), lastIndex(net, cur); got != want {
		t.Fatalf("deposed leader's log ends at %d, leader's at %d", got, want)
	}
	if _, err := net.Envs[old].Store().Get("d-5"); err != nil {
		t.Errorf("deposed leader missing the new leader's writes: %v", err)
	}
	if v, err := net.Envs[old].Store().Get("stranded-1"); err == nil {
		t.Errorf("stranded write applied: %q", v)
	}
}

// TestStaleRejectionNeverReshipsMatched: a rejection carrying a hint below
// what the follower already acknowledged restarts replication past the
// acknowledged index, not from the hint.
func TestStaleRejectionNeverReshipsMatched(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	net.SubmitBatch(leader, puts("c", 1, 8)...)
	net.TickAndRun(4, 10_000)
	match := lastIndex(net, leader)
	f := followersOf(net, leader)[0]
	if lastIndex(net, f) != match {
		t.Fatalf("follower %s at %d, leader at %d", f, lastIndex(net, f), match)
	}

	var low uint64 = 1<<64 - 1
	net.Drop = func(s prototest.Sent) bool {
		if s.To == f && s.W.Kind == raft.KindAppendEntries && len(s.W.Cmds) > 0 {
			low = min(low, s.W.Index+1)
		}
		return false
	}
	term := net.Protos[leader].Status().Term
	net.Protos[leader].Handle(f, &core.Wire{Kind: raft.KindAppendResp, Term: term, From: f, OK: false, Index: 0})
	net.SubmitBatch(leader, puts("c", 9, 4)...)
	net.TickAndRun(4, 10_000)
	if low <= match {
		t.Errorf("stale rejection re-shipped index %d, at or below match %d", low, match)
	}
	if got := lastIndex(net, f); got != match+4 {
		t.Errorf("follower at %d after the stale rejection, want %d", got, match+4)
	}
}

// captured is a deep copy of an AppendEntries' payload, to compare the
// retained message against later.
type captured struct {
	w     *core.Wire
	cmds  []core.Command
	terms []byte
}

func capture(w *core.Wire) captured {
	return captured{w: w, cmds: append([]core.Command(nil), w.Cmds...), terms: bytes.Clone(w.Value)}
}

func (c captured) check(t *testing.T, when string) {
	t.Helper()
	if !reflect.DeepEqual(c.w.Cmds, c.cmds) || !bytes.Equal(c.w.Value, c.terms) {
		t.Errorf("retained AppendEntries changed after %s", when)
	}
}

// TestSentAppendEntriesNeverMutated: AppendEntries ship slices of the log,
// so a message an Env retains must stay intact when its sender later steps
// down, truncates a conflicting suffix and appends over it.
func TestSentAppendEntriesNeverMutated(t *testing.T) {
	net := newNet(t, 3)
	old := electLeader(t, net)
	var held []captured
	net.Drop = func(s prototest.Sent) bool {
		if s.From == old && s.W.Kind == raft.KindAppendEntries && len(s.W.Cmds) > 0 {
			held = append(held, capture(s.W))
		}
		return s.From == old || s.To == old
	}
	net.SubmitBatch(old, puts("stranded", 1, 6)...)
	net.Run(10_000)
	if len(held) == 0 {
		t.Fatalf("captured no AppendEntries from %s", old)
	}

	var cur string
	for i := 0; i < 300 && cur == ""; i++ {
		net.TickAll()
		net.Run(10_000)
		for _, id := range followersOf(net, old) {
			if net.Protos[id].Status().IsCoordinator {
				cur = id
			}
		}
	}
	if cur == "" {
		t.Fatalf("majority elected no leader")
	}
	net.SubmitBatch(cur, puts("d", 1, 6)...)
	net.TickAndRun(2, 10_000)
	net.Drop = nil
	net.TickAndRun(6, 10_000)
	if net.Protos[old].Status().IsCoordinator {
		t.Fatalf("%s never stepped down", old)
	}
	if _, err := net.Envs[old].Store().Get("d-6"); err != nil {
		t.Fatalf("deposed leader never took the new suffix: %v", err)
	}
	for _, c := range held {
		c.check(t, "step-down, truncate and append")
	}
}

// TestSentAppendEntriesSurviveCompaction: compaction moves the retained log
// into fresh arrays, so messages sent before it stay intact however much is
// appended after — here, until the log compacts a second time.
func TestSentAppendEntriesSurviveCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("drives >28k entries")
	}
	net := newNet(t, 3)
	leader := electLeader(t, net)
	lr := net.Protos[leader].(*raft.Raft)
	// Keep the last batches sent before the first compaction: they slice
	// the array that compaction replaces.
	var held []captured
	net.Drop = func(s prototest.Sent) bool {
		if s.From == leader && s.W.Kind == raft.KindAppendEntries && len(s.W.Cmds) > 0 && lr.Base() == 0 {
			held = append(held, capture(s.W))
			if len(held) > 4 {
				held = held[1:]
			}
		}
		return false
	}
	var firstBase uint64
	for seq := 1; seq < 80_000 && (firstBase == 0 || lr.Base() == firstBase); seq += 64 {
		net.SubmitBatch(leader, puts("c", seq, 64)...)
		net.Run(1_000_000)
		if firstBase == 0 {
			firstBase = lr.Base()
		}
	}
	if firstBase == 0 || lr.Base() == firstBase {
		t.Fatalf("leader compacted to %d then %d, want two compactions", firstBase, lr.Base())
	}
	for _, c := range held {
		c.check(t, "compaction")
	}
}

// TestShortTermsRejected: an AppendEntries whose Value holds fewer terms
// than it has commands is refused and leaves the log untouched — acking
// or committing the commands it cannot place would claim entries the
// follower does not hold.
func TestShortTermsRejected(t *testing.T) {
	net := newNet(t, 3)
	var resp *core.Wire
	net.Drop = func(s prototest.Sent) bool {
		if s.W.Kind == raft.KindAppendResp {
			resp = s.W
		}
		return true
	}
	f := net.Protos["n1"].(*raft.Raft)
	f.Handle("n2", &core.Wire{
		Kind: raft.KindAppendEntries, Term: 1, From: "n2", Commit: 2,
		Cmds:  puts("c", 1, 2),
		Value: make([]byte, 8), // one term for two commands
	})
	net.Run(10)
	if resp == nil || resp.OK {
		t.Fatalf("malformed AppendEntries answered %+v, want a rejection", resp)
	}
	if f.LogLen() != 0 || f.SnapshotIndex() != 0 {
		t.Errorf("log holds %d entries, applied %d; want both 0", f.LogLen(), f.SnapshotIndex())
	}
}

// TestRestartedFollowerBelowMatchCatchesUp: a follower that restarts under
// its old identity from a snapshot older than what it acknowledged (state
// transfer from a donor whose commit index lagged) refuses the probe at its
// old match. The leader must take that as lost state and probe lower, or
// the follower never catches up and the group cannot survive a second
// failure.
func TestRestartedFollowerBelowMatchCatchesUp(t *testing.T) {
	net := newNet(t, 3)
	leader := electLeader(t, net)
	net.SubmitBatch(leader, puts("c", 1, 10)...)
	net.Run(10_000)
	fs := followersOf(net, leader)
	f, other := fs[0], fs[1]
	match := lastIndex(net, f)
	if match != lastIndex(net, leader) {
		t.Fatalf("follower at %d before the restart, leader at %d", match, lastIndex(net, leader))
	}

	fresh := raft.New(99)
	fresh.Init(net.Envs[f])
	fresh.InstallSnapshot(match - 5)
	net.Protos[f] = fresh
	net.SubmitBatch(leader, puts("c", 11, 3)...)
	net.TickAndRun(6, 10_000)
	if got, want := lastIndex(net, f), lastIndex(net, leader); got != want {
		t.Fatalf("restarted follower stuck at %d, leader at %d", got, want)
	}

	net.Down[other] = true
	net.SubmitBatch(leader, puts("d", 1, 1)...)
	net.TickAndRun(2, 10_000)
	if rep, ok := net.LastReply(leader); !ok || rep.Cmd.ClientID != "d" || !rep.Res.OK {
		t.Fatalf("write after losing %s never committed: %+v", other, rep)
	}
}
