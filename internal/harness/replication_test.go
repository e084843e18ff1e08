package harness

import (
	"sync/atomic"
	"testing"

	"recipe/internal/core"
	"recipe/internal/protocols/raft"
	"recipe/internal/workload"
)

// dupCountingRaft is a Raft replica that counts the entries reaching it in
// AppendEntries, and how many of those its log already held. Embedding
// keeps FlushBatch, Snapshotter and CleanReader promoted.
type dupCountingRaft struct {
	*raft.Raft
	shipped, dups *atomic.Int64
}

func (d *dupCountingRaft) Handle(from string, m *core.Wire) {
	if m.Kind == raft.KindAppendEntries && len(m.Cmds) > 0 {
		held := d.Base() + uint64(d.LogLen())
		n := uint64(len(m.Cmds))
		d.shipped.Add(int64(n))
		if first := m.Index + 1; held >= first {
			d.dups.Add(int64(min(n, held-first+1)))
		}
	}
	d.Raft.Handle(from, m)
}

// TestRaftShipsEachEntryOnce: under sustained closed-loop writes the
// shielded Raft leader keeps at most one batch in flight per follower and
// never re-sends it on a heartbeat, so almost no entry reaches a follower
// that already holds it (only a lost batch, or an election, re-ships).
func TestRaftShipsEachEntryOnce(t *testing.T) {
	var shipped, dups atomic.Int64
	opts := fastOpts(Raft, true)
	opts.Factory = func(replica int) core.Protocol {
		return &dupCountingRaft{Raft: raft.New(int64(replica)*7907 + 42), shipped: &shipped, dups: &dups}
	}
	c := startCluster(t, opts)
	cfg := workload.Config{Keys: 256, ReadRatio: 0, ValueSize: 256, Seed: 3}
	if err := c.Preload(cfg); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if _, err := c.RunOps(cfg, 16, 4000); err != nil {
		t.Fatalf("RunOps: %v", err)
	}
	s, d := shipped.Load(), dups.Load()
	if s < 4000 {
		t.Fatalf("followers received %d entries for 4000 writes", s)
	}
	frac := float64(d) / float64(s)
	t.Logf("%d entries shipped, %d duplicates (%.4f)", s, d, frac)
	if frac > 0.01 {
		t.Errorf("duplicate fraction %.4f, want <= 0.01", frac)
	}
}
