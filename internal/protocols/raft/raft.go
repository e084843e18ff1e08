package raft

import (
	"encoding/binary"
	"math/rand"
	"time"

	"recipe/internal/core"
	"recipe/internal/kvstore"
	"recipe/internal/telemetry"
)

// Message kinds.
const (
	// KindAppendEntries replicates log entries (and acts as heartbeat).
	KindAppendEntries = core.KindProtocolBase + iota
	// KindAppendResp acknowledges an AppendEntries.
	KindAppendResp
	// KindRequestVote solicits a vote for a new term.
	KindRequestVote
	// KindVoteResp answers a vote request.
	KindVoteResp
)

// role is a Raft server role.
type role int

const (
	follower role = iota + 1
	candidate
	leader
)

// Tuning in ticks (the Recipe layer drives Tick from the trusted clock).
const (
	heartbeatTicks  = 2
	electionMin     = 10
	electionJitter  = 10
	maxEntriesPerAE = 64
)

// Log-compaction tuning: once the in-memory log exceeds compactThreshold
// entries, the applied prefix is discarded down to compactKeep retained
// entries. The retained margin comfortably covers the consistency-check
// backtracking window (followers hint with their commit index, which is
// never more than a few batches behind their applied index).
const (
	compactThreshold = 16384
	compactKeep      = 4096
)

// progress is the leader's view of one follower, in the shape of
// etcd-raft's Progress. The next AppendEntries that carries entries starts
// at sent+1.
//
// In replicate state at most one AppendEntries with entries is in flight,
// covering (match, sent]; nothing is shipped while it is outstanding, so no
// entry travels twice. In probe state (after an election or a rejection)
// the leader does not know where the follower's log ends: one AppendEntries
// from sent+1 is outstanding at a time (paused), and sent does not move
// until the follower accepts it.
type progress struct {
	id     string
	match  uint64 // highest index known to be replicated on the follower
	sent   uint64 // highest index shipped (replicate) or the probe's prevIdx (probe)
	probe  bool
	paused bool // probe state: a probe is outstanding
}

// Raft is one Raft server. All methods run on the node event loop.
type Raft struct {
	env core.Env
	// renv is the optional read-path extension of env: lease-gated local
	// reads and read-path accounting. Nil with plain Envs (unit-test fakes),
	// which keeps the legacy always-local read behaviour.
	renv  core.ReadEnv
	id    string
	peers []string
	rng   *rand.Rand

	role     role
	term     uint64
	votedFor string
	leader   string

	// The log starts after a compacted prefix: cmds[i] is the command at
	// index base+i+1 and terms[8i:8i+8] its term, big-endian — the layout of
	// an AppendEntries' Value, so a batch ships as a slice of the log. A slot,
	// once written, is never rewritten in its backing array: truncation caps
	// both slices so the next append reallocates, and compaction copies into
	// fresh arrays. That keeps every slice handed to Env.Send unchanged for
	// as long as the Env retains it. baseTerm is the term of the entry at
	// index base (0 = unknown, after a snapshot install — the compacted
	// prefix is committed state and is trusted without a term check).
	cmds        []core.Command
	terms       []byte
	base        uint64
	baseTerm    uint64
	commitIndex uint64
	lastApplied uint64
	// barrier is the index of this leader's term-start no-op entry. Local
	// reads are only served once it has applied — before that, entries
	// committed in prior terms may not have reached this replica's store.
	barrier uint64

	// prs is the leader's replication progress, one per follower in peer
	// order.
	prs   []progress
	votes map[string]bool
	// leaseAcks collects the distinct followers that responded in the
	// current term since the last lease renewal. The leader's own holder-
	// side lease renews only when a QUORUM of them has responded — renewing
	// on any single response would let a minority-partitioned leader keep
	// its lease (and serve stale local reads) while the majority elects and
	// commits under a successor.
	leaseAcks map[string]bool
	// dirty marks entries appended by Submit since the last FlushBatch. The
	// node event loop drains a burst of client commands and then calls
	// FlushBatch once, so the whole burst replicates in a single
	// AppendEntries per follower instead of one per command.
	dirty bool

	electionElapsed  int
	electionTimeout  int
	heartbeatElapsed int

	pending map[uint64]core.Command // log index -> client command awaiting commit
	// commitLag, when the env provides phase telemetry, times leader
	// append → commit apply per pending command; pendingAt holds the
	// append stamps. Steady-state delete/reinsert keeps the map
	// allocation-free, like pending itself.
	commitLag *telemetry.Histogram
	pendingAt map[uint64]time.Time
}

var (
	_ core.Protocol     = (*Raft)(nil)
	_ core.Snapshotter  = (*Raft)(nil)
	_ core.BatchFlusher = (*Raft)(nil)
	_ core.CleanReader  = (*Raft)(nil)
)

// New creates a Raft instance. Seed randomizes election timeouts; give each
// node a distinct seed.
func New(seed int64) *Raft {
	return &Raft{
		rng:     rand.New(rand.NewSource(seed)),
		pending: make(map[uint64]core.Command),
	}
}

// Name implements core.Protocol.
func (r *Raft) Name() string { return "raft" }

// Init implements core.Protocol.
func (r *Raft) Init(env core.Env) {
	r.env = env
	r.renv, _ = env.(core.ReadEnv)
	if pe, ok := env.(core.PhaseEnv); ok {
		r.commitLag = pe.PhaseHistogram(core.MetricPhaseRaftCommitLag)
		if r.commitLag != nil {
			r.pendingAt = make(map[uint64]time.Time)
		}
	}
	r.id = env.ID()
	r.peers = env.Peers()
	r.role = follower
	r.resetElectionTimer()
}

// Status implements core.Protocol.
func (r *Raft) Status() core.Status {
	return core.Status{
		Leader:        r.leader,
		IsCoordinator: r.role == leader,
		Term:          r.term,
	}
}

// Submit implements core.Protocol. Only called when this node coordinates.
func (r *Raft) Submit(cmd core.Command) {
	if r.role != leader {
		r.env.Reply(cmd, core.Result{Err: "not leader"})
		return
	}
	if cmd.Op == core.OpGet && r.lastApplied >= r.barrier {
		// Linearizable local read at the leader: the term-start barrier has
		// applied (so every write committed in prior terms is in the local
		// store), every entry committed in this term is applied at commit
		// time, and the trusted lease ensures leadership freshness. Under
		// ReadLeaderOnly the read always takes the log; with an expired
		// lease it falls back to the log (a deposed leader must not answer).
		if r.renv == nil {
			r.env.Reply(cmd, readLocal(r.env.Store(), cmd.Key))
			return
		}
		if r.renv.ReadPolicy() != core.ReadLeaderOnly {
			if r.renv.HoldsLeaderLease() {
				r.renv.CountRead(core.ReadPathLocal)
				r.env.Reply(cmd, readLocal(r.env.Store(), cmd.Key))
				return
			}
			r.renv.CountRead(core.ReadPathFallback)
		}
	}
	// Writes — and reads arriving before the term barrier applies, under
	// ReadLeaderOnly, or without a fresh lease — go through the log; OpGet
	// entries read the store at apply time.
	r.appendEntry(r.term, cmd)
	idx := r.lastIndex()
	r.pending[idx] = cmd
	if r.pendingAt != nil {
		r.pendingAt[idx] = time.Now()
	}
	// Replication is deferred to FlushBatch so commands submitted in the
	// same event-loop iteration batch into one AppendEntries.
	r.dirty = true
}

// FlushBatch implements core.BatchFlusher: it replicates everything Submit
// appended during the current event-loop iteration in one AppendEntries per
// follower (followers with an outstanding AppendEntries stay self-clocked:
// their entries ride the response-triggered next batch).
func (r *Raft) FlushBatch() {
	if !r.dirty || r.role != leader {
		return
	}
	r.dirty = false
	for i := range r.prs {
		r.maybeSend(&r.prs[i])
	}
	// A single-replica group has no followers to ack: the leader's own log
	// is the quorum, so commitment must advance here. No-op with followers
	// (their match has not moved yet).
	r.advanceCommit()
}

// Handle implements core.Protocol.
func (r *Raft) Handle(from string, m *core.Wire) {
	switch m.Kind {
	case KindAppendEntries:
		r.onAppendEntries(from, m)
	case KindAppendResp:
		r.onAppendResp(from, m)
	case KindRequestVote:
		r.onRequestVote(from, m)
	case KindVoteResp:
		r.onVoteResp(from, m)
	}
}

// Tick implements core.Protocol.
func (r *Raft) Tick() {
	if r.role == leader {
		r.heartbeatElapsed++
		if r.heartbeatElapsed >= heartbeatTicks {
			r.heartbeatElapsed = 0
			r.replicateAll()
		}
		return
	}
	r.electionElapsed++
	if r.electionElapsed < r.electionTimeout {
		return
	}
	// The trusted lease is the failure detector: while verified leader
	// traffic keeps the lease alive, no election starts even if ticks
	// accumulated (e.g. under scheduling hiccups).
	if r.leader != "" && r.env.LeaderAlive() {
		r.electionElapsed = 0
		return
	}
	r.startElection()
}

func (r *Raft) resetElectionTimer() {
	r.electionElapsed = 0
	r.electionTimeout = electionMin + r.rng.Intn(electionJitter)
}

func (r *Raft) startElection() {
	r.role = candidate
	r.term++
	r.votedFor = r.id
	r.leader = ""
	r.votes = map[string]bool{r.id: true}
	r.resetElectionTimer()
	lastIdx, lastTerm := r.lastLog()
	r.env.Broadcast(&core.Wire{
		Kind:  KindRequestVote,
		Term:  r.term,
		Index: lastIdx,
		TS:    kvstore.Version{TS: lastTerm},
	})
	r.maybeWinElection()
}

// stepDown moves to follower in a (possibly newer) term.
func (r *Raft) stepDown(term uint64) {
	if term > r.term {
		r.term = term
		r.votedFor = ""
	}
	if r.role != follower {
		r.role = follower
	}
	r.resetElectionTimer()
}

// lastIndex is the index of the newest log entry (or the compaction base if
// the log is empty).
func (r *Raft) lastIndex() uint64 { return r.base + uint64(len(r.cmds)) }

// termAt returns the term of the entry at idx, if known. Indices at or
// below base are compacted; base itself reports baseTerm.
func (r *Raft) termAt(idx uint64) (uint64, bool) {
	switch {
	case idx == r.base:
		return r.baseTerm, true
	case idx > r.base && idx <= r.lastIndex():
		return binary.BigEndian.Uint64(r.terms[8*(idx-r.base-1):]), true
	default:
		return 0, false
	}
}

// cmdAt returns the command at idx, which must be in (base, lastIndex].
func (r *Raft) cmdAt(idx uint64) core.Command { return r.cmds[idx-r.base-1] }

// appendEntry appends one entry to the log.
func (r *Raft) appendEntry(term uint64, cmd core.Command) {
	r.cmds = append(r.cmds, cmd)
	r.terms = binary.BigEndian.AppendUint64(r.terms, term)
}

// truncate keeps the first n in-memory entries. The capped slices make the
// next append reallocate, so the dropped slots — which a retained
// AppendEntries may still reference — are never rewritten.
func (r *Raft) truncate(n uint64) {
	r.cmds = r.cmds[:n:n]
	r.terms = r.terms[: 8*n : 8*n]
}

// dropPrefix discards the in-memory entries at or below index, copying the
// rest into fresh arrays (the old ones may back retained AppendEntries).
func (r *Raft) dropPrefix(index uint64) {
	n := index - r.base
	r.cmds = append([]core.Command(nil), r.cmds[n:]...)
	r.terms = append([]byte(nil), r.terms[8*n:]...)
}

func (r *Raft) lastLog() (idx, term uint64) {
	idx = r.lastIndex()
	term, _ = r.termAt(idx)
	return idx, term
}

func (r *Raft) onRequestVote(from string, m *core.Wire) {
	if m.Term > r.term {
		r.stepDown(m.Term)
	}
	grant := false
	if m.Term == r.term && (r.votedFor == "" || r.votedFor == from) {
		lastIdx, lastTerm := r.lastLog()
		candTerm := m.TS.TS
		upToDate := candTerm > lastTerm || (candTerm == lastTerm && m.Index >= lastIdx)
		if upToDate {
			grant = true
			r.votedFor = from
			r.resetElectionTimer()
		}
	}
	r.env.Send(from, &core.Wire{Kind: KindVoteResp, Term: r.term, OK: grant})
}

func (r *Raft) onVoteResp(from string, m *core.Wire) {
	if m.Term > r.term {
		r.stepDown(m.Term)
		return
	}
	if r.role != candidate || m.Term != r.term || !m.OK {
		return
	}
	r.votes[from] = true
	r.maybeWinElection()
}

func (r *Raft) maybeWinElection() {
	if r.role != candidate || len(r.votes) < r.quorum() {
		return
	}
	r.role = leader
	r.leader = r.id
	r.heartbeatElapsed = 0
	r.prs = make([]progress, 0, len(r.peers))
	r.leaseAcks = make(map[string]bool, len(r.peers))
	for _, p := range r.peers {
		if p != r.id {
			r.prs = append(r.prs, progress{id: p, sent: r.lastIndex(), probe: true})
		}
	}
	// Term-start no-op barrier (Raft §8): committing an entry of the new
	// term also commits — and applies — every entry inherited from prior
	// terms, which advanceCommit cannot count directly. Until the barrier
	// applies, local reads detour through the log (see Submit), so a write
	// acknowledged by a crashed leader can never be invisibly lost.
	r.appendEntry(r.term, core.Command{})
	r.barrier = r.lastIndex()
	r.env.Logf("raft %s: leader of term %d", r.id, r.term)
	r.replicateAll()
}

func (r *Raft) quorum() int { return len(r.peers)/2 + 1 }

// progressOf returns the leader's progress for a follower (nil for anyone
// else).
func (r *Raft) progressOf(id string) *progress {
	for i := range r.prs {
		if r.prs[i].id == id {
			return &r.prs[i]
		}
	}
	return nil
}

// replicateAll is the leader's heartbeat: one AppendEntries to every
// follower, carrying the commit index. A follower with a batch in flight gets
// no entries, only prevIdx = sent: if that batch was lost it rejects, and
// the rejection re-ships it. A probe outstanding a whole heartbeat interval
// is sent again.
func (r *Raft) replicateAll() {
	r.dirty = false // every follower is being sent its pending entries now
	for i := range r.prs {
		pr := &r.prs[i]
		pr.paused = false
		if !r.maybeSend(pr) {
			r.sendAppend(pr.id, pr.sent, pr.sent)
		}
	}
	r.advanceCommit() // single-replica groups commit on their own log
}

// maybeSend ships the entries past pr.sent (at most maxEntriesPerAE) if the
// follower's progress allows it: in probe state one probe at a time, in
// replicate state one batch at a time. It reports whether it sent.
func (r *Raft) maybeSend(pr *progress) bool {
	if pr.sent < r.base {
		// Entries at or below base are compacted. A follower that far behind
		// recovers through Recipe's state transfer (SyncFrom installs a
		// snapshot); meanwhile probe from just past the base.
		pr.sent = r.base
	}
	last := r.lastIndex()
	hi := min(last, pr.sent+maxEntriesPerAE)
	if pr.probe {
		if pr.paused {
			return false
		}
		pr.paused = true
		r.sendAppend(pr.id, pr.sent, hi)
		return true
	}
	if pr.sent > pr.match || pr.sent == last {
		return false // a batch is in flight, or there is nothing to ship
	}
	r.sendAppend(pr.id, pr.sent, hi)
	pr.sent = hi
	return true
}

// sendAppend sends the entries (prev, hi] — none when hi == prev — as
// slices of the log: the only allocation is the message itself.
func (r *Raft) sendAppend(to string, prev, hi uint64) {
	prevTerm, _ := r.termAt(prev)
	w := &core.Wire{
		Kind:   KindAppendEntries,
		Term:   r.term,
		Index:  prev,
		TS:     kvstore.Version{TS: prevTerm},
		Commit: r.commitIndex,
	}
	if hi > prev {
		lo, hi := prev-r.base, hi-r.base
		w.Cmds = r.cmds[lo:hi:hi]
		w.Value = r.terms[8*lo : 8*hi : 8*hi]
	}
	r.env.Send(to, w)
}

func (r *Raft) onAppendEntries(from string, m *core.Wire) {
	if m.Term < r.term {
		r.env.Send(from, &core.Wire{Kind: KindAppendResp, Term: r.term, OK: false})
		return
	}
	r.stepDown(m.Term)
	r.leader = from
	r.resetElectionTimer()

	prevIdx := m.Index
	prevTerm := m.TS.TS
	consistent := prevIdx <= r.base // the compacted prefix is committed state
	if !consistent {
		if t, ok := r.termAt(prevIdx); ok && t == prevTerm {
			consistent = true
		}
	}
	if !consistent || len(m.Value) != 8*len(m.Cmds) {
		// Log inconsistency, or a batch whose terms do not cover its
		// commands: ask the leader to back up.
		r.env.Send(from, &core.Wire{
			Kind: KindAppendResp, Term: r.term, OK: false,
			Index: r.commitIndex, // safe hint: everything up to commit matches
		})
		return
	}

	// Skip what the log already holds; from the first new or conflicting
	// entry on, the rest of the batch appends in bulk.
	for i := range m.Cmds {
		idx := prevIdx + uint64(i) + 1
		if idx <= r.base {
			continue // covered by the compacted (committed) prefix
		}
		if idx <= r.lastIndex() {
			if t, _ := r.termAt(idx); t == binary.BigEndian.Uint64(m.Value[8*i:]) {
				continue // already have it
			}
			r.truncate(idx - r.base - 1) // conflict: drop the suffix
		}
		r.cmds = append(r.cmds, m.Cmds[i:]...)
		r.terms = append(r.terms, m.Value[8*i:]...)
		break
	}

	// Commit only up to the last entry verified against this leader
	// (prevIdx + the entries it just sent), never our own log tail: a
	// deposed leader rejoining as follower may still hold an unreplicated
	// suffix, and clamping to lastIndex would commit — apply, and ack via
	// pending[] — entries the cluster never accepted (§5.3's "index of
	// last new entry").
	matchIdx := prevIdx + uint64(len(m.Cmds))
	if m.Commit > r.commitIndex && matchIdx > r.commitIndex {
		r.commitIndex = min(m.Commit, matchIdx)
		r.applyCommitted()
	}
	r.env.Send(from, &core.Wire{Kind: KindAppendResp, Term: r.term, OK: true, Index: matchIdx})
}

func (r *Raft) onAppendResp(from string, m *core.Wire) {
	if m.Term > r.term {
		r.stepDown(m.Term)
		r.leader = ""
		return
	}
	if r.role != leader || m.Term != r.term {
		return
	}
	pr := r.progressOf(from)
	if pr == nil {
		return
	}
	// Any same-term response (OK or not) proves this follower still treats
	// us as the term's leader. Once a quorum of distinct followers has
	// responded since the last renewal, the leader's own lease is fresh
	// again: a majority demonstrably cannot have elected a successor within
	// the window. Heartbeats every heartbeatTicks keep this alive under
	// pure-read load.
	if r.renv != nil {
		r.leaseAcks[from] = true
		if len(r.leaseAcks)+1 >= r.quorum() {
			r.renv.RenewLease()
			for p := range r.leaseAcks {
				delete(r.leaseAcks, p)
			}
		}
	}
	if !m.OK {
		// The hint is the follower's commit index, and everything up to it
		// matches; so does match, since a running follower never drops what
		// it acknowledged. Probe from past both, within the log. A refused
		// probe at match itself means the follower lost its log: it
		// restarted under the same identity from an older snapshot, so match
		// falls back to the hint.
		if pr.probe && pr.paused && pr.sent == pr.match {
			pr.match = min(pr.match, m.Index)
		}
		sent := min(max(m.Index, pr.match, r.base), r.lastIndex())
		if pr.probe && pr.paused && pr.sent == sent {
			return // this probe is outstanding; the heartbeat re-sends it
		}
		pr.sent, pr.probe, pr.paused = sent, true, false
		r.maybeSend(pr)
		return
	}
	pr.match = max(pr.match, m.Index)
	if pr.probe && m.Index >= pr.sent {
		pr.probe, pr.paused = false, false // the probe matched
	}
	pr.sent = max(pr.sent, pr.match)
	r.advanceCommit()
	r.maybeSend(pr) // keep streaming if the follower is behind
}

// advanceCommit commits the highest index replicated on a quorum with an
// entry from the current term (Raft's commitment rule).
func (r *Raft) advanceCommit() {
	for idx := r.lastIndex(); idx > r.commitIndex && idx > r.base; idx-- {
		if t, _ := r.termAt(idx); t != r.term {
			break // only commit current-term entries by counting
		}
		count := 1 // the leader holds its whole log
		for i := range r.prs {
			if r.prs[i].match >= idx {
				count++
			}
		}
		if count >= r.quorum() {
			r.commitIndex = idx
			r.applyCommitted()
			// The commit index piggybacks on the next AppendEntries (batch
			// or heartbeat); followers apply shortly after. Clients are
			// answered from the leader's commit, so this costs no client
			// latency.
			break
		}
	}
}

// applyCommitted applies newly committed entries to the KV store and
// completes pending client commands.
func (r *Raft) applyCommitted() {
	for r.lastApplied < r.commitIndex {
		r.lastApplied++
		e := r.cmdAt(r.lastApplied)
		res := applyCommand(r.env.Store(), e, r.lastApplied)
		if cmd, ok := r.pending[r.lastApplied]; ok {
			delete(r.pending, r.lastApplied)
			if r.pendingAt != nil {
				if at, stamped := r.pendingAt[r.lastApplied]; stamped {
					r.commitLag.RecordSince(at)
					delete(r.pendingAt, r.lastApplied)
				}
			}
			// A pending slot answers only its own command. After a
			// deposition the suffix this leader appended can be truncated
			// and the index re-filled by the new leader's entry; binding
			// that entry's result to the stale pending command would ack a
			// write the cluster never accepted. Silence is correct: the
			// client times out, retries, and the table dedups.
			if cmd.ClientID == e.ClientID && cmd.Seq == e.Seq {
				r.env.Reply(cmd, res)
			}
		}
	}
	r.maybeCompact()
}

// maybeCompact discards the applied log prefix once the log grows past
// compactThreshold, keeping compactKeep entries of margin. The leader only
// compacts below what every follower has acknowledged, so it never needs a
// compacted entry for a live follower; a dead follower recovers through
// state transfer plus snapshot install.
func (r *Raft) maybeCompact() {
	if len(r.cmds) < compactThreshold {
		return
	}
	limit := r.lastApplied
	if r.role == leader {
		for i := range r.prs {
			if r.prs[i].match == 0 {
				return // a follower has acked nothing yet; keep everything
			}
			limit = min(limit, r.prs[i].match)
		}
	}
	if limit <= r.base+compactKeep {
		return
	}
	newBase := limit - compactKeep
	bt, ok := r.termAt(newBase)
	if !ok {
		return
	}
	r.dropPrefix(newBase)
	r.base = newBase
	r.baseTerm = bt
}

// ServeCleanRead implements core.CleanReader: under ReadAnyClean a follower
// answers reads from its own store. A Raft follower's store only ever holds
// committed state — applyCommitted applies nothing past the commit index,
// and recovery restores committed mutations — so every local version is
// clean by construction. The answer may be stale relative to the leader's
// commit frontier; the client's session floor enforces monotonicity, which
// is exactly the relaxation ReadAnyClean advertises.
func (r *Raft) ServeCleanRead(cmd core.Command) bool {
	if cmd.Op != core.OpGet {
		return false
	}
	if r.renv != nil {
		r.renv.CountRead(core.ReadPathReplica)
	}
	r.env.Reply(cmd, readLocal(r.env.Store(), cmd.Key))
	return true
}

// LogLen reports the number of in-memory log entries (observability).
func (r *Raft) LogLen() int { return len(r.cmds) }

// Base reports the compaction base index (observability).
func (r *Raft) Base() uint64 { return r.base }

// SnapshotIndex implements core.Snapshotter.
func (r *Raft) SnapshotIndex() uint64 { return r.lastApplied }

// InstallSnapshot implements core.Snapshotter: the KV state transferred by
// Recipe's recovery covers everything up to index, so the log fast-forwards
// past it. Pending client commands at or below index were answered (or will
// be retried and deduplicated).
func (r *Raft) InstallSnapshot(index uint64) {
	if index <= r.base {
		return
	}
	if index <= r.lastIndex() {
		bt, _ := r.termAt(index)
		r.dropPrefix(index)
		r.baseTerm = bt
	} else {
		r.cmds, r.terms = nil, nil
		r.baseTerm = 0 // unknown; the compacted prefix is trusted
	}
	r.base = index
	if r.commitIndex < index {
		r.commitIndex = index
	}
	if r.lastApplied < index {
		r.lastApplied = index
	}
	for idx := range r.pending {
		if idx <= index {
			delete(r.pending, idx)
		}
	}
	for idx := range r.pendingAt {
		if idx <= index {
			delete(r.pendingAt, idx)
		}
	}
}

// applyCommand executes one committed command against the store. The log
// index doubles as the version timestamp, preserving total order.
func applyCommand(store *kvstore.Store, cmd core.Command, idx uint64) core.Result {
	switch cmd.Op {
	case 0:
		// Term-start no-op barrier entries mutate nothing. Only the leader
		// constructs them (no client identity); an Op-0 command arriving
		// from an actual client is malformed, like any unknown op.
		if cmd.ClientID == "" && cmd.ClientAddr == "" {
			return core.Result{OK: true}
		}
		return core.Result{Err: "unknown op"}
	case core.OpPut:
		if err := store.WriteVersioned(cmd.Key, cmd.Value, kvstore.Version{TS: idx}); err != nil {
			return core.Result{Err: err.Error()}
		}
		return core.Result{OK: true, Version: kvstore.Version{TS: idx}}
	case core.OpDelete:
		// Deletes are replicated through the log like writes; the versioned
		// removal leaves a floor so stale writes cannot resurrect the key.
		if err := store.RemoveVersioned(cmd.Key, kvstore.Version{TS: idx}); err != nil {
			return core.Result{Err: err.Error()}
		}
		return core.Result{OK: true, Version: kvstore.Version{TS: idx}}
	case core.OpGet:
		return readLocal(store, cmd.Key)
	default:
		return core.Result{Err: "unknown op"}
	}
}

// readLocal serves a read from the local (integrity-checked) store.
func readLocal(store *kvstore.Store, key string) core.Result {
	v, ver, err := store.GetVersioned(key)
	if err != nil {
		return core.Result{Err: err.Error()}
	}
	return core.Result{OK: true, Value: v, Version: ver}
}
