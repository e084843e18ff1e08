package abd

import (
	"encoding/binary"

	"recipe/internal/core"
	"recipe/internal/kvstore"
)

// Message kinds.
const (
	// KindTSRead asks a replica for its timestamp for a key (write phase 1).
	KindTSRead = core.KindProtocolBase + iota
	// KindTSResp returns the replica's timestamp.
	KindTSResp
	// KindWrite installs (key, value, ts) at a replica (write phase 2).
	KindWrite
	// KindWriteAck acknowledges a KindWrite.
	KindWriteAck
	// KindRead asks a replica for (value, ts) (read phase 1).
	KindRead
	// KindReadResp returns the replica's (value, ts).
	KindReadResp
	// KindDelete removes a key at a replica (delete phase 2; acknowledged
	// with KindWriteAck like a write).
	KindDelete
)

// opTimeoutTicks aborts coordinator operations that never reach quorum
// (e.g. under partitions); the client will retry.
const opTimeoutTicks = 100

// phase of an in-flight coordinated operation.
type phase int

const (
	phaseTSRead phase = iota + 1
	phaseWrite
	phaseRead
	phaseReadBack
)

// op is one operation this node coordinates.
type op struct {
	cmd     core.Command
	ph      phase
	acks    int
	highest kvstore.Version
	value   []byte
	// tombstone marks that the quorum-highest state at `highest` is a
	// deletion, not a value.
	tombstone bool
	age       int
}

// ABD is one replica. All methods run on the node event loop.
type ABD struct {
	env core.Env
	// renv is the optional read-path extension (nil with plain Envs). Under
	// ReadAnyClean a replica answers reads from its local register state
	// without the quorum round — the "regular register" relaxation: a read
	// may miss a concurrent write, but every value served was installed by
	// a completed (or in-progress) quorum write, and the client's session
	// floor keeps its own reads monotonic.
	renv     core.ReadEnv
	id       string
	peers    []string
	writerID uint64

	// tomb records deletions as versioned tombstones. Erasing a register's
	// timestamp history would let a replica that missed the delete resurrect
	// the old value (its stale version would win future timestamp reads), so
	// absence keeps a version: writes below a tombstone are ignored, reads
	// treat the tombstone as the register's state. Entries persist for the
	// replica's lifetime (bounded by the number of distinct deleted keys).
	tomb map[string]kvstore.Version

	nextOp uint64
	ops    map[uint64]*op
}

var _ core.Protocol = (*ABD)(nil)

// New creates an ABD instance.
func New() *ABD {
	return &ABD{ops: make(map[uint64]*op), tomb: make(map[string]kvstore.Version)}
}

// Name implements core.Protocol.
func (a *ABD) Name() string { return "abd" }

// Init implements core.Protocol.
func (a *ABD) Init(env core.Env) {
	a.env = env
	a.renv, _ = env.(core.ReadEnv)
	a.id = env.ID()
	a.peers = env.Peers()
	for i, p := range a.peers {
		if p == a.id {
			a.writerID = uint64(i + 1) // stable unique writer id for TS tiebreaks
		}
	}
}

// Status implements core.Protocol: leaderless, any node coordinates.
func (a *ABD) Status() core.Status {
	return core.Status{IsCoordinator: true}
}

// quorum is a majority of all replicas.
func (a *ABD) quorum() int { return len(a.peers)/2 + 1 }

// Submit implements core.Protocol.
func (a *ABD) Submit(cmd core.Command) {
	a.nextOp++
	id := a.nextOp
	switch cmd.Op {
	case core.OpPut, core.OpDelete:
		// Deletes follow the write rounds: read the timestamp quorum, then
		// install a tombstone with a higher timestamp at a majority.
		o := &op{cmd: cmd, ph: phaseTSRead, acks: 1} // count self
		o.highest, _ = a.localVersion(cmd.Key)
		a.ops[id] = o
		a.env.Broadcast(&core.Wire{Kind: KindTSRead, Index: id, Key: cmd.Key})
		a.maybeAdvance(id)
	case core.OpGet:
		if a.renv != nil && a.renv.ReadPolicy() == core.ReadAnyClean {
			a.nextOp-- // no quorum op was started
			a.serveLocalRead(cmd)
			return
		}
		o := &op{cmd: cmd, ph: phaseRead, acks: 1}
		if v, ver, err := a.env.Store().GetVersioned(cmd.Key); err == nil {
			o.value, o.highest = v, ver
		}
		if t, ok := a.tomb[cmd.Key]; ok && o.highest.Less(t) {
			o.value, o.highest, o.tombstone = nil, t, true
		}
		a.ops[id] = o
		a.env.Broadcast(&core.Wire{Kind: KindRead, Index: id, Key: cmd.Key})
		a.maybeAdvance(id)
	default:
		a.env.Reply(cmd, core.Result{Err: "unknown op"})
	}
}

// serveLocalRead answers a read from this replica's own register state
// (ReadAnyClean): the stored value unless a tombstone at or above it says
// the register was deleted.
func (a *ABD) serveLocalRead(cmd core.Command) {
	a.renv.CountRead(core.ReadPathReplica)
	v, ver, err := a.env.Store().GetVersioned(cmd.Key)
	if t, ok := a.tomb[cmd.Key]; ok && (err != nil || ver.Less(t)) {
		a.env.Reply(cmd, core.Result{Err: kvstore.ErrNotFound.Error()})
		return
	}
	if err != nil {
		a.env.Reply(cmd, core.Result{Err: err.Error()})
		return
	}
	a.env.Reply(cmd, core.Result{OK: true, Value: v, Version: ver})
}

// localVersion returns this replica's highest known version for key across
// the store and the tombstone table, and whether it is a tombstone.
func (a *ABD) localVersion(key string) (kvstore.Version, bool) {
	var ver kvstore.Version
	if v, err := a.env.Store().VersionOf(key); err == nil {
		ver = v
	}
	if t, ok := a.tomb[key]; ok && ver.Less(t) {
		return t, true
	}
	return ver, false
}

// applyWrite installs (value, ts) unless a tombstone at or above ts says the
// register was deleted later; a write above the tombstone resurrects the key.
func (a *ABD) applyWrite(key string, value []byte, ts kvstore.Version) {
	if t, ok := a.tomb[key]; ok {
		if !t.Less(ts) {
			return // deleted at or after ts: the tombstone wins
		}
		delete(a.tomb, key)
	}
	_ = a.env.Store().WriteVersioned(key, value, ts)
}

// applyDelete installs a tombstone at ts and removes any value it covers
// (the store keeps a matching version floor).
func (a *ABD) applyDelete(key string, ts kvstore.Version) {
	if t, ok := a.tomb[key]; !ok || t.Less(ts) {
		a.tomb[key] = ts
	}
	_ = a.env.Store().RemoveVersioned(key, ts)
}

// Handle implements core.Protocol.
func (a *ABD) Handle(from string, m *core.Wire) {
	switch m.Kind {
	case KindTSRead:
		ts, _ := a.localVersion(m.Key)
		a.env.Send(from, &core.Wire{Kind: KindTSResp, Index: m.Index, Key: m.Key, TS: ts})

	case KindTSResp:
		o := a.ops[m.Index]
		if o == nil || o.ph != phaseTSRead {
			return
		}
		o.acks++
		if o.highest.Less(m.TS) {
			o.highest = m.TS
		}
		a.maybeAdvance(m.Index)

	case KindWrite:
		// Stale writes are fine: a newer version (or tombstone) wins.
		a.applyWrite(m.Key, m.Value, m.TS)
		a.env.Send(from, &core.Wire{Kind: KindWriteAck, Index: m.Index, Key: m.Key})

	case KindDelete:
		a.applyDelete(m.Key, m.TS)
		a.env.Send(from, &core.Wire{Kind: KindWriteAck, Index: m.Index, Key: m.Key})

	case KindWriteAck:
		o := a.ops[m.Index]
		if o == nil || (o.ph != phaseWrite && o.ph != phaseReadBack) {
			return
		}
		o.acks++
		a.maybeAdvance(m.Index)

	case KindRead:
		w := &core.Wire{Kind: KindReadResp, Index: m.Index, Key: m.Key}
		if v, ver, err := a.env.Store().GetVersioned(m.Key); err == nil {
			w.Value, w.TS, w.OK = v, ver, true
		}
		if t, ok := a.tomb[m.Key]; ok && w.TS.Less(t) {
			// Deleted at t: absence is the register's state, reported with
			// its version (OK stays false, TS carries the tombstone).
			w.Value, w.TS, w.OK = nil, t, false
		}
		a.env.Send(from, w)

	case KindReadResp:
		o := a.ops[m.Index]
		if o == nil || o.ph != phaseRead {
			return
		}
		o.acks++
		if o.highest.Less(m.TS) {
			// A !OK response with a version is a tombstone: deletion is a
			// register state and competes by timestamp like any write.
			o.highest, o.value, o.tombstone = m.TS, m.Value, !m.OK
		}
		a.maybeAdvance(m.Index)
	}
}

// maybeAdvance moves an operation forward once it has a quorum.
func (a *ABD) maybeAdvance(id uint64) {
	o := a.ops[id]
	if o == nil || o.acks < a.quorum() {
		return
	}
	switch o.ph {
	case phaseTSRead:
		// Phase 2: write (or tombstone) with a strictly higher timestamp.
		ts := kvstore.Version{TS: o.highest.TS + 1, Writer: a.writerID}
		o.ph, o.acks, o.highest = phaseWrite, 1, ts
		if o.cmd.Op == core.OpDelete {
			a.applyDelete(o.cmd.Key, ts)
			a.env.Broadcast(&core.Wire{Kind: KindDelete, Index: id, Key: o.cmd.Key, TS: ts})
		} else {
			a.applyWrite(o.cmd.Key, o.cmd.Value, ts)
			a.env.Broadcast(&core.Wire{Kind: KindWrite, Index: id, Key: o.cmd.Key, Value: o.cmd.Value, TS: ts})
		}
		a.maybeAdvance(id)

	case phaseWrite:
		delete(a.ops, id)
		a.env.Reply(o.cmd, core.Result{OK: true, Version: o.highest})

	case phaseRead:
		if o.value == nil && o.highest == (kvstore.Version{}) {
			delete(a.ops, id)
			a.env.Reply(o.cmd, core.Result{Err: kvstore.ErrNotFound.Error()})
			return
		}
		// Write-back round preserves linearizability when replicas disagree;
		// ABD's optimisation: skip it when this replica already holds the
		// quorum-highest state (the common, conflict-free case). A tombstone
		// is a register state like any other and is written back the same
		// way, so an observed deletion is stable at a quorum before the
		// not-found answer is given.
		lv, localTomb := a.localVersion(o.cmd.Key)
		if !lv.Less(o.highest) && localTomb == o.tombstone {
			delete(a.ops, id)
			a.env.Reply(o.cmd, a.readResult(o))
			return
		}
		o.ph, o.acks = phaseReadBack, 1
		if o.tombstone {
			a.applyDelete(o.cmd.Key, o.highest)
			a.env.Broadcast(&core.Wire{Kind: KindDelete, Index: id, Key: o.cmd.Key, TS: o.highest})
		} else {
			a.applyWrite(o.cmd.Key, o.value, o.highest)
			a.env.Broadcast(&core.Wire{Kind: KindWrite, Index: id, Key: o.cmd.Key, Value: o.value, TS: o.highest})
		}
		a.maybeAdvance(id)

	case phaseReadBack:
		delete(a.ops, id)
		a.env.Reply(o.cmd, a.readResult(o))
	}
}

// readResult materialises a read outcome: a winning tombstone reads as
// not-found, anything else as the value at its version.
func (a *ABD) readResult(o *op) core.Result {
	if o.tombstone {
		return core.Result{Err: kvstore.ErrNotFound.Error()}
	}
	return core.Result{OK: true, Value: o.value, Version: o.highest}
}

// ExportSidecar implements core.StateSidecar: tombstones travel with state
// transfer so a recovered replica cannot help resurrect a committed delete.
func (a *ABD) ExportSidecar() []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(a.tomb)))
	for key, ts := range a.tomb {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		buf = binary.BigEndian.AppendUint64(buf, ts.TS)
		buf = binary.BigEndian.AppendUint64(buf, ts.Writer)
	}
	return buf
}

// ImportSidecar implements core.StateSidecar: the donor's tombstones merge
// into this replica's (higher versions win; malformed input is discarded —
// the transfer channel is already authenticated).
func (a *ABD) ImportSidecar(data []byte) {
	pos := 0
	u32 := func() (uint32, bool) {
		if pos+4 > len(data) {
			return 0, false
		}
		v := binary.BigEndian.Uint32(data[pos:])
		pos += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if pos+8 > len(data) {
			return 0, false
		}
		v := binary.BigEndian.Uint64(data[pos:])
		pos += 8
		return v, true
	}
	n, ok := u32()
	if !ok {
		return
	}
	for i := uint32(0); i < n; i++ {
		klen, ok := u32()
		if !ok || pos+int(klen) > len(data) {
			return
		}
		key := string(data[pos : pos+int(klen)])
		pos += int(klen)
		ts, ok1 := u64()
		writer, ok2 := u64()
		if !ok1 || !ok2 {
			return
		}
		a.applyDelete(key, kvstore.Version{TS: ts, Writer: writer})
	}
}

// Tick implements core.Protocol: it ages out operations that cannot reach
// quorum so their clients fail fast and retry.
func (a *ABD) Tick() {
	for id, o := range a.ops {
		o.age++
		if o.age >= opTimeoutTicks {
			delete(a.ops, id)
			a.env.Reply(o.cmd, core.Result{Err: core.ErrQuorumTimeout.Error()})
		}
	}
}
