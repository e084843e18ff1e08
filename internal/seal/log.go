package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"recipe/internal/kvstore"
	"recipe/internal/telemetry"
)

// File format constants. Magic bytes version the on-disk layout; truth about
// chain positions lives in authenticated headers and sealed payloads, never
// in file names (names only order and uniquify).
const (
	segMagic  = "RSEG1\n"
	snapMagic = "RSNP1\n"

	nonceSize     = 12
	segHeaderSize = len(segMagic) + 8 + 32 // magic + base counter + base root

	// maxFrame bounds one sealed record (a mutation plus AEAD overhead); a
	// hostile length prefix cannot make recovery allocate gigabytes.
	maxFrame = 64 << 20
)

// Options tunes a Log. The zero value selects the defaults.
type Options struct {
	// SnapshotEvery is how many appended records arm ShouldSnapshot
	// (default 8192). Smaller values bound WAL replay time at the cost of
	// more frequent full-state dumps.
	SnapshotEvery int
	// SegmentBytes rotates the active WAL segment once it exceeds this many
	// bytes (default 4 MiB).
	SegmentBytes int64
	// Fresh declares the caller expects no prior state (a deliberately wiped
	// home for a brand-new identity, e.g. a retired group id re-created by a
	// grow): an empty directory is then a legitimate fresh start even when
	// the registrar holds a counter. Without it, an empty directory whose
	// identity has registered history is the simplest rollback of all — the
	// host deleted everything — and Recover rejects it as ErrRollback.
	Fresh bool
	// FsyncHist, when non-nil, records the latency of every WAL fsync
	// (both the inline Commit path and the overlapped Sync path). The
	// histogram is nil-safe, so a zero Options disables recording.
	FsyncHist *telemetry.Histogram
}

const (
	defaultSnapshotEvery = 8192
	defaultSegmentBytes  = 4 << 20
)

// Log is one replica's sealed durable store: a chain of encrypted WAL
// segments anchored by an optional snapshot, with freshness registered at a
// Registrar. Safe for concurrent use; Append is designed to run synchronously
// on the store's mutation path (one AEAD seal, one chained hash, one
// buffered file write — fsync is deferred to Commit).
type Log struct {
	mu sync.Mutex
	// snapMu serialises whole snapshots; WriteSnapshot holds mu only for the
	// brief stamp-and-rotate step, so appends keep flowing (into a fresh
	// segment) while the store dump seals and writes.
	snapMu sync.Mutex
	dir    string
	id     string
	aead   cipher.AEAD
	reg    Registrar
	opts   Options

	// Chain position: counter counts sealed records ever appended (across
	// snapshots and resets); root is the running hash chain over their
	// ciphertexts. Valid only once positioned (Recover or Reset ran).
	counter    uint64
	root       [32]byte
	positioned bool
	recovered  bool

	seg      *os.File // active segment (nil until the first append needs it)
	segBytes int64
	segSeq   int // uniquifies file names across generations
	dirty    bool
	closed   bool

	// Overlapped commit (Sync): while an off-lock fsync is in flight, syncing
	// is set and every operation that would close or replace the active
	// segment — rotation, snapshot stamping, Close, Reset, Abandon — waits on
	// syncCond. Appends do NOT wait: writing to a file being fsynced is safe,
	// which is the whole point of the overlap. lastReg tracks the highest
	// counter registered at the registrar, so a Sync that captured an older
	// position than a concurrent commit never registers backwards (registrars
	// enforce monotonicity).
	syncing  bool
	syncCond *sync.Cond
	lastReg  uint64

	sinceSnap int
	chain     [sha256.Size]byte // scratch for chain updates
	encBuf    []byte            // reused plaintext encode buffer
	frameBuf  []byte            // reused frame (len+nonce+ciphertext) buffer
}

// Open prepares a sealed log in dir (created if absent) for the given node
// identity, sealing key (KeyFor), and freshness registrar. The log is not
// yet positioned: call Recover (always — it is a no-op on an empty
// directory) before appending.
func Open(dir string, key []byte, nodeID string, reg Registrar, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o750); err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	if len(key) < 32 {
		return nil, errors.New("seal: sealing key must be at least 32 bytes")
	}
	block, err := aes.NewCipher(key[:32])
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	l := &Log{dir: dir, id: nodeID, aead: aead, reg: reg, opts: opts}
	l.syncCond = sync.NewCond(&l.mu)
	// Resume the file-name sequence past everything that ever existed here:
	// sequence numbers order same-base segments during recovery, so a new
	// file must never sort below a leftover one (a stale empty segment
	// sorting after the live chain would read as a gap).
	for _, pattern := range []string{"wal-*.seg", "snap-*.seal", "snap-*.tmp"} {
		names, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, fmt.Errorf("seal: %w", err)
		}
		for _, name := range names {
			base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
			if i := strings.LastIndex(base, "-"); i >= 0 {
				var seq int
				if _, err := fmt.Sscanf(base[i+1:], "%d", &seq); err == nil && seq > l.segSeq {
					l.segSeq = seq
				}
			}
		}
	}
	return l, nil
}

// Counter returns the current chain position (records sealed so far).
func (l *Log) Counter() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counter
}

// Recovered reports whether Recover replayed existing sealed state.
func (l *Log) Recovered() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovered
}

// resetRoot is the chain anchor after a reset (or a fresh start past a
// previously registered counter): deterministic in the counter so both the
// writer and a later recovery agree on it without trusting the host.
func resetRoot(counter uint64) [32]byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], counter)
	h := sha256.New()
	h.Write([]byte("recipe-seal-reset:"))
	h.Write(buf[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// positionFresh starts a new chain on an empty directory. If the registrar
// already holds a counter for this identity (a previous generation's state
// was wiped — e.g. a retired group id re-created by a grow), the chain
// resumes just past it so monotonicity is preserved.
func (l *Log) positionFresh() error {
	l.counter, l.root = 0, [32]byte{}
	if l.reg != nil {
		if c, _, ok := l.reg.SealRoot(l.id); ok {
			l.counter = c + 1
			l.root = resetRoot(l.counter)
			if err := l.reg.RegisterSealRoot(l.id, l.counter, l.root); err != nil {
				return fmt.Errorf("seal: register fresh chain: %w", err)
			}
			l.lastReg = l.counter
		}
	}
	l.positioned = true
	l.recovered = false
	l.sinceSnap = 0
	return nil
}

// Recover scans, verifies, and replays the directory's sealed state,
// positioning the log at the end of the chain. The apply callback receives
// every recovered mutation in commit order (snapshot first, then the WAL
// suffix). Verification and replay share one pass: on a rejected recovery
// the callback may already have applied a prefix, so the caller must
// discard the partial state (core wipes the store) before falling back. On
// an empty directory Recover positions a fresh chain and returns
// (false, nil).
//
// A wrapped ErrRollback or ErrTampered return means the host served stale,
// forked, or modified state: the caller should count the event, call Reset,
// and rebuild through state transfer.
func (l *Log) Recover(apply func(kvstore.Mutation) error) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.positioned {
		return l.recovered, nil
	}
	snap, segs, err := l.scanLocked()
	if err != nil {
		return false, err
	}
	if snap == nil && len(segs) == 0 {
		if !l.opts.Fresh && l.reg != nil {
			if c, _, ok := l.reg.SealRoot(l.id); ok && c > 0 {
				// Registered history exists but the directory is empty: the
				// host rolled the replica back to genesis by deleting its
				// sealed state. Reject distinguishably, like any rollback.
				return false, fmt.Errorf("%w: sealed directory is empty but counter %d is registered", ErrRollback, c)
			}
		}
		return false, l.positionFresh()
	}
	end, endRoot, err := l.walkLocked(snap, segs, apply)
	if err != nil {
		return false, err
	}
	l.counter, l.root = end, endRoot
	l.positioned, l.recovered = true, true
	l.sinceSnap = int(end - snapCounterOf(snap))
	return true, nil
}

// Reset abandons the directory's sealed state: every file is deleted and the
// chain restarts just past the registered counter, so the registrar's
// monotonicity holds across the reset. Used after a rejected recovery, before
// rebuilding through state transfer; the caller should write a snapshot once
// rebuilt, anchoring the new chain (until then, a crash simply repeats the
// state-transfer fallback).
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitSyncLocked()
	if l.seg != nil {
		_ = l.seg.Close()
		l.seg = nil
	}
	for _, pattern := range []string{"wal-*.seg", "snap-*.seal", "snap-*.tmp"} {
		names, err := filepath.Glob(filepath.Join(l.dir, pattern))
		if err != nil {
			return fmt.Errorf("seal: reset: %w", err)
		}
		for _, name := range names {
			if err := os.Remove(name); err != nil {
				return fmt.Errorf("seal: reset: %w", err)
			}
		}
	}
	l.dirty = false
	return l.positionFresh()
}

// Append seals one mutation and appends it to the active segment. The write
// reaches the file immediately (one write syscall); durability against power
// loss is established by the next Commit.
func (l *Log) Append(m kvstore.Mutation) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("seal: log closed")
	}
	if !l.positioned {
		return ErrNotPositioned
	}
	if l.seg == nil {
		if err := l.openSegmentLocked(); err != nil {
			return err
		}
	}

	if n := mutationSize(m); cap(l.encBuf) < n {
		l.encBuf = make([]byte, 0, n)
	}
	l.encBuf = appendMutation(l.encBuf[:0], m)

	next := l.counter + 1
	need := 4 + nonceSize + len(l.encBuf) + l.aead.Overhead()
	if cap(l.frameBuf) < need {
		l.frameBuf = make([]byte, 0, need)
	}
	frame := l.frameBuf[:4+nonceSize]
	if _, err := io.ReadFull(rand.Reader, frame[4:4+nonceSize]); err != nil {
		return fmt.Errorf("seal: nonce: %w", err)
	}
	var aad [8]byte
	binary.BigEndian.PutUint64(aad[:], next)
	frame = l.aead.Seal(frame, frame[4:4+nonceSize], l.encBuf, aad[:])
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	l.frameBuf = frame

	if _, err := l.seg.Write(frame); err != nil {
		return fmt.Errorf("seal: append: %w", err)
	}
	l.segBytes += int64(len(frame))
	l.counter = next
	l.root = chainNext(l.root, frame[4:])
	l.dirty = true
	l.sinceSnap++
	return nil
}

// chainNext advances the chain hash over one sealed record (nonce +
// ciphertext, as laid out in the frame).
func chainNext(root [32]byte, sealed []byte) [32]byte {
	h := sha256.New()
	h.Write(root[:])
	h.Write(sealed)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Commit makes everything appended so far durable (fsync) and registers the
// chain position at the registrar, holding the log's lock throughout (Sync
// is the overlapped variant the node's commit stage uses). A clean log is a
// no-op.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	l.waitSyncLocked()
	if !l.dirty || l.seg == nil {
		return nil
	}
	fsyncStart := time.Now()
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("seal: commit: %w", err)
	}
	l.opts.FsyncHist.RecordSince(fsyncStart)
	l.dirty = false
	if err := l.registerLocked(l.counter, l.root); err != nil {
		return err
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("seal: rotate: %w", err)
		}
		l.seg = nil // next Append opens a fresh segment at the current position
	}
	return nil
}

// waitSyncLocked blocks (releasing l.mu) until no overlapped Sync fsync is
// in flight. Every path that closes or replaces the active segment must call
// it first — fsyncing a closed file descriptor is an error.
func (l *Log) waitSyncLocked() {
	for l.syncing {
		l.syncCond.Wait()
	}
}

// registerLocked anchors a chain position at the registrar, skipping
// positions at or below the last registration (registrars are monotonic, and
// an overlapped Sync may finish after a newer locked commit already
// registered past its capture).
func (l *Log) registerLocked(counter uint64, root [32]byte) error {
	if l.reg == nil || counter <= l.lastReg {
		return nil
	}
	if err := l.reg.RegisterSealRoot(l.id, counter, root); err != nil {
		return fmt.Errorf("seal: register: %w", err)
	}
	l.lastReg = counter
	return nil
}

// Sync is the overlapped group commit: it makes every record appended before
// the call durable and registers the covered chain position, holding the
// log's lock only to capture and publish state — the fsync itself runs
// off-lock, so appends keep flowing into the segment while the disk works.
// The node's commit stage calls it from a dedicated goroutine; Commit keeps
// the fully-locked semantics. Records appended while the fsync is in flight
// stay dirty and are covered by the next Sync or Commit.
func (l *Log) Sync() error {
	l.mu.Lock()
	l.waitSyncLocked()
	if l.closed || !l.dirty || l.seg == nil {
		l.mu.Unlock()
		return nil
	}
	seg, counter, root := l.seg, l.counter, l.root
	l.syncing = true
	l.mu.Unlock()

	fsyncStart := time.Now()
	err := seg.Sync()
	if err == nil {
		l.opts.FsyncHist.RecordSince(fsyncStart)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	l.syncCond.Broadcast()
	if err != nil {
		return fmt.Errorf("seal: sync: %w", err)
	}
	if l.counter == counter {
		l.dirty = false // nothing appended during the fsync: fully durable
	}
	if err := l.registerLocked(counter, root); err != nil {
		return err
	}
	if !l.dirty && l.seg == seg && l.segBytes >= l.opts.SegmentBytes {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("seal: rotate: %w", err)
		}
		l.seg = nil
	}
	return nil
}

// ShouldSnapshot reports whether enough records accumulated since the last
// snapshot to warrant a checkpoint.
func (l *Log) ShouldSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.positioned && l.sinceSnap >= l.opts.SnapshotEvery
}

// WriteSnapshot checkpoints the store: dump must emit the store's complete
// state (kvstore.Store.Dump); a dump error (e.g. the enclave crashed mid-
// checkpoint) aborts the snapshot with nothing pruned — a partial snapshot
// must never replace the WAL behind it. The chain is committed first (so
// the position the snapshot covers is registered), the state is sealed as
// one blob stamped with that position, written atomically, and exactly the
// files that existed at the stamp are pruned. Recovery then starts from
// this snapshot instead of replaying history.
//
// Only the stamp-and-rotate step holds the log's lock: the dump, seal, and
// file I/O run with appends flowing into a fresh segment, so a large
// checkpoint does not stall the apply path. Mutations sealed while the dump
// runs may appear in both the snapshot and the post-stamp segments; replay
// applies them in order, which converges (versioned writes are monotone,
// unversioned replay is last-write-wins in log order).
func (l *Log) WriteSnapshot(dump func(emit func(kvstore.Mutation) bool) error) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("seal: log closed")
	}
	if !l.positioned {
		l.mu.Unlock()
		return ErrNotPositioned
	}
	if err := l.commitLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	snapC, snapRoot := l.counter, l.root
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("seal: snapshot: %w", err)
		}
		l.seg = nil // appends continue in a fresh segment chained at the stamp
	}
	// Capture the covered files under the lock: every record they hold is at
	// or below the stamp, and any segment a concurrent append creates from
	// here on is NOT in the list and survives the prune.
	var covered []string
	for _, pattern := range []string{"wal-*.seg", "snap-*.seal", "snap-*.tmp"} {
		names, _ := filepath.Glob(filepath.Join(l.dir, pattern))
		covered = append(covered, names...)
	}
	l.segSeq++
	seq := l.segSeq
	l.mu.Unlock()

	plain := make([]byte, 0, 1<<16)
	plain = binary.BigEndian.AppendUint64(plain, snapC)
	plain = append(plain, snapRoot[:]...)
	plain = binary.BigEndian.AppendUint32(plain, 0) // count, patched below
	count := uint32(0)
	if err := dump(func(m kvstore.Mutation) bool {
		plain = appendMutation(plain, m)
		count++
		return true
	}); err != nil {
		return fmt.Errorf("seal: snapshot dump: %w", err)
	}
	binary.BigEndian.PutUint32(plain[8+32:], count)

	out := make([]byte, 0, len(snapMagic)+nonceSize+len(plain)+l.aead.Overhead())
	out = append(out, snapMagic...)
	nonce := out[len(snapMagic) : len(snapMagic)+nonceSize]
	if _, err := io.ReadFull(rand.Reader, nonce[:nonceSize]); err != nil {
		return fmt.Errorf("seal: snapshot nonce: %w", err)
	}
	out = out[:len(snapMagic)+nonceSize]
	out = l.aead.Seal(out, out[len(snapMagic):], plain, []byte("snapshot"))

	tmp := filepath.Join(l.dir, fmt.Sprintf("snap-%016x-%08d.tmp", snapC, seq))
	final := strings.TrimSuffix(tmp, ".tmp") + ".seal"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o640)
	if err != nil {
		return fmt.Errorf("seal: snapshot: %w", err)
	}
	if _, err := f.Write(out); err != nil {
		_ = f.Close()
		return fmt.Errorf("seal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("seal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("seal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("seal: snapshot: %w", err)
	}
	// The rename must be durable before anything it subsumes is pruned — a
	// power loss must never find the segments gone and the snapshot missing.
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// Prune exactly what existed at the stamp. A crash mid-prune leaves only
	// fully-covered files, which recovery skips.
	for _, name := range covered {
		_ = os.Remove(name)
	}
	l.mu.Lock()
	l.sinceSnap = int(l.counter - snapC)
	l.mu.Unlock()
	return nil
}

// Close commits outstanding appends and releases the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.commitLocked()
	if l.seg != nil {
		if cerr := l.seg.Close(); err == nil {
			err = cerr
		}
		l.seg = nil
	}
	return err
}

// Abandon releases the log WITHOUT committing or registering the tail — the
// crash path. Appends since the last Commit stay unfsynced and unregistered,
// exactly as a power loss would leave them, so crash tests exercise the real
// recovery semantics instead of an orderly shutdown's.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitSyncLocked()
	if l.closed {
		return
	}
	l.closed = true
	l.dirty = false
	if l.seg != nil {
		_ = l.seg.Close()
		l.seg = nil
	}
}

// openSegmentLocked starts a fresh segment at the current chain position.
// The directory entry is fsynced immediately: once Commit registers records
// of this segment at the registrar, recovery depends on the file existing —
// a power loss must not be able to drop it while keeping the registration.
func (l *Log) openSegmentLocked() error {
	l.segSeq++
	name := filepath.Join(l.dir, fmt.Sprintf("wal-%016x-%08d.seg", l.counter, l.segSeq))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o640)
	if err != nil {
		return fmt.Errorf("seal: segment: %w", err)
	}
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, l.counter)
	hdr = append(hdr, l.root[:]...)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		return fmt.Errorf("seal: segment header: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		_ = f.Close()
		return err
	}
	l.seg = f
	l.segBytes = int64(len(hdr))
	return nil
}

// syncDir fsyncs a directory so entry creations/renames are crash-durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seal: sync dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("seal: sync dir: %w", err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("seal: sync dir: %w", err)
	}
	return nil
}
