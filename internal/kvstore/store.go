package kvstore

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"

	"recipe/internal/tee"
)

// Store errors.
var (
	// ErrNotFound is returned when a key does not exist.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrIntegrity is returned when a value read from host memory does not
	// match the enclave-resident check — the value's hash, or in
	// confidential mode its GCM tag (Byzantine host detected).
	ErrIntegrity = errors.New("kvstore: integrity verification failed")
	// ErrStaleVersion is returned by WriteVersioned when the store already
	// holds a newer version for the key.
	ErrStaleVersion = errors.New("kvstore: stale version")
)

// Mutation is one logical state change applied to a Store: a write or a
// delete, versioned or not. It is the unit the durability layer persists —
// the mutation sink observes every successful mutation, and replaying the
// recorded sequence through Restore reproduces the store's state.
//
// Value aliases the caller's buffer for the duration of the sink callback
// only; a sink that retains it must copy.
type Mutation struct {
	// Del marks a delete (Value is nil).
	Del bool
	// Versioned marks mutations that carry a meaningful Version (the
	// WriteVersioned/RemoveVersioned paths; deletes leave a version floor).
	Versioned bool
	Key       string
	Value     []byte
	Version   Version
}

// Store is Recipe's per-node KV store: an enclave-resident index over
// host-resident values. Each index entry keeps what authenticates its value:
// the SHA-256 of the value, or in confidential mode the 16-byte GCM tag of
// the sealed value, which Open would verify anyway — comparing it first
// also pins the entry to the one ciphertext written last.
type Store struct {
	enclave *tee.Enclave
	index   *skiplist
	arena   *hostArena
	aead    cipher.AEAD // non-nil in confidential mode

	// sink, when set, observes every successful mutation (the durability
	// hook: core wires the sealed WAL here). Loaded atomically so installing
	// it does not contend with the data path; nil costs one predictable
	// branch per mutation.
	sink atomic.Pointer[func(Mutation)]

	// tombs records deletion floors: RemoveVersioned(key, v) remembers v so
	// a later WriteVersioned at or below it is rejected as stale. Without
	// the floor, deleting a key erases its version history, and a stale
	// write (a replayed replication message, an in-flight recovery page)
	// would resurrect the deleted value. A floor is cleared by the first
	// write above it; floors for never-rewritten keys persist (bounded by
	// the number of distinct deleted keys).
	tombMu sync.Mutex
	tombs  map[string]Version
}

// Config parameterises a Store.
type Config struct {
	// HostMemLimit caps host-memory usage in bytes (0 = unlimited).
	HostMemLimit int64
	// Confidential encrypts values before they leave the enclave.
	Confidential bool
	// Seed makes skip-list tower heights deterministic in tests.
	Seed int64
}

// Open initialises the store (the paper's init_store()). In confidential
// mode a value-encryption key is derived inside the enclave.
func Open(e *tee.Enclave, cfg Config) (*Store, error) {
	s := &Store{
		enclave: e,
		index:   newSkiplist(cfg.Seed),
		arena:   newHostArena(cfg.HostMemLimit),
		tombs:   make(map[string]Version),
	}
	if cfg.Confidential {
		key, err := e.DeriveKey("kv-value-encryption")
		if err != nil {
			return nil, fmt.Errorf("init store: %w", err)
		}
		block, err := aes.NewCipher(key[:16])
		if err != nil {
			return nil, fmt.Errorf("init store: %w", err)
		}
		s.aead, err = cipher.NewGCM(block)
		if err != nil {
			return nil, fmt.Errorf("init store: %w", err)
		}
	}
	return s, nil
}

// Confidential reports whether values are encrypted at rest.
func (s *Store) Confidential() bool { return s.aead != nil }

// SetMutationSink installs fn as the store's mutation observer: it is called
// synchronously after every successful Write/WriteVersioned/Delete/Remove/
// RemoveVersioned, with the plaintext value (before any at-rest encryption),
// and once per key a DropIf sweep affects (as unversioned deletes, so a
// replayed log re-drops swept entries and floors). The durability layer
// appends these to the sealed WAL. Restore goes through the ordinary paths
// and so must run before the sink is installed. Install the sink before
// concurrent mutators start; passing nil uninstalls it.
func (s *Store) SetMutationSink(fn func(Mutation)) {
	if fn == nil {
		s.sink.Store(nil)
		return
	}
	s.sink.Store(&fn)
}

// report hands a successful mutation to the sink, if one is installed.
func (s *Store) report(m Mutation) {
	if fn := s.sink.Load(); fn != nil {
		(*fn)(m)
	}
}

// Write stores value under key unconditionally, assigning no meaningful
// version (protocols with their own ordering use WriteVersioned).
func (s *Store) Write(key string, value []byte) error {
	return s.write(key, value, Version{}, false)
}

// WriteVersioned stores value only if v is not older than the stored
// version; per-key-ordered protocols (ABD, CR) rely on this to make
// out-of-order application safe.
func (s *Store) WriteVersioned(key string, value []byte, v Version) error {
	return s.write(key, value, v, true)
}

func (s *Store) write(key string, value []byte, v Version, versioned bool) error {
	if s.enclave.Crashed() {
		return tee.ErrEnclaveCrashed
	}
	if versioned {
		s.tombMu.Lock()
		floor, deleted := s.tombs[key]
		s.tombMu.Unlock()
		if deleted && !floor.Less(v) {
			return fmt.Errorf("%w: key %q deleted at %v, write carries %v", ErrStaleVersion, key, floor, v)
		}
		if prev, ok := s.index.get(key); ok && v.Less(prev.version) {
			return fmt.Errorf("%w: key %q has %v, write carries %v", ErrStaleVersion, key, prev.version, v)
		}
	}

	ent := entry{version: v}
	var err error
	if s.aead != nil {
		s.enclave.ChargeConfidential(len(value))
		// One buffer, nonce||ciphertext||tag, sealed in place and handed to
		// the arena as is.
		ns := s.aead.NonceSize()
		buf := make([]byte, ns, ns+len(value)+s.aead.Overhead())
		if _, err := io.ReadFull(rand.Reader, buf); err != nil {
			return fmt.Errorf("kv write: nonce: %w", err)
		}
		sealed := s.aead.Seal(buf, buf, value, keyBytes(key))
		copy(ent.check[:], sealed[len(sealed)-tagLen:])
		ent.size = len(sealed)
		// Crossing the enclave boundary to place the value in host memory.
		s.enclave.ChargeTransition()
		ent.handle, err = s.arena.adopt(sealed)
	} else {
		ent.check = sha256.Sum256(value)
		ent.size = len(value)
		s.enclave.ChargeTransition()
		ent.handle, err = s.arena.alloc(value)
	}
	if err != nil {
		return fmt.Errorf("kv write %q: %w", key, err)
	}

	prev, existed := s.index.set(key, ent)
	if existed {
		s.arena.release(prev.handle)
		s.enclave.ChargeResident(-s.metaSize(key))
	}
	s.enclave.ChargeResident(s.metaSize(key))
	if versioned {
		// The write landed above the floor: the key is resurrected. Cleared
		// only after success — a failed write must leave the floor standing,
		// or a stale replay could resurrect the committed delete.
		s.tombMu.Lock()
		delete(s.tombs, key)
		s.tombMu.Unlock()
	}
	s.report(Mutation{Key: key, Value: value, Version: v, Versioned: versioned})
	return nil
}

// Get copies the value for key into the protected area, verifying its
// integrity against the enclave-resident hash or tag (the paper's
// get(key, &v_TEE)).
// This is what makes single-replica local reads trustworthy.
func (s *Store) Get(key string) ([]byte, error) {
	v, _, err := s.GetVersioned(key)
	return v, err
}

// GetVersioned additionally returns the stored version.
func (s *Store) GetVersioned(key string) ([]byte, Version, error) {
	if s.enclave.Crashed() {
		return nil, Version{}, tee.ErrEnclaveCrashed
	}
	ent, ok := s.index.get(key)
	if !ok {
		return nil, Version{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.enclave.ChargeTransition()
	raw, err := s.arena.read(ent.handle)
	if err != nil {
		return nil, Version{}, fmt.Errorf("%w: %q: %v", ErrIntegrity, key, err)
	}
	if s.aead != nil {
		// The stored tag goes first: an older ciphertext of this key would
		// Open fine, but it does not carry the tag of the last write.
		ns := s.aead.NonceSize()
		if len(raw) < ns+tagLen {
			return nil, Version{}, fmt.Errorf("%w: %q: short ciphertext", ErrIntegrity, key)
		}
		if subtle.ConstantTimeCompare(raw[len(raw)-tagLen:], ent.check[:tagLen]) != 1 {
			return nil, Version{}, fmt.Errorf("%w: %q", ErrIntegrity, key)
		}
		s.enclave.ChargeConfidential(len(raw))
		plain, err := s.aead.Open(nil, raw[:ns], raw[ns:], keyBytes(key))
		if err != nil {
			return nil, Version{}, fmt.Errorf("%w: %q: %v", ErrIntegrity, key, err)
		}
		return plain, ent.version, nil
	}
	if sha256.Sum256(raw) != ent.check {
		return nil, Version{}, fmt.Errorf("%w: %q", ErrIntegrity, key)
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, ent.version, nil
}

// VersionOf returns the stored version for key without touching the value
// (ABD's timestamp-read round uses this).
func (s *Store) VersionOf(key string) (Version, error) {
	if s.enclave.Crashed() {
		return Version{}, tee.ErrEnclaveCrashed
	}
	ent, ok := s.index.get(key)
	if !ok {
		return Version{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return ent.version, nil
}

// Delete removes a key.
func (s *Store) Delete(key string) error {
	if err := s.deleteEntry(key); err != nil {
		return err
	}
	s.report(Mutation{Del: true, Key: key})
	return nil
}

// deleteEntry removes the index entry and releases the host value without
// reporting to the mutation sink (callers report once at their own level).
func (s *Store) deleteEntry(key string) error {
	if s.enclave.Crashed() {
		return tee.ErrEnclaveCrashed
	}
	ent, ok := s.index.remove(key)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.arena.release(ent.handle)
	s.enclave.ChargeResident(-s.metaSize(key))
	return nil
}

// Remove is an idempotent unversioned delete: an absent key is already the
// desired state and is not an error, and any standing deletion floor is
// cleared along with the entry — an unversioned delete erases the key's
// whole history, bypassing version checks (it is the configuration-layer
// primitive DropIf and WAL replay build on). Replication protocols should
// use RemoveVersioned so the deletion leaves a version floor instead.
func (s *Store) Remove(key string) error {
	if err := s.deleteEntry(key); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	s.tombMu.Lock()
	delete(s.tombs, key)
	s.tombMu.Unlock()
	s.report(Mutation{Del: true, Key: key})
	return nil
}

// RemoveVersioned is the idempotent delete replication protocols apply: it
// records v as the key's deletion floor — subsequent WriteVersioned calls at
// or below v are rejected as stale, so a replayed or in-flight stale write
// (e.g. a recovery state page racing a live delete) cannot resurrect the
// deleted value — and removes the stored entry unless a strictly newer
// version already landed. Deleting an absent key succeeds.
func (s *Store) RemoveVersioned(key string, v Version) error {
	if s.enclave.Crashed() {
		return tee.ErrEnclaveCrashed
	}
	s.tombMu.Lock()
	if cur, ok := s.tombs[key]; !ok || cur.Less(v) {
		s.tombs[key] = v
	}
	s.tombMu.Unlock()
	if ent, ok := s.index.get(key); ok && !v.Less(ent.version) {
		if err := s.deleteEntry(key); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	s.report(Mutation{Del: true, Versioned: true, Key: key, Version: v})
	return nil
}

// Len returns the number of keys.
func (s *Store) Len() int { return s.index.count() }

// HostBytes returns current host-memory usage.
func (s *Store) HostBytes() int64 { return s.arena.usage() }

// Range visits keys in order from start until fn returns false, without
// reading values (state-transfer enumeration for recovery).
func (s *Store) Range(start string, fn func(key string, v Version) bool) {
	s.index.ascend(start, func(key string, ent entry) bool {
		return fn(key, ent.version)
	})
}

// RangeTombs visits the deletion floors (keys removed via RemoveVersioned
// and not since overwritten by a newer value) until fn returns false, in no
// particular order. State transfer and slot migration ship these so a
// receiver cannot resurrect a committed delete.
func (s *Store) RangeTombs(fn func(key string, v Version) bool) {
	s.tombMu.Lock()
	tombs := make(map[string]Version, len(s.tombs))
	for k, v := range s.tombs {
		tombs[k] = v
	}
	s.tombMu.Unlock()
	for k, v := range tombs {
		if !fn(k, v) {
			return
		}
	}
}

// DropIf removes every entry and tombstone whose key matches, bypassing
// version checks. This is a configuration-layer operation, not a data-path
// one: when a hash slot leaves this replica's group (elastic resharding),
// the slot's entries and floors are no longer this group's state — keeping
// the floors would shadow the key if the slot ever migrates back. Every
// affected key (entry or floor) is reported to the mutation sink as an
// unversioned delete, so a durable replica's WAL replay re-drops them: a
// floor that outlived the sweep in the log would otherwise shadow the
// slot's re-installed keys after a crash. Returns the number of entries
// dropped.
func (s *Store) DropIf(match func(key string) bool) int {
	var victims []string
	s.index.ascend("", func(key string, ent entry) bool {
		if match(key) {
			victims = append(victims, key)
		}
		return true
	})
	affected := make(map[string]bool, len(victims))
	for _, key := range victims {
		if err := s.deleteEntry(key); err == nil || errors.Is(err, ErrNotFound) {
			affected[key] = true
		}
	}
	s.tombMu.Lock()
	for key := range s.tombs {
		if match(key) {
			delete(s.tombs, key)
			affected[key] = true
		}
	}
	s.tombMu.Unlock()
	for key := range affected {
		s.report(Mutation{Del: true, Key: key})
	}
	return len(victims)
}

// Dump enumerates the store's complete durable state as a mutation stream:
// every live entry (plaintext value + version) followed by every deletion
// floor, until fn returns false. Replaying the stream through Restore on an
// empty store reproduces this store's state exactly — it is the snapshot
// emit hook the durability layer seals to disk. Values are integrity-checked
// copies, and any read failure aborts the dump with an error: a crashed
// enclave or a host-corrupted value must fail the checkpoint loudly, never
// produce a silently holed snapshot — a checkpoint that pruned the WAL
// behind a hole would convert detectable corruption into permanent,
// undetectable loss of the record's only authentic copy. (A key deleted
// concurrently with the dump is the one benign absence and is skipped.)
func (s *Store) Dump(fn func(m Mutation) bool) error {
	// Collect keys first: reading values re-enters the index lock, which must
	// not happen while the enumeration holds it (a queued writer would
	// deadlock the recursive read lock).
	keys := make([]string, 0, s.index.count())
	s.index.ascend("", func(key string, ent entry) bool {
		keys = append(keys, key)
		return true
	})
	for _, key := range keys {
		val, ver, err := s.GetVersioned(key)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // deleted while the dump ran
			}
			return fmt.Errorf("dump %q: %w", key, err)
		}
		if !fn(Mutation{Key: key, Value: val, Version: ver, Versioned: true}) {
			return nil
		}
	}
	if s.enclave.Crashed() {
		return tee.ErrEnclaveCrashed
	}
	s.RangeTombs(func(key string, v Version) bool {
		return fn(Mutation{Del: true, Versioned: true, Key: key, Version: v})
	})
	return nil
}

// Restore applies one recovered mutation (from a sealed snapshot or WAL
// record). It is the snapshot/WAL install hook: stale versioned writes are
// tolerated (a fresher mutation already replayed). Restore goes through the
// ordinary mutation paths, so call it before SetMutationSink — recovery
// must not re-log its own input.
func (s *Store) Restore(m Mutation) error {
	var err error
	switch {
	case m.Del && m.Versioned:
		err = s.RemoveVersioned(m.Key, m.Version)
	case m.Del:
		err = s.Remove(m.Key)
	case m.Versioned:
		err = s.WriteVersioned(m.Key, m.Value, m.Version)
	default:
		err = s.Write(m.Key, m.Value)
	}
	if err != nil && !errors.Is(err, ErrStaleVersion) {
		return err
	}
	return nil
}

// CorruptValue is a test hook simulating a Byzantine host flipping a byte of
// the stored value in host memory. It returns false if the key is absent.
func (s *Store) CorruptValue(key string, offset int) bool {
	ent, ok := s.index.get(key)
	if !ok {
		return false
	}
	return s.arena.corrupt(ent.handle, offset)
}

// tagLen is the GCM tag length: the enclave-resident check of a
// confidential value.
const tagLen = 16

// keyBytes views key as the associated data of its value's seal without a
// copy; GCM only reads its additional data.
func keyBytes(key string) []byte {
	return unsafe.Slice(unsafe.StringData(key), len(key))
}

// metaSize approximates the enclave-resident footprint of one index entry:
// the key, its value's check (a 32-byte hash, or a 16-byte GCM tag in
// confidential mode), the version, and the host handle and size.
func (s *Store) metaSize(key string) int {
	check := sha256.Size
	if s.aead != nil {
		check = tagLen
	}
	return len(key) + check + 16 /* version */ + 16 /* handle+size */
}
