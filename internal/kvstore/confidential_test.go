package kvstore

import (
	"bytes"
	"errors"
	"testing"
)

// hostBytes returns a copy of what the arena holds for key: the bytes a
// Byzantine host can read, keep, and put back later.
func hostBytes(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	ent, ok := s.index.get(key)
	if !ok {
		t.Fatalf("%q not in the index", key)
	}
	raw, err := s.arena.read(ent.handle)
	if err != nil {
		t.Fatalf("arena read %q: %v", key, err)
	}
	return bytes.Clone(raw)
}

// swapIn replaces what the arena holds for key with raw, as a host that
// controls its memory can.
func swapIn(t *testing.T, s *Store, key string, raw []byte) {
	t.Helper()
	ent, ok := s.index.get(key)
	if !ok {
		t.Fatalf("%q not in the index", key)
	}
	s.arena.mu.Lock()
	s.arena.slots[ent.handle.slot] = bytes.Clone(raw)
	s.arena.mu.Unlock()
}

// TestConfidentialSwapDetected: every sealed value is a valid GCM
// ciphertext, so only the enclave-resident tag tells the value written last
// from an older one of the same key. A host that puts back v1's bytes after
// v2 was written, or another key's bytes, fails the read with ErrIntegrity.
func TestConfidentialSwapDetected(t *testing.T) {
	s := newStore(t, Config{Confidential: true})
	if err := s.Write("k", []byte("v1")); err != nil {
		t.Fatalf("Write v1: %v", err)
	}
	old := hostBytes(t, s, "k")
	if err := s.Write("k", []byte("v2")); err != nil {
		t.Fatalf("Write v2: %v", err)
	}
	if err := s.Write("other", []byte("v2")); err != nil {
		t.Fatalf("Write other: %v", err)
	}
	fresh := hostBytes(t, s, "k")
	foreign := hostBytes(t, s, "other")

	swapIn(t, s, "k", old)
	if _, err := s.Get("k"); !errors.Is(err, ErrIntegrity) {
		t.Errorf("older ciphertext of the same key: err = %v, want ErrIntegrity", err)
	}
	swapIn(t, s, "k", foreign)
	if _, err := s.Get("k"); !errors.Is(err, ErrIntegrity) {
		t.Errorf("another key's ciphertext: err = %v, want ErrIntegrity", err)
	}
	swapIn(t, s, "k", fresh)
	if got, err := s.Get("k"); err != nil || string(got) != "v2" {
		t.Errorf("restored bytes: Get = %q, %v; want v2", got, err)
	}
}

// TestDumpFailsOnSwappedValue: a checkpoint over a swapped value must fail
// loudly, never seal a snapshot with the stale value in it.
func TestDumpFailsOnSwappedValue(t *testing.T) {
	s := newStore(t, Config{Confidential: true})
	if err := s.WriteVersioned("k", []byte("v1"), Version{TS: 1}); err != nil {
		t.Fatalf("WriteVersioned v1: %v", err)
	}
	old := hostBytes(t, s, "k")
	if err := s.WriteVersioned("k", []byte("v2"), Version{TS: 2}); err != nil {
		t.Fatalf("WriteVersioned v2: %v", err)
	}
	swapIn(t, s, "k", old)
	err := s.Dump(func(Mutation) bool { return true })
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("Dump over a swapped value: err = %v, want ErrIntegrity", err)
	}
}

// TestConfidentialAllocBudget pins the store's confidential hot path: a warm
// versioned write allocates only the arena buffer it seals into, and a read
// only the plaintext it returns.
func TestConfidentialAllocBudget(t *testing.T) {
	s := newStore(t, Config{Confidential: true})
	value := bytes.Repeat([]byte{3}, 4096)
	ts := uint64(1)
	write := func() {
		ts++
		if err := s.WriteVersioned("user000042", value, Version{TS: ts}); err != nil {
			t.Fatalf("WriteVersioned: %v", err)
		}
	}
	write()
	if n := testing.AllocsPerRun(100, write); n > 1 {
		t.Errorf("WriteVersioned allocates %.1f, budget is 1 (the arena buffer)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if got, _, err := s.GetVersioned("user000042"); err != nil || len(got) != len(value) {
			t.Fatalf("GetVersioned: %d bytes, %v", len(got), err)
		}
	}); n > 1 {
		t.Errorf("GetVersioned allocates %.1f, budget is 1 (the plaintext)", n)
	}
}
