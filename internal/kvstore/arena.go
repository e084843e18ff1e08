package kvstore

import (
	"bytes"
	"errors"
	"sync"
)

// handle identifies a value in host memory.
type handle struct {
	slot uint64
}

// errBadHandle is returned when reading a freed or unknown handle.
var errBadHandle = errors.New("kvstore: bad host-memory handle")

// hostArena models the untrusted host memory holding bulk values. It is an
// explicit allocator (the paper passes one to init_store) with a free list,
// so overwritten values release their slots. Crucially, nothing here is
// trusted: the Store verifies every byte read back against enclave-resident
// metadata, and tests corrupt arena contents directly to prove it.
type hostArena struct {
	mu    sync.Mutex
	slots map[uint64][]byte
	free  []uint64
	next  uint64
	bytes int64
	limit int64
}

// newHostArena creates an arena with the given capacity in bytes (0 =
// unlimited).
func newHostArena(limit int64) *hostArena {
	return &hostArena{slots: make(map[uint64][]byte), limit: limit}
}

// errArenaFull is returned when the configured host memory is exhausted.
var errArenaFull = errors.New("kvstore: host memory exhausted")

// alloc stores a copy of data and returns its handle.
func (a *hostArena) alloc(data []byte) (handle, error) {
	return a.adopt(bytes.Clone(data))
}

// adopt stores data itself, without a copy, and returns its handle: the
// caller hands the buffer over and must not touch it again.
func (a *hostArena) adopt(data []byte) (handle, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit > 0 && a.bytes+int64(len(data)) > a.limit {
		return handle{}, errArenaFull
	}
	var slot uint64
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		a.next++
		slot = a.next
	}
	a.slots[slot] = data
	a.bytes += int64(len(data))
	return handle{slot: slot}, nil
}

// read returns the bytes stored at h (no copy; the Store copies into the
// protected area itself).
func (a *hostArena) read(h handle) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	buf, ok := a.slots[h.slot]
	if !ok {
		return nil, errBadHandle
	}
	return buf, nil
}

// release frees the slot at h.
func (a *hostArena) release(h handle) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if buf, ok := a.slots[h.slot]; ok {
		a.bytes -= int64(len(buf))
		delete(a.slots, h.slot)
		a.free = append(a.free, h.slot)
	}
}

// corrupt flips a byte of the value at h (test hook standing in for a
// Byzantine host scribbling over memory). Returns false if h is invalid.
func (a *hostArena) corrupt(h handle, offset int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	buf, ok := a.slots[h.slot]
	if !ok || len(buf) == 0 {
		return false
	}
	buf[offset%len(buf)] ^= 0xFF
	return true
}

// usage returns current bytes allocated.
func (a *hostArena) usage() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}
