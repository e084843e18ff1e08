package kvstore

import (
	"math/rand"
	"sync"
)

// skip list tuning.
const (
	maxLevel    = 16
	levelFactor = 4 // 1/4 promotion probability
)

// entry is the per-key metadata kept inside the enclave: integrity hash,
// version (Lamport timestamp for ABD-style protocols), and the handle of the
// value in host memory.
type entry struct {
	// check authenticates the host-resident bytes: the SHA-256 of the
	// value, or in confidential mode the sealed value's GCM tag in its
	// first tagLen bytes.
	check   [32]byte
	version Version
	handle  handle
	size    int
}

// Version orders writes to one key: a Lamport timestamp with a writer-id
// tiebreak, as used by the ABD transformation and the per-key-order
// protocols.
type Version struct {
	TS     uint64
	Writer uint64
}

// Less orders versions by (TS, Writer).
func (v Version) Less(o Version) bool {
	if v.TS != o.TS {
		return v.TS < o.TS
	}
	return v.Writer < o.Writer
}

// skipNode is one tower in the skip list.
type skipNode struct {
	key  string
	ent  entry
	next []*skipNode
}

// skiplist is an ordered map from key to entry. It uses a single RWMutex:
// the paper's folly-based list is lock-free, but the property that matters
// for the reproduction is the partitioned layout (metadata inside, values
// outside), not the synchronisation strategy.
type skiplist struct {
	mu    sync.RWMutex
	head  *skipNode
	level int
	size  int
	rng   *rand.Rand
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:  &skipNode{next: make([]*skipNode, maxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// randomLevel picks the tower height for a new node.
func (s *skiplist) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Intn(levelFactor) == 0 {
		lvl++
	}
	return lvl
}

// get returns the entry for key.
func (s *skiplist) get(key string) (entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.head
	for i := s.level - 1; i >= 0; i-- {
		for n.next[i] != nil && n.next[i].key < key {
			n = n.next[i]
		}
	}
	n = n.next[0]
	if n != nil && n.key == key {
		return n.ent, true
	}
	return entry{}, false
}

// set inserts or updates key, returning the previous entry if any.
func (s *skiplist) set(key string, ent entry) (entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	update := make([]*skipNode, maxLevel)
	n := s.head
	for i := s.level - 1; i >= 0; i-- {
		for n.next[i] != nil && n.next[i].key < key {
			n = n.next[i]
		}
		update[i] = n
	}
	n = n.next[0]
	if n != nil && n.key == key {
		prev := n.ent
		n.ent = ent
		return prev, true
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	node := &skipNode{key: key, ent: ent, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
	s.size++
	return entry{}, false
}

// remove deletes key, returning its entry if present.
func (s *skiplist) remove(key string) (entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	update := make([]*skipNode, maxLevel)
	n := s.head
	for i := s.level - 1; i >= 0; i-- {
		for n.next[i] != nil && n.next[i].key < key {
			n = n.next[i]
		}
		update[i] = n
	}
	n = n.next[0]
	if n == nil || n.key != key {
		return entry{}, false
	}
	for i := 0; i < len(n.next); i++ {
		if update[i].next[i] == n {
			update[i].next[i] = n.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.size--
	return n.ent, true
}

// ascend visits entries in key order from start (inclusive) until fn returns
// false.
func (s *skiplist) ascend(start string, fn func(key string, ent entry) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.head
	for i := s.level - 1; i >= 0; i-- {
		for n.next[i] != nil && n.next[i].key < start {
			n = n.next[i]
		}
	}
	for n = n.next[0]; n != nil; n = n.next[0] {
		if !fn(n.key, n.ent) {
			return
		}
	}
}

// count returns the number of keys.
func (s *skiplist) count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}
