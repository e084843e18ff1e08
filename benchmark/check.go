package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"recipe/internal/core"
	"recipe/internal/harness"
	"recipe/internal/kvstore"
	"recipe/internal/workload"
)

// Every value the benchmark writes starts with a stamp: a magic word, the
// connection that wrote it, and that connection's write sequence number. The
// rest of the value is the preload pattern, so any full-length value read
// back is either the preload itself or names the put that wrote it.
const (
	stampMagic = 0x52427631 // "RBv1"
	stampSize  = 16
)

func stamp(buf []byte, connID uint32, seq uint64) {
	binary.BigEndian.PutUint32(buf[0:4], stampMagic)
	binary.BigEndian.PutUint32(buf[4:8], connID)
	binary.BigEndian.PutUint64(buf[8:16], seq)
}

// keyIndex maps a workload key ("user000042") back to its index.
func keyIndex(key string) int32 {
	n, err := strconv.Atoi(key[len("user"):])
	if err != nil {
		panic(fmt.Sprintf("benchmark: key %q is not from the workload key table", key))
	}
	return int32(n)
}

// keyState is what the checker knows about one key: the newest acknowledged
// put and who wrote it.
type keyState struct {
	mu     sync.Mutex
	acked  bool
	ver    kvstore.Version
	connID uint32
	seq    uint64
}

// checker verifies outputs while the workload runs and once more after it.
type checker struct {
	keys    []string
	pattern []byte // the preloaded value
	state   []keyState
	// issued[c] is the highest write sequence connection c has sent.
	issued []atomic.Uint64

	staleReads atomic.Int64 // reads older than a put acknowledged before they were invoked
	badValues  atomic.Int64 // reads of a value no put wrote, or of the wrong length
}

func newChecker(gen *workload.Generator, conns int) *checker {
	ck := &checker{
		keys:    make([]string, gen.Keys()),
		pattern: gen.Value(),
		state:   make([]keyState, gen.Keys()),
		issued:  make([]atomic.Uint64, conns),
	}
	for i := range ck.keys {
		ck.keys[i] = gen.Key(i)
	}
	return ck
}

// floor returns the version a read invoked now may not go below.
func (ck *checker) floor(key int32) kvstore.Version {
	st := &ck.state[key]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ver
}

// ackPut records an acknowledged put.
func (ck *checker) ackPut(key int32, ver kvstore.Version, connID uint32, seq uint64) {
	st := &ck.state[key]
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.acked || st.ver.Less(ver) {
		st.acked, st.ver, st.connID, st.seq = true, ver, connID, seq
	}
}

// stampOf decodes a value's stamp. ok is false for a value that is neither
// the preload nor something a connection of this run could have written.
func (ck *checker) stampOf(v []byte) (connID uint32, seq uint64, ok bool) {
	if len(v) != len(ck.pattern) {
		return 0, 0, false
	}
	if bytes.Equal(v, ck.pattern) {
		return 0, 0, true // the preload: written by nobody, sequence 0
	}
	if binary.BigEndian.Uint32(v[0:4]) != stampMagic || !bytes.Equal(v[stampSize:], ck.pattern[stampSize:]) {
		return 0, 0, false
	}
	connID, seq = binary.BigEndian.Uint32(v[4:8]), binary.BigEndian.Uint64(v[8:16])
	if int(connID) >= len(ck.issued) || seq == 0 || seq > ck.issued[connID].Load() {
		return 0, 0, false
	}
	return connID, seq, true
}

// checkRead verifies one successful get against the floor taken before it
// was invoked.
func (ck *checker) checkRead(floor kvstore.Version, res core.Result) {
	if _, _, ok := ck.stampOf(res.Value); !ok {
		ck.badValues.Add(1)
	}
	if res.Version.Less(floor) {
		ck.staleReads.Add(1)
	}
}

// conn is one benchmark connection: a client, its write sequence, and the
// samples of the phase in progress. One goroutine uses it at a time.
type conn struct {
	id      uint32
	cli     *core.Client
	ck      *checker
	value   []byte
	seq     uint64
	samples []sample
	// reissued counts operations issued again after a failed first try. Only
	// the phases that crash a replica allow that (fault.go, crashTries).
	reissued int
}

// exec runs one operation, issuing it at most tries times, and verifies what
// came back. A try has failed when the client library gives up (its eight
// attempts spent) or a replica answers with an error; every such try is
// reported. Steady phases pass 1: there a failed try is a failed operation.
func (c *conn) exec(op opSpec, tries int) (ok, retried bool) {
	before := c.cli.Stats().Retries
	key := c.ck.keys[op.key]
	for try := 0; try < tries && !ok; try++ {
		if try > 0 {
			c.reissued++
		}
		var res core.Result
		var err error
		if op.read {
			floor := c.ck.floor(op.key)
			res, err = c.cli.Get(key)
			if ok = err == nil && res.OK; ok {
				c.ck.checkRead(floor, res)
			}
		} else {
			c.seq++
			c.ck.issued[c.id].Store(c.seq)
			stamp(c.value, c.id, c.seq)
			res, err = c.cli.Put(key, c.value)
			if ok = err == nil && res.OK; ok {
				c.ck.ackPut(op.key, res.Version, c.id, c.seq)
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: connection %d, try %d of %d: %s failed: err=%v reply=%q\n", c.id, try+1, tries, key, err, res.Err)
		}
	}
	return ok, c.cli.Stats().Retries != before
}

// readBack runs with no operation in flight: every key with an acknowledged
// put is read through cli and must hold that put's value or a newer one. It
// returns how many do not.
func (ck *checker) readBack(cli *core.Client) (lost int) {
	for i := range ck.state {
		st := &ck.state[i]
		if !st.acked {
			continue
		}
		res, err := cli.Get(ck.keys[i])
		if err != nil || !res.OK {
			lost++
			continue
		}
		connID, seq, ok := ck.stampOf(res.Value)
		switch {
		case !ok, res.Version.Less(st.ver):
			lost++
		case res.Version == st.ver && (connID != st.connID || seq != st.seq):
			lost++
		}
	}
	return lost
}

// settleTime is how long a verdict that decides `correct` gives the slowest
// replica to catch up: replication to it is asynchronous.
const settleTime = 5 * time.Second

// awaitAgreement compares the live replicas' stores key by key, again and
// again until they agree or patience has run out. It returns how many keys
// still differ.
func (ck *checker) awaitAgreement(c *harness.Cluster, leaderless bool, patience time.Duration) (diverged int, err error) {
	deadline := time.Now().Add(patience)
	for {
		diverged, err = ck.compareReplicas(c, leaderless)
		if err != nil || diverged == 0 || time.Now().After(deadline) {
			return diverged, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// compareReplicas counts keys that too few live replicas hold at the newest
// acknowledged version or later, or that two replicas hold at one version
// with different bytes. Under a replicated log every live replica must hold
// each key's newest acknowledged put; under a leaderless register a quorum
// must, since a minority may lawfully lag.
func (ck *checker) compareReplicas(c *harness.Cluster, leaderless bool) (int, error) {
	var stores []*kvstore.Store
	for _, id := range c.Order {
		if n, ok := c.Nodes[id]; ok {
			stores = append(stores, n.Store())
		}
	}
	need := len(stores)
	if leaderless {
		need = len(c.Order)/2 + 1
	}
	if len(stores) < need {
		return 0, fmt.Errorf("only %d of %d replicas are live at the final check", len(stores), len(c.Order))
	}
	type copyOf struct {
		v   []byte
		ver kvstore.Version
	}
	copies := make([]copyOf, 0, len(stores))
	diverged := 0
	for i, key := range ck.keys {
		holders, unsettled := 0, false
		copies = copies[:0]
		for _, s := range stores {
			v, ver, err := s.GetVersioned(key)
			if err != nil {
				// A replica still applying its tail can replace a value
				// between this read's index lookup and its fetch; the key
				// counts as not settled, and the caller looks again.
				unsettled = true
				continue
			}
			if !ver.Less(ck.state[i].ver) {
				holders++
			}
			for _, prev := range copies {
				if prev.ver == ver && !bytes.Equal(prev.v, v) {
					unsettled = true
				}
			}
			copies = append(copies, copyOf{v, ver})
		}
		if holders < need || unsettled {
			diverged++
		}
	}
	return diverged, nil
}
