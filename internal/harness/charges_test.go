package harness

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"recipe/internal/tee"
)

// TestConfidentialABDChargesPinned counts every modelled charge — enclave
// transitions, confidential staging and the network stack, all of which
// burn through tee.Burn — over sequential confidential R-ABD operations on
// the default SGX-like cost model, and pins the result. The fingerprint is
// how many charges of each unit count an operation makes, so a change to
// how confidential mode authenticates (which must cut real work only) shows
// here the moment it adds, drops or resizes a modelled charge. The pinned
// fingerprint reads the same with and without the HMAC pass over
// confidential envelopes and the store's SHA-256 of sealed values: removing
// them cut real work only. MaxBatch=1 shields every message alone, since how
// many messages coalesce into one envelope depends on timing.
func TestConfidentialABDChargesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster on the default cost model")
	}
	opts := Options{Protocol: ABD, Shielded: true, Confidential: true, MaxBatch: 1, TickEvery: time.Millisecond, Seed: 42}
	c := startCluster(t, opts)
	cli, err := c.Client()
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	defer func() { _ = cli.Close() }()
	const keys, ops = 20, 200
	value := bytes.Repeat([]byte{'v'}, 4096)
	for i := 0; i < keys; i++ {
		if _, err := cli.Put(fmt.Sprintf("user%06d", i), value); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the last quorum's stragglers land

	var mu sync.Mutex
	burns := make(map[int]int)
	stop := tee.ObserveBurns(func(units int) {
		mu.Lock()
		burns[units]++
		mu.Unlock()
	})
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("user%06d", i%keys)
		if i%2 == 0 {
			if _, err := cli.Put(key, value); err != nil {
				t.Fatalf("Put: %v", err)
			}
		} else if res, err := cli.Get(key); err != nil || !bytes.Equal(res.Value, value) {
			t.Fatalf("Get: %+v, %v", res, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	stop()

	mu.Lock()
	defer mu.Unlock()
	units := make([]int, 0, len(burns))
	for u := range burns {
		units = append(units, u)
	}
	sort.Ints(units)
	var got []string
	for _, u := range units {
		got = append(got, fmt.Sprintf("%d:%.2f", u, float64(burns[u])/ops))
	}
	fingerprint := strings.Join(got, " ")
	t.Logf("charges per op (units:count): %s", fingerprint)
	const want = "12:17.00 30:9.00 60:1.50 64:5.00 70:6.50 128:3.00"
	if fingerprint != want {
		t.Errorf("modelled charges per op changed:\n got %s\nwant %s", fingerprint, want)
	}
}
