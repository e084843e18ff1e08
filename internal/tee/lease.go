package tee

import (
	"errors"
	"sync"
	"time"
)

// Lease-related errors.
var (
	// ErrLeaseHeld is returned when granting would overlap an active lease.
	ErrLeaseHeld = errors.New("tee: lease already held")
	// ErrLeaseExpired is returned when renewing an expired lease.
	ErrLeaseExpired = errors.New("tee: lease expired")
	// ErrNotHolder is returned when a node that does not hold the lease
	// attempts holder-only operations.
	ErrNotHolder = errors.New("tee: not the lease holder")
)

// LeaseTable is the trusted lease primitive (T-Lease, SoCC'20) that Recipe
// uses instead of (untrustworthy) OS timers for failure detection, trusted
// timeouts, and leader election. It lives inside the enclave boundary: the
// untrusted host cannot forge lease state, it can only crash the node.
//
// Safety rule: the grantor considers a lease expired only after
// duration*(1+drift); the holder considers it expired already at duration.
// With per-node clock drift bounded by drift, two nodes can therefore never
// both believe they hold the same lease name — even across a malicious host
// delaying messages — which is exactly the property leader election needs.
type LeaseTable struct {
	clock Clock
	drift float64 // maximum relative clock drift, e.g. 0.05 for 5%

	mu     sync.Mutex
	leases map[string]*leaseState
}

type leaseState struct {
	holder    string
	grantedAt time.Time
	duration  time.Duration
	epoch     uint64
}

// Lease describes a granted lease.
type Lease struct {
	Name     string
	Holder   string
	Epoch    uint64
	Duration time.Duration
}

// NewLeaseTable creates a lease table using the given trusted clock and
// drift bound. A drift of 0.05 tolerates 5% relative clock skew.
func NewLeaseTable(clock Clock, drift float64) *LeaseTable {
	return &LeaseTable{
		clock:  clock,
		drift:  drift,
		leases: make(map[string]*leaseState),
	}
}

// Grant grants the named lease to holder for the given duration. It fails
// with ErrLeaseHeld while a previous grant to another holder may still be
// active from the holder's point of view (grantor-side expiry includes the
// drift safety margin).
func (t *LeaseTable) Grant(name, holder string, d time.Duration) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock.Now()
	st, ok := t.leases[name]
	if ok && st.holder != holder && now.Before(t.grantorExpiry(st)) {
		return Lease{}, ErrLeaseHeld
	}
	epoch := uint64(1)
	if ok {
		epoch = st.epoch + 1
		if st.holder == holder && now.Before(t.grantorExpiry(st)) {
			// Renewal by the same holder keeps the epoch.
			epoch = st.epoch
		}
	}
	if ok {
		// Update in place: a renewal (every verified message from the leader)
		// must not allocate a fresh state.
		*st = leaseState{holder: holder, grantedAt: now, duration: d, epoch: epoch}
	} else {
		t.leases[name] = &leaseState{holder: holder, grantedAt: now, duration: d, epoch: epoch}
	}
	return Lease{Name: name, Holder: holder, Epoch: epoch, Duration: d}, nil
}

// Renew extends an active lease held by holder. Renewing an expired lease
// fails; the holder must re-acquire through Grant (possibly losing the race).
func (t *LeaseTable) Renew(name, holder string, d time.Duration) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.leases[name]
	if !ok || st.holder != holder {
		return Lease{}, ErrNotHolder
	}
	now := t.clock.Now()
	if !now.Before(t.holderExpiry(st)) {
		return Lease{}, ErrLeaseExpired
	}
	st.grantedAt = now
	st.duration = d
	return Lease{Name: name, Holder: holder, Epoch: st.epoch, Duration: d}, nil
}

// HolderActive reports whether holder may still rely on the lease. This is
// the conservative holder-side view (no drift margin).
func (t *LeaseTable) HolderActive(name, holder string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.leases[name]
	if !ok || st.holder != holder {
		return false
	}
	return t.clock.Now().Before(t.holderExpiry(st))
}

// Expired reports whether the lease is expired from the grantor's point of
// view, i.e. it is safe to grant it to a new holder. A never-granted lease is
// expired.
func (t *LeaseTable) Expired(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.leases[name]
	if !ok {
		return true
	}
	return !t.clock.Now().Before(t.grantorExpiry(st))
}

// Holder returns the current holder and epoch of the lease, if any.
func (t *LeaseTable) Holder(name string) (holder string, epoch uint64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, found := t.leases[name]
	if !found {
		return "", 0, false
	}
	return st.holder, st.epoch, true
}

func (t *LeaseTable) holderExpiry(st *leaseState) time.Time {
	return st.grantedAt.Add(st.duration)
}

func (t *LeaseTable) grantorExpiry(st *leaseState) time.Time {
	margin := time.Duration(float64(st.duration) * t.drift)
	return st.grantedAt.Add(st.duration + margin)
}
