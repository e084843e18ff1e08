package core

import (
	"sync/atomic"
	"time"
)

// adaptiveLease widens the leader-lease duration when Stats.LeaseFallbacks
// shows local reads missing the lease window, and narrows it back once
// fallbacks stop — bounded to [base, 4*base], with hysteresis so the width
// does not flap.
//
// Safety argument: a follower's grantor-side view of the lease must always
// extend at least as far as the leader's holder-side view (plus drift), or a
// deposed leader could serve a local read after a successor was electable.
// The two widths therefore move in a fixed order:
//
//   - Widening: the leader broadcasts the proposed width (KindLeaseWidth);
//     followers widen their grantor-side grant width and ack; only when every
//     live follower has acked does the leader adopt the wider holder width.
//     Until then it keeps holding the narrow lease under wide grants — safe.
//   - Narrowing: the leader narrows its holder width immediately (strictly
//     safe — it only gives up read time) and then tells followers, who narrow
//     the grants at their leisure.
//
// All tuning state is event-loop-only; holder/grant are atomics because
// LeaseWidths (the telemetry gauge, tests) reads them off the loop.
type adaptiveLease struct {
	base time.Duration
	max  time.Duration

	holder atomic.Int64 // ns: width used when (re-)granting our own lease
	grant  atomic.Int64 // ns: width used when granting the leader's lease

	// Leader-side controller state (event-loop only).
	pending       int64 // proposed holder width awaiting follower acks (0 = none)
	acks          map[string]bool
	lastFallbacks uint64
	ticks         int
	calm          int // consecutive calm windows (hysteresis before narrowing)
}

const (
	// adaptWindowTicks is the feedback window: fallback deltas are sampled
	// every this many ticks.
	adaptWindowTicks = 50
	// adaptCalmWindows is how many consecutive zero-fallback windows must
	// pass before the width narrows one step.
	adaptCalmWindows = 4
	// adaptRebroadcastTicks re-announces an unacked width proposal.
	adaptRebroadcastTicks = 10
)

func newAdaptiveLease(base time.Duration) *adaptiveLease {
	al := &adaptiveLease{base: base, max: 4 * base, acks: make(map[string]bool)}
	al.holder.Store(int64(base))
	al.grant.Store(int64(base))
	return al
}

// holderWidth is the lease duration this node grants itself.
func (n *Node) holderWidth() time.Duration {
	if n.al == nil {
		return n.leaseDur
	}
	return time.Duration(n.al.holder.Load())
}

// grantWidth is the lease duration this node grants the current leader.
func (n *Node) grantWidth() time.Duration {
	if n.al == nil {
		return n.leaseDur
	}
	return time.Duration(n.al.grant.Load())
}

// LeaseWidths reports the adaptive lease's current holder- and grantor-side
// widths (both LeaderLeaseTicks*TickEvery when adaptation is off). Tests and
// telemetry read it; safe from any goroutine.
func (n *Node) LeaseWidths() (holder, grant time.Duration) {
	return n.holderWidth(), n.grantWidth()
}

// adaptTick runs the leader-side width controller once per event-loop tick.
func (n *Node) adaptTick() {
	al := n.al
	st := n.proto.Status()
	if !st.IsCoordinator || st.Leader != n.id {
		return
	}
	al.ticks++
	if al.pending != 0 && al.ticks%adaptRebroadcastTicks == 0 {
		n.broadcastLeaseWidth(al.pending)
	}
	if al.ticks < adaptWindowTicks {
		return
	}
	al.ticks = 0
	f := n.stats.LeaseFallbacks.Load()
	delta := f - al.lastFallbacks
	al.lastFallbacks = f
	switch {
	case delta > 0:
		al.calm = 0
		cur := al.holder.Load()
		target := cur + cur/2
		if m := int64(al.max); target > m {
			target = m
		}
		if target > cur && (al.pending == 0 || target > al.pending) {
			al.pending = target
			clear(al.acks)
			n.trace("lease-widen-propose", "")
			n.broadcastLeaseWidth(target)
		}
	case al.pending == 0:
		al.calm++
		if al.calm >= adaptCalmWindows {
			al.calm = 0
			cur := al.holder.Load()
			if cur > int64(al.base) {
				target := cur * 2 / 3
				if target < int64(al.base) {
					target = int64(al.base)
				}
				al.holder.Store(target)
				n.trace("lease-narrow", "")
				n.broadcastLeaseWidth(target)
			}
		}
	}
}

func (n *Node) broadcastLeaseWidth(width int64) {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.sendWire(p, &Wire{Kind: KindLeaseWidth, Index: uint64(width)})
	}
}

// handleLeaseWidth adopts a width announcement from the current leader:
// the grantor-side grant width moves (bounds-checked), future renewals use
// it, and the follower acks. Event-loop goroutine.
func (n *Node) handleLeaseWidth(from string, w *Wire) {
	st := n.proto.Status()
	if st.Leader == "" || from != st.Leader {
		return // only the current leader tunes widths
	}
	width := int64(w.Index)
	if width < int64(n.al.base) || width > int64(n.al.max) {
		return
	}
	n.al.grant.Store(width)
	// Re-grant immediately so an outstanding narrow grant widens without
	// waiting for the next leader message.
	_, _ = n.lease.Grant("leader", from, time.Duration(width))
	n.sendWire(from, &Wire{Kind: KindLeaseWidthAck, Index: w.Index})
}

// handleLeaseWidthAck collects follower acks for a pending widen; once every
// live (non-failed) follower has acked, the leader's holder width follows.
func (n *Node) handleLeaseWidthAck(from string, w *Wire) {
	al := n.al
	if al.pending == 0 || int64(w.Index) != al.pending {
		return
	}
	al.acks[from] = true
	failed := n.FailedPeers()
	for _, p := range n.peers {
		if p == n.id || memberIn(failed, p) {
			continue
		}
		if !al.acks[p] {
			return
		}
	}
	al.holder.Store(al.pending)
	al.pending = 0
	clear(al.acks)
	n.trace("lease-widen", "")
}
