package core

import (
	"sync/atomic"
	"time"

	"recipe/internal/membership"
	"recipe/internal/reconfig"
)

// memberDriver adapts the pure SWIM detector (internal/membership) to the
// node: the event loop ticks it, probe/ack/gossip traffic rides the shielded
// wire kinds (KindPing/KindPingAck/KindPingReq), and the current failed set
// is published through an atomic snapshot for the harness supervisor.
type memberDriver struct {
	det    *membership.Detector
	failed atomic.Pointer[[]string]
}

func newMemberDriver(self string, peers []string, cfg NodeConfig) *memberDriver {
	var seed int64
	for _, b := range self {
		seed = seed*31 + int64(b)
	}
	return &memberDriver{
		det: membership.New(membership.Config{
			Self:            self,
			Peers:           peers,
			ProbeEveryTicks: cfg.HeartbeatEveryTicks,
			SuspicionMult:   cfg.SuspicionMult,
			IndirectProbes:  cfg.IndirectProbes,
			Seed:            seed,
		}),
	}
}

// memTick advances the detector one event-loop tick and transmits its probes.
// Event-loop goroutine only.
func (n *Node) memTick() {
	probes, events := n.mem.det.Tick()
	n.memEvents(events)
	for i := range probes {
		p := &probes[i]
		switch p.Kind {
		case membership.ProbeDirect:
			n.sendWire(p.To, &Wire{Kind: KindPing, Index: p.Nonce, Value: n.memGossip()})
		case membership.ProbeIndirect:
			n.sendWire(p.To, &Wire{Kind: KindPingReq, Key: p.Target, Index: p.Nonce})
		}
	}
}

// handlePing acks a probe. Nodes answer pings even with their own detector
// off — being probe-able costs nothing and keeps mixed configurations sane.
// When the ping relays an indirect probe (Key names the origin), the origin
// is acked too, closing the SWIM indirect path.
func (n *Node) handlePing(from string, w *Wire) {
	if n.mem != nil {
		n.memEvents(n.mem.det.ApplyGossip(w.Value))
	}
	n.sendWire(from, &Wire{Kind: KindPingAck, Index: w.Index, Value: n.memGossip()})
	if w.Key != "" && w.Key != from && w.Key != n.id {
		n.sendWire(w.Key, &Wire{Kind: KindPingAck, Index: w.Index, Value: n.memGossip()})
	}
}

// memGossip drains up to one message's worth of pending rumors for
// piggybacking (nil when detection is off or nothing is pending).
func (n *Node) memGossip() []byte {
	if n.mem == nil {
		return nil
	}
	return n.mem.det.Gossip()
}

// memEvents turns detector transitions into counters and trace events, and
// republishes the failed-peer snapshot.
func (n *Node) memEvents(events []membership.Event) {
	if len(events) == 0 {
		return
	}
	for _, e := range events {
		switch e.Kind {
		case membership.EventSuspect:
			n.stats.Suspicions.Add(1)
			n.trace("suspect", e.Node)
		case membership.EventAlive:
			n.trace("member-alive", e.Node)
		case membership.EventFailed:
			n.trace("member-failed", e.Node)
		}
	}
	failed := n.mem.det.Failed()
	n.mem.failed.Store(&failed)
}

// FailedPeers returns the peers this node's failure detector has declared
// failed (nil when detection is off). Safe from any goroutine; the harness
// supervisor polls it to collect eviction votes.
func (n *Node) FailedPeers() []string {
	if n.mem == nil {
		return nil
	}
	if p := n.mem.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// noteMembershipDiff compares the own group's member list across a shard-map
// adoption: removals are evictions, additions rejoins. Counted at every
// replica that adopts the map (cluster-wide totals are per-survivor, which
// the operations runbook documents). Caller holds curMapMu.
func (n *Node) noteMembershipDiff(old, cur *reconfig.ShardMap) {
	if old == nil || int(n.group) >= len(old.Members) || int(n.group) >= len(cur.Members) {
		return
	}
	before, after := old.Members[n.group], cur.Members[n.group]
	for _, id := range before {
		if !memberIn(after, id) {
			n.stats.Evictions.Add(1)
			n.trace("evict", id)
		}
	}
	for _, id := range after {
		if !memberIn(before, id) {
			n.trace("rejoin", id)
		}
	}
}

func memberIn(list []string, id string) bool {
	for _, m := range list {
		if m == id {
			return true
		}
	}
	return false
}

// admitState is the per-client token-bucket admission gate. Event-loop
// goroutine only (dispatchCommand is loop-only), so plain maps suffice.
type admitState struct {
	rate    float64 // tokens per second
	burst   float64 // bucket capacity
	buckets map[string]*admBucket
}

type admBucket struct {
	tokens float64
	last   time.Time
}

// admitBucketBound caps the client-bucket map; past it the table coarsely
// resets (the same bound-by-reset pattern as the epoch-notice limiter). A
// reset briefly re-grants every client its burst, which is the benign
// direction.
const admitBucketBound = 4096

func newAdmitState(rate float64, burst int) *admitState {
	if burst <= 0 {
		burst = int(rate / 10)
		if burst < 1 {
			burst = 1
		}
	}
	return &admitState{rate: rate, burst: float64(burst), buckets: make(map[string]*admBucket)}
}

// admitCommand charges one token from cmd's client bucket, refusing when the
// bucket is dry or the bounded queues behind the loop are near their bounds
// (global backpressure: past that point more work only grows the queues).
func (n *Node) admitCommand(cmd *Command) bool {
	if n.overloaded() {
		return false
	}
	a := n.adm
	if len(a.buckets) > admitBucketBound {
		a.buckets = make(map[string]*admBucket)
	}
	b := a.buckets[cmd.ClientID]
	now := time.Now()
	if b == nil {
		b = &admBucket{tokens: a.burst, last: now}
		a.buckets[cmd.ClientID] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * a.rate
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// overloaded reports whether the loop's submit queue is near its bound — the
// backpressure signal feeding the admission gate.
func (n *Node) overloaded() bool {
	return len(n.submitCh) >= cap(n.submitCh)*3/4
}
