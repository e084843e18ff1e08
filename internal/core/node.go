package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recipe/internal/attest"
	"recipe/internal/authn"
	"recipe/internal/bufpool"
	"recipe/internal/kvstore"
	"recipe/internal/netstack"
	"recipe/internal/reconfig"
	"recipe/internal/seal"
	"recipe/internal/tee"
	"recipe/internal/telemetry"
)

// Node errors.
var (
	// ErrStopped is returned when submitting to a stopped node.
	ErrStopped = errors.New("core: node stopped")
	// ErrBusy is returned when the node's submit queue is full.
	ErrBusy = errors.New("core: node busy")
)

// Stats counts the security-relevant events at one node's authn boundary.
type Stats struct {
	Delivered     atomic.Uint64 // verified protocol/client messages delivered
	Buffered      atomic.Uint64 // authentic out-of-order messages parked
	DropReplay    atomic.Uint64 // replays rejected
	DropMAC       atomic.Uint64 // tampered/forged messages rejected
	DropView      atomic.Uint64 // other-view messages rejected
	DropGroup     atomic.Uint64 // cross-shard (wrong replication group) messages rejected
	DropEpoch     atomic.Uint64 // stale-configuration-epoch messages rejected
	DropMalformed atomic.Uint64 // undecodable packets
	DropRollback  atomic.Uint64 // sealed local state rejected at recovery (rollback/fork/tamper)
	// PipelineStalls counts commit handoffs that found the commit queue full
	// and had to block the loop (backpressure). Zero while the disk keeps
	// up; a climbing value means the WAL fsync is the bottleneck
	// (Node.CommitDepth shows the standing backlog).
	PipelineStalls atomic.Uint64
	// Read-path counters (PR 7): where reads were actually served, so the
	// scale-out benches can prove which path answered.
	LocalReads     atomic.Uint64 // coordinator served locally under an active lease
	ReplicaReads   atomic.Uint64 // non-coordinator replica served a clean read
	LeaseFallbacks atomic.Uint64 // lease expired: local read detoured to consensus
	// Membership & overload counters (PR 9).
	Suspicions       atomic.Uint64 // peers newly suspected by the failure detector
	Evictions        atomic.Uint64 // own-group members removed by an adopted shard map
	AdmissionRejects atomic.Uint64 // client ops shed by the admission gate
}

// NodeConfig configures a Recipe node.
type NodeConfig struct {
	// Secrets is the bundle received from the CAS during attestation.
	Secrets attest.Secrets
	// TickEvery is the protocol tick cadence (default 5ms).
	TickEvery time.Duration
	// LeaderLeaseTicks is the trusted-lease duration for leader liveness,
	// measured in ticks (default 10).
	LeaderLeaseTicks int
	// ReadPolicy selects how OpGet is served (see ReadPolicy). The zero
	// value, ReadLeaseLocal, lets coordinators answer locally under an
	// active trusted lease.
	ReadPolicy ReadPolicy
	// Shielded selects the Recipe transformation; false runs the protocol
	// natively (no authn layer) for the Fig 6a baseline.
	Shielded bool
	// MaxBatch caps how many messages one shielded envelope carries when the
	// event loop flushes a peer's coalescing buffer (default 64). Setting it
	// to 1 disables coalescing entirely — every message is shielded, MAC'd,
	// and transmitted individually — which is the per-message baseline the
	// batching benchmarks compare against.
	MaxBatch int
	// Confidential additionally encrypts message payloads and stored values.
	Confidential bool
	// StoreConfig configures the local KV store.
	StoreConfig kvstore.Config
	// Durability, when set, gives the node a sealed durable store: committed
	// mutations append to an encrypted WAL (group-committed once per event-
	// loop iteration on the commit stage), snapshots checkpoint it, and a
	// restart recovers the state locally instead of streaming it from peers.
	// Nil (the default) keeps the node purely in-memory.
	Durability *DurabilityConfig
	// Logf, when set, receives debug logs.
	Logf func(format string, args ...any)
	// HeartbeatEveryTicks enables the SWIM failure detector: every this many
	// event-loop ticks the node probes one peer round-robin, escalating a
	// missing ack to indirect probes, suspicion, and declared failure (see
	// internal/membership). 0 (the default) leaves detection off.
	HeartbeatEveryTicks int
	// SuspicionMult bounds suspicion: a suspect not refuted within
	// SuspicionMult probe intervals is declared failed (default 8).
	SuspicionMult int
	// IndirectProbes is the relay fan-out K when a direct ack is late
	// (default 2).
	IndirectProbes int
	// AdmissionRate, when > 0, arms the per-client token-bucket admission
	// gate at the coordinator: each client is admitted at most this many ops
	// per second sustained (AdmissionBurst above it), and the gate also sheds
	// load when the node's submit queue runs near its bound.
	// Rejected ops get a KindBusy reply — retriable, never submitted — and
	// count in Stats.AdmissionRejects. 0 disables the gate entirely.
	AdmissionRate float64
	// AdmissionBurst is the token-bucket capacity (default AdmissionRate/10,
	// minimum 1): the burst a client may spend before the sustained rate
	// applies.
	AdmissionBurst int
	// AdaptiveLease lets the leader widen the leader-lease duration when
	// Stats.LeaseFallbacks shows reads missing the lease window, and narrow
	// it back (with hysteresis) when fallbacks stop. Width moves between
	// LeaderLeaseTicks and 4x that; followers adopt a wider grantor view
	// before the leader widens its holder view, preserving the lease-safety
	// argument. Off by default.
	AdaptiveLease bool
	// DisableTelemetry turns off the node's metrics registry, phase
	// histograms, and flight-recorder trace ring. Telemetry is on by
	// default — recording is a few atomic adds per event, cheap enough to
	// leave on in production (the overhead A/B in the bench suite holds it
	// under the noise floor) — but benchmarks that want a zero-telemetry
	// control can set this.
	DisableTelemetry bool
}

// DurabilityConfig configures a node's sealed durable store (internal/seal).
type DurabilityConfig struct {
	// Dir is this replica's data directory (exclusive to it).
	Dir string
	// Registrar anchors seal freshness; the harness passes the CAS. Nil
	// disables rollback detection (encryption and integrity still apply).
	Registrar seal.Registrar
	// SnapshotEvery overrides how many WAL records arm an automatic
	// checkpoint (0 = seal default).
	SnapshotEvery int
	// Fresh declares a deliberately empty start (the harness wipes the home
	// of brand-new identities). Without it, an empty directory whose
	// identity has registered seal history is rejected as a rollback to
	// genesis.
	Fresh bool
}

// Node hosts one replica: the enclave, the authn layer, the KV store, the
// transport endpoint, and the wrapped CFT protocol. It owns a single event
// loop goroutine; Start launches it and Stop waits for it.
type Node struct {
	cfg      NodeConfig
	id       string
	group    uint32 // replication group (shard), from the attested secrets
	enclave  *tee.Enclave
	shielder *authn.Shielder
	store    *kvstore.Store
	tr       netstack.Transport
	proto    Protocol
	lease    *tee.LeaseTable
	peers    []string

	stats       Stats
	submitCh    chan Command
	stopCh      chan struct{}
	doneCh      chan struct{}
	startOnce   sync.Once
	stopOnce    sync.Once
	clientMu    sync.Mutex
	clientTable map[string]clientRecord
	recov       *recovery
	recovToken  uint64

	incMu sync.Mutex
	inc   map[string]uint64 // peer incarnations (absent = 1)
	// sendNames and replyNames cache the channel names sendChannel and
	// replyChannel build, per peer and per client. An entry is used only
	// while the incarnation pair it was built from is current, so a bumpInc
	// or a re-incarnation yields the new channel's name. Guarded by incMu:
	// the committer and off-loop flushers name channels too.
	sendNames  map[string]chanName
	replyNames map[string]chanName

	// names interns principal names decoded off the wire. Event-loop
	// goroutine only.
	names interner

	// Durability: the sealed WAL+snapshot store (nil when NodeConfig.
	// Durability is unset). walReady flips once RecoverLocal positioned the
	// log; recoveredFloor is the highest version TS local recovery restored
	// (the state-transfer suffix floor for total-order protocols).
	// deferredReplies parks client replies produced during an iteration
	// until the commit stage's fsync has made their writes durable — an ack
	// must never outrun the fsync backing it. Event-loop-goroutine only.
	wal             *seal.Log
	walReady        bool
	walRecovered    bool
	recoveredFloor  uint64
	deferredReplies []deferredReply
	// walBroken flips when a WAL append fails: the replica crash-stops
	// rather than acknowledge writes it cannot seal. snapInFlight gates the
	// asynchronous automatic checkpoint (one at a time).
	walBroken    atomic.Bool
	snapInFlight atomic.Bool

	// Configuration epoch: the latest CAS-signed shard map this node has
	// verified and adopted. epoch mirrors the shielder's epoch for the
	// unshielded path; curMap holds the encoded signed map for epoch notices,
	// curShardMap its decoded form (recovery consults it to truncate slots
	// the configuration has migrated away from this group).
	epoch       atomic.Uint64
	curMapMu    sync.Mutex
	curMap      []byte
	curShardMap *reconfig.ShardMap
	// lastNotice rate-limits epoch notices per client: a replayed stale
	// envelope must not buy an attacker a signed-map send per frame.
	lastNotice map[string]time.Time

	// Outbound coalescing: messages to a peer produced within one event-loop
	// iteration accumulate here and flush together as batched envelopes. The
	// item payloads are pooled wire-encode buffers (recycled after the flush
	// copies them into sealed envelopes); the per-peer item slices and order
	// slices are recycled through small freelists so a steady-state flush
	// allocates only the packet handed to the transport.
	bt           netstack.BatchSender // transport's send queue, if it has one
	outMu        sync.Mutex
	outPending   map[string][]authn.BatchItem
	outOrder     []string // peers in first-queued order
	outFreeItems [][]authn.BatchItem
	outFreeOrder [][]string

	// commitCh is the commit stage's queue (nil on memory-only nodes). See
	// commit.go for the handoff and ownership contract.
	commitCh chan commitReq
	// iterAppends counts WAL appends since the last commit handoff.
	// Atomic: most appends come from the event loop applying protocol
	// commands, but migration sweeps (Store.DropIf) and recovery merges
	// reach the mutation sink from other goroutines.
	iterAppends atomic.Int64
	// replyFree recycles deferred-reply slices between the loop and the
	// commit stage, which owns sending them.
	replyFreeMu sync.Mutex
	replyFree   [][]deferredReply

	// Telemetry: reg is the node's metrics registry and ring its flight
	// recorder (both nil when cfg.DisableTelemetry). phase holds the
	// node-recorded phase histograms; every one is nil-safe to record, so
	// instrumentation sites need no enabled-checks beyond what saves a
	// time.Now call.
	reg   *telemetry.Registry
	ring  *telemetry.TraceRing
	phase struct {
		ingressVerify *telemetry.Histogram
		queueWait     *telemetry.Histogram
		egressSeal    *telemetry.Histogram
		walFsync      *telemetry.Histogram
		netFlush      *telemetry.Histogram
		netDwell      *telemetry.Histogram
	}

	// mem is the failure-detector driver (nil = detection off); adm the
	// admission gate (nil = off); al the adaptive-lease controller (nil =
	// fixed lease width). All three are driven from the event loop; their
	// published snapshots (failed peers, lease widths) are atomics.
	mem *memberDriver
	adm *admitState
	al  *adaptiveLease

	// status is the protocol status as of the last event-loop iteration.
	// Protocols are single-threaded, so external readers (routing, tests,
	// WaitForCoordinator polls) get this published snapshot instead of
	// racing the loop with a direct proto.Status() call.
	status atomic.Pointer[Status]

	// leaseTicks tracks the lease duration in wall time.
	leaseDur time.Duration
}

// chanName is one cached channel name and the (own, peer) incarnation pair
// it embeds.
type chanName struct {
	own, peer uint64
	name      string
}

// maxCachedNames bounds each channel-name cache; a full cache starts over.
const maxCachedNames = 4096

type clientRecord struct {
	seq uint64
	res Result
}

// deferredReply is one client reply awaiting the iteration's WAL commit.
type deferredReply struct {
	cmd Command
	w   *Wire
}

// NewNode assembles a node from its attested enclave, transport, and
// protocol. The caller must have completed attestation: cfg.Secrets carries
// the provisioned identity, membership, and master key.
func NewNode(e *tee.Enclave, tr netstack.Transport, proto Protocol, cfg NodeConfig) (*Node, error) {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 5 * time.Millisecond
	}
	if cfg.LeaderLeaseTicks <= 0 {
		cfg.LeaderLeaseTicks = 10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.StoreConfig.Confidential = cfg.Confidential

	store, err := kvstore.Open(e, cfg.StoreConfig)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", cfg.Secrets.NodeID, err)
	}

	var opts []authn.Option
	if cfg.Confidential {
		opts = append(opts, authn.WithConfidentiality())
	}
	n := &Node{
		cfg:         cfg,
		id:          cfg.Secrets.NodeID,
		group:       cfg.Secrets.Group,
		enclave:     e,
		shielder:    authn.NewShielder(e, opts...),
		store:       store,
		tr:          tr,
		proto:       proto,
		lease:       tee.NewLeaseTable(tee.RealClock{}, 0.1),
		peers:       append([]string(nil), cfg.Secrets.Membership...),
		submitCh:    make(chan Command, 1024),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
		clientTable: make(map[string]clientRecord),
		leaseDur:    time.Duration(cfg.LeaderLeaseTicks) * cfg.TickEvery,
		inc:         make(map[string]uint64, len(cfg.Secrets.Incarnations)),
		sendNames:   make(map[string]chanName),
		replyNames:  make(map[string]chanName),
		outPending:  make(map[string][]authn.BatchItem),
	}
	n.bt, _ = tr.(netstack.BatchSender)
	if cfg.HeartbeatEveryTicks > 0 {
		n.mem = newMemberDriver(n.id, n.peers, cfg)
	}
	if cfg.AdmissionRate > 0 {
		n.adm = newAdmitState(cfg.AdmissionRate, cfg.AdmissionBurst)
	}
	if cfg.AdaptiveLease {
		n.al = newAdaptiveLease(n.leaseDur)
	}
	n.initTelemetry()
	if it, ok := tr.(netstack.Instrumented); ok {
		it.SetTelemetry(n.phase.netFlush, n.phase.netDwell)
	}
	for id, inc := range cfg.Secrets.Incarnations {
		n.inc[id] = inc
	}
	if cfg.Shielded {
		for _, p := range n.peers {
			if p == n.id {
				continue
			}
			for _, cq := range []string{n.peerChannel(n.id, p), n.peerChannel(p, n.id)} {
				if err := n.shielder.OpenGroupChannel(cq, attest.ChannelKey(cfg.Secrets.MasterKey, cq), n.group); err != nil {
					return nil, fmt.Errorf("node %s: %w", n.id, err)
				}
			}
		}
	}
	if len(cfg.Secrets.ShardMap) > 0 {
		// The configuration current at attestation time rides in the attested
		// secrets; adopting it needs no extra trust decision.
		if err := n.InstallShardMap(cfg.Secrets.ShardMap); err != nil {
			return nil, fmt.Errorf("node %s: attested shard map: %w", n.id, err)
		}
	}
	if d := cfg.Durability; d != nil {
		wal, err := seal.Open(d.Dir, seal.KeyFor(cfg.Secrets.MasterKey, n.id), n.id,
			d.Registrar, seal.Options{SnapshotEvery: d.SnapshotEvery, Fresh: d.Fresh, FsyncHist: n.phase.walFsync})
		if err != nil {
			return nil, fmt.Errorf("node %s: durability: %w", n.id, err)
		}
		n.wal = wal
		n.commitCh = make(chan commitReq, commitQueueDepth)
	}
	return n, nil
}

// InstallShardMap verifies a CAS-signed shard map against the attested map
// key and, if its epoch is newer than the current one, adopts it: the node's
// epoch (and its shielder's) moves up, so envelopes of older configurations
// are rejected from now on. Installing an older or equal epoch is a no-op.
// Safe from any goroutine.
func (n *Node) InstallShardMap(signedEnc []byte) error {
	if len(n.cfg.Secrets.MapKey) == 0 {
		return errors.New("core: no attested map key to verify shard map with")
	}
	signed, err := reconfig.DecodeSigned(signedEnc)
	if err != nil {
		return err
	}
	m, err := signed.Verify(n.cfg.Secrets.MapKey)
	if err != nil {
		return err
	}
	n.curMapMu.Lock()
	defer n.curMapMu.Unlock()
	if m.Epoch <= n.epoch.Load() {
		return nil
	}
	n.epoch.Store(m.Epoch) // curMapMu serialises all writers
	n.noteMembershipDiff(n.curShardMap, m)
	n.curMap = append([]byte(nil), signedEnc...)
	n.curShardMap = m
	n.shielder.SetEpoch(m.Epoch)
	n.cfg.Logf("node %s: adopted shard map epoch %d (%d groups)", n.id, m.Epoch, m.Groups())
	if n.ring != nil {
		n.trace("epoch-adopt", fmt.Sprintf("%d groups", m.Groups()))
	}
	return nil
}

// Epoch returns the node's current configuration epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// signedMap returns the encoded signed map of the current epoch (nil if none).
func (n *Node) signedMap() []byte {
	n.curMapMu.Lock()
	defer n.curMapMu.Unlock()
	return n.curMap
}

// Group returns the node's replication group (shard).
func (n *Node) Group() uint32 { return n.group }

// incOf returns a node's current incarnation as known here.
func (n *Node) incOf(id string) uint64 {
	n.incMu.Lock()
	defer n.incMu.Unlock()
	return n.incLocked(id)
}

// incLocked is incOf for callers holding incMu.
func (n *Node) incLocked(id string) uint64 {
	if v, ok := n.inc[id]; ok {
		return v
	}
	return 1
}

// cachedName returns names[key] if it was built for the incarnation pair
// (own, peer); otherwise it builds the name, caches it, and returns it.
// Holds incMu.
func cachedName(names map[string]chanName, key string, own, peer uint64, build func() string) string {
	if c, ok := names[key]; ok && c.own == own && c.peer == peer {
		return c.name
	}
	if len(names) >= maxCachedNames {
		clear(names)
	}
	c := chanName{own: own, peer: peer, name: build()}
	names[key] = c
	return c.name
}

// bumpInc raises a peer's incarnation (monotonic).
func (n *Node) bumpInc(id string, inc uint64) {
	n.incMu.Lock()
	defer n.incMu.Unlock()
	if n.inc[id] < inc {
		n.inc[id] = inc
	}
}

// peerChannel names the directional channel between two node incarnations.
// Embedding incarnations means a recovered (re-attested) node communicates
// over brand-new channels with fresh counters, exactly as §3.7 requires.
func (n *Node) peerChannel(from, to string) string {
	return peerChannelName(from, n.incOf(from), to, n.incOf(to))
}

// peerChannelName formats a peer channel name from both incarnations.
func peerChannelName(from string, fromInc uint64, to string, toInc uint64) string {
	return fmt.Sprintf("ch:%s@%d->%s@%d", from, fromInc, to, toInc)
}

// clientChannel names the directional channel between a client and a node.
func clientChannel(from, to string) string { return "cli:" + from + "->" + to }

// replyChannelName names a node incarnation's channel toward a client. From
// the second incarnation on, the node's identity is incarnation-qualified:
// a reborn replica (recovered, or a retired group id re-created by a grow)
// must not inherit a dead incarnation's counter state at the client — the
// client learns the incarnation from the CAS-signed shard map and opens the
// matching fresh channel. First incarnations keep the historical name.
// Nodes and clients both name the channel through this one function.
func replyChannelName(node string, inc uint64, clientID string) string {
	if inc > 1 {
		return clientChannel(fmt.Sprintf("%s@%d", node, inc), clientID)
	}
	return clientChannel(node, clientID)
}

// replyChannel names this node's current channel toward a client.
func (n *Node) replyChannel(clientID string) string {
	n.incMu.Lock()
	defer n.incMu.Unlock()
	own := n.incLocked(n.id)
	return cachedName(n.replyNames, clientID, own, 0, func() string {
		return replyChannelName(n.id, own, clientID)
	})
}

// ID returns the node identity.
func (n *Node) ID() string { return n.id }

// Peers returns the membership (including this node).
func (n *Node) Peers() []string { return append([]string(nil), n.peers...) }

// Store returns the node's KV store.
func (n *Node) Store() *kvstore.Store { return n.store }

// Protocol returns the wrapped protocol (observability and tests).
func (n *Node) Protocol() Protocol { return n.proto }

// Enclave returns the node's enclave.
func (n *Node) Enclave() *tee.Enclave { return n.enclave }

// Stats returns the node's authn-boundary counters.
func (n *Node) Stats() *Stats { return &n.stats }

// CommitDepth returns how many loop iterations are queued for the commit
// stage's fsync (a gauge; always zero on memory-only nodes). Together with
// Stats.PipelineStalls it shows whether the disk keeps up.
func (n *Node) CommitDepth() int { return len(n.commitCh) }

// OverflowDrops returns how many authenticated messages the authn layer
// discarded because a channel's future buffer was full. The batch verify
// path cannot always surface overflow as an error, so this counter is the
// only place those drops are visible.
func (n *Node) OverflowDrops() uint64 { return n.shielder.OverflowDrops() }

// RecoverLocal recovers the node's state from its sealed durable store:
// the newest snapshot plus the WAL suffix replay into the KV store, and
// slots the current shard map has migrated away from this group are
// truncated (their replayed entries are another group's state now). Must be
// called after NewNode and before Start (Start calls it itself if the
// caller did not, so recipe-node and tests need no extra step; the harness
// calls it explicitly to learn the outcome).
//
// Returns true when sealed state was recovered. A rollback, fork, or tamper
// rejection returns (false, nil): the event is counted in Stats.DropRollback,
// the directory is reset (the chain restarts past the registered counter),
// and the caller should rebuild through state transfer — ending with
// Checkpoint to anchor the rebuilt state. Only environmental failures (I/O
// errors) return a non-nil error.
func (n *Node) RecoverLocal() (bool, error) {
	if n.wal == nil {
		return false, nil
	}
	if n.walReady {
		return n.walRecovered, nil
	}
	var maxTS uint64
	recovered, err := n.wal.Recover(func(m kvstore.Mutation) error {
		// Deletes count toward the floor too: a versioned delete at TS X
		// means the log applied through X, and understating the floor would
		// let a restarted leader re-assign X under the standing tombstone.
		if m.Versioned && m.Version.TS > maxTS {
			maxTS = m.Version.TS
		}
		return n.store.Restore(m)
	})
	if err != nil {
		if errors.Is(err, seal.ErrRollback) || errors.Is(err, seal.ErrTampered) {
			// The host served stale, forked, or modified sealed state. Reject
			// it distinguishably, drop whatever the partial replay installed,
			// and restart the chain so the registrar stays monotonic.
			n.cfg.Logf("node %s: sealed recovery rejected: %v", n.id, err)
			n.trace("recovery-rejected", "sealed state rejected (rollback/fork/tamper); chain reset")
			n.stats.DropRollback.Add(1)
			n.store.DropIf(func(string) bool { return true })
			if rerr := n.wal.Reset(); rerr != nil {
				return false, rerr
			}
			n.walReady = true // positioned: Reset restarted the chain
			return false, nil
		}
		// Environmental (I/O) failure: the log is NOT positioned. walReady
		// stays false so a later call can retry.
		return false, err
	}
	if recovered {
		n.truncateForeignSlots()
		n.recoveredFloor = maxTS
		n.trace("recovery", "recovered sealed local state")
	}
	n.walReady = true
	n.walRecovered = recovered
	return recovered, nil
}

// truncateForeignSlots drops recovered entries (and floors) of hash slots
// the current shard map assigns to other groups: an elastic reconfiguration
// while this replica was down moved them, and the sealed WAL replayed them
// back. The attested shard map is fresh (it arrived with re-attestation), so
// this is exactly the source sweep the replica missed. Slots this group
// still writes dual-routed (transition maps) are kept.
func (n *Node) truncateForeignSlots() {
	n.curMapMu.Lock()
	m := n.curShardMap
	n.curMapMu.Unlock()
	if m == nil || m.Groups() <= 1 {
		return
	}
	dropped := n.store.DropIf(func(key string) bool {
		if strings.HasPrefix(key, FencePrefix) {
			return false // per-group control keys never migrate
		}
		slot := reconfig.SlotOf(key)
		if m.Slots[slot] == n.group {
			return false
		}
		if len(m.Next) > 0 && m.Next[slot] == n.group {
			return false // dual-routed to us mid-migration
		}
		return true
	})
	if dropped > 0 {
		n.cfg.Logf("node %s: recovery truncated %d entries of migrated-away slots", n.id, dropped)
	}
}

// Recovered reports whether sealed local recovery restored state (false for
// memory-only nodes and after a rejected recovery).
func (n *Node) Recovered() bool { return n.wal != nil && n.walRecovered }

// RecoveredFloor is the highest version timestamp local recovery restored.
// For total-order protocols (Snapshotter) every committed mutation at or
// below it is already present locally, so state transfer can skip that
// prefix (SyncFromFloor).
func (n *Node) RecoveredFloor() uint64 { return n.recoveredFloor }

// AdoptRecoveredFloor raises the node's recovered floor after an external
// reconciliation installed state beyond what its own WAL held (the harness's
// whole-group recovery merges the survivors' unions before starting any of
// them). Must be called before Start.
func (n *Node) AdoptRecoveredFloor(floor uint64) {
	if floor > n.recoveredFloor {
		n.recoveredFloor = floor
	}
}

// Checkpoint seals the store's current state as a snapshot, pruning the WAL
// it subsumes. The event loop calls it automatically once enough records
// accumulate; recovery flows call it to anchor freshly transferred state.
// Safe from any goroutine; a no-op without durability.
func (n *Node) Checkpoint() error {
	if n.wal == nil {
		return nil
	}
	return n.wal.WriteSnapshot(n.store.Dump)
}

// Start initialises the protocol and launches the event loop. With
// durability enabled it first completes local recovery (if the caller did
// not) and wires the store's mutation sink into the sealed WAL — from here
// on every committed mutation is logged and group-committed per iteration.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		if n.wal != nil {
			if _, err := n.RecoverLocal(); err != nil {
				// The log could not be positioned (I/O failure). Running with
				// an unpositioned log would fail every append, so durability
				// is explicitly off for this node's lifetime — loudly: the
				// node serves but persists nothing. Callers that need the
				// error (harness, recipe-node) call RecoverLocal themselves
				// before Start and propagate it instead of getting here.
				n.cfg.Logf("node %s: DURABILITY DISABLED, local recovery failed: %v", n.id, err)
			} else {
				n.store.SetMutationSink(func(m kvstore.Mutation) {
					n.iterAppends.Add(1)
					if err := n.wal.Append(m); err != nil {
						// A durable replica that cannot seal a mutation must
						// not acknowledge it — and a lost log entry cannot be
						// un-lost. Crash-stop (the fault model's only failure
						// mode): pending acks are withheld, peers take over,
						// and recovery rebuilds from the registered prefix.
						n.cfg.Logf("node %s: wal append failed, crash-stopping: %v", n.id, err)
						n.walBroken.Store(true)
						n.dumpTrace("wal append failed")
						n.enclave.Crash()
					}
				})
			}
		}
		n.proto.Init((*nodeEnv)(n))
		if n.recoveredFloor > 0 {
			if snap, ok := n.proto.(Snapshotter); ok {
				// The recovered store covers the log up to the floor: fast-
				// forward so the protocol resumes at the right position
				// instead of re-assigning used indices to new commands.
				snap.InstallSnapshot(n.recoveredFloor)
			}
		}
		n.publishStatus()
		go n.run()
	})
}

// publishStatus snapshots the protocol status for external readers. Called
// from the event loop (and once at Start, before the loop exists). A new
// snapshot is stored only when the status changed, so a steady-state
// iteration compares and allocates nothing.
func (n *Node) publishStatus() {
	st := n.proto.Status()
	old := n.status.Load()
	if old != nil && *old == st {
		return
	}
	if n.ring != nil && (old == nil || old.Leader != st.Leader || old.Term != st.Term) {
		// Leader/term transitions are rare enough that the formatted detail
		// string is affordable.
		n.trace("leader-change", fmt.Sprintf("leader=%s term=%d", st.Leader, st.Term))
	}
	snap := new(Status) // not &st: st must stay on the stack when unchanged
	*snap = st
	n.status.Store(snap)
}

// Discard releases a built-but-never-started node's resources — its
// transport registration and sealed-log handle — so the identity can be
// rebuilt (e.g. after a sibling failed mid-build). Only for nodes that were
// never Started; a running node uses Stop.
func (n *Node) Discard() {
	_ = n.tr.Close()
	if n.wal != nil {
		n.wal.Abandon()
	}
}

// Stop terminates the event loop and waits for it to exit. The transport is
// closed as part of stopping, and the sealed WAL commits its tail and
// closes — unless the node crashed, in which case the tail is abandoned
// un-committed, as a real failure would leave it.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stopCh)
		<-n.doneCh
		_ = n.tr.Close()
		if n.wal != nil {
			if n.enclave.Crashed() {
				n.wal.Abandon()
			} else if err := n.wal.Close(); err != nil {
				n.cfg.Logf("node %s: wal close: %v", n.id, err)
			}
		}
	})
}

// Crash simulates a machine failure: the enclave crash-stops and the node
// detaches from the network without orderly shutdown. The sealed WAL is
// abandoned, not committed — appends since the last group commit stay
// unfsynced and unregistered, so crash/recover tests exercise genuine
// power-loss recovery rather than a clean close.
func (n *Node) Crash() {
	n.dumpTrace("simulated machine failure")
	n.enclave.Crash()
	n.Stop()
}

// Submit enqueues a client command at this node (used by the in-process
// client path and tests; remote clients arrive through the transport).
func (n *Node) Submit(cmd Command) error {
	select {
	case <-n.stopCh:
		return ErrStopped
	default:
	}
	select {
	case n.submitCh <- cmd:
		return nil
	default:
		return ErrBusy
	}
}

// Status exposes the protocol status (the snapshot published at the end of
// the last event-loop iteration; safe from any goroutine).
func (n *Node) Status() Status {
	if st := n.status.Load(); st != nil {
		return *st
	}
	return Status{}
}

// maxLoopDrain bounds how many queued packets and commands one event-loop
// iteration consumes before flushing, so a flood cannot starve ticks.
const maxLoopDrain = 256

func (n *Node) run() {
	defer close(n.doneCh)
	if n.commitCh != nil {
		// The committer drains and exits before doneCh closes, so Stop's WAL
		// close (or Crash's abandon) never races an in-flight fsync. Replies
		// whose fsync completes still go out; ones never queued are dropped
		// with the node (clients retry elsewhere).
		committed := make(chan struct{})
		go n.committer(committed)
		defer func() {
			close(n.commitCh)
			<-committed
		}()
	}
	ticker := time.NewTicker(n.cfg.TickEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case pkt, ok := <-n.tr.Inbox():
			if !ok {
				return
			}
			n.handlePacket(pkt)
			n.drainBatch(maxLoopDrain - 1)
		case cmd := <-n.submitCh:
			n.dispatchCommand(cmd)
			n.drainBatch(maxLoopDrain - 1)
		case <-ticker.C:
			n.proto.Tick()
			if n.cfg.Shielded {
				n.flushFutures()
			}
			if n.mem != nil {
				n.memTick()
			}
			if n.al != nil {
				n.adaptTick()
			}
		}
		n.flushBatch()
	}
}

// drainBatch opportunistically consumes up to budget more queued packets and
// commands without blocking, so a burst is dispatched within one iteration
// and every message it produces coalesces into shared envelopes and packets.
func (n *Node) drainBatch(budget int) {
	for ; budget > 0; budget-- {
		select {
		case pkt, ok := <-n.tr.Inbox():
			if !ok {
				return
			}
			n.handlePacket(pkt)
		case cmd := <-n.submitCh:
			n.dispatchCommand(cmd)
		default:
			return
		}
	}
}

// flushBatch ends one event-loop iteration: batching protocols emit their
// deferred messages, then — with durability on — the iteration's parked
// client replies go to the commit stage, which group-commits every mutation
// the iteration applied in one fsync before sending them, so an
// acknowledgement never outruns the fsync backing it. Peer traffic then
// flushes as batched envelopes.
func (n *Node) flushBatch() {
	if bf, ok := n.proto.(BatchFlusher); ok {
		bf.FlushBatch()
	}
	n.publishStatus()
	if n.wal != nil {
		n.handoffCommit()
	}
	n.flushOutbound()
}

// handlePacket splits coalesced transport packets and processes each frame.
func (n *Node) handlePacket(pkt netstack.Packet) {
	frames, multi, err := netstack.SplitFrames(pkt.Data)
	if err != nil {
		n.stats.DropMalformed.Add(1)
		return
	}
	if !multi {
		n.handleFrame(pkt.From, pkt.Data)
		return
	}
	for _, f := range frames {
		n.handleFrame(pkt.From, f)
	}
}

// handleFrame verifies (if shielded) and dispatches one wire frame.
func (n *Node) handleFrame(from string, data []byte) {
	if !n.cfg.Shielded {
		w, err := decodeWire(data, &n.names)
		if err != nil {
			n.stats.DropMalformed.Add(1)
			return
		}
		n.dispatchWire(from, w)
		return
	}

	// Zero-copy decode: the envelope aliases the packet buffer, which stays
	// alive for as long as the authn layer retains the envelope (buffered
	// futures included), so no per-frame payload copy is needed; an open
	// channel's name comes from the shielder's table, not a fresh copy.
	var env authn.Envelope
	if err := n.shielder.DecodeEnvelopeInto(&env, data); err != nil {
		n.stats.DropMalformed.Add(1)
		return
	}
	n.ensureChannel(env.Channel)
	var verifyStart time.Time
	if n.phase.ingressVerify != nil {
		verifyStart = time.Now()
	}
	status, delivered, err := n.shielder.Verify(env)
	if !verifyStart.IsZero() {
		n.phase.ingressVerify.RecordSince(verifyStart)
	}
	if err != nil {
		n.countVerifyError(env.Channel, from, err)
		return
	}
	if status == authn.Buffered {
		n.stats.Buffered.Add(1)
		return
	}
	for _, d := range delivered {
		if w, ok := n.decodeDelivered(d); ok {
			n.dispatchWire(w.From, w)
		}
	}
}

// countVerifyError maps one Verify failure onto its drop counter, with the
// stale-epoch side effect of telling a lagging client the current map.
func (n *Node) countVerifyError(channel, from string, err error) {
	switch {
	case errors.Is(err, authn.ErrReplay):
		n.stats.DropReplay.Add(1)
	case errors.Is(err, authn.ErrBadMAC):
		n.stats.DropMAC.Add(1)
	case errors.Is(err, authn.ErrWrongView):
		n.stats.DropView.Add(1)
	case errors.Is(err, authn.ErrWrongGroup):
		n.stats.DropGroup.Add(1)
	case errors.Is(err, authn.ErrFutureOverflow):
		// Counted by the shielder (OverflowDrops); the message was
		// authentic, so it is not a malformed-packet event.
	case errors.Is(err, authn.ErrStaleEpoch):
		n.stats.DropEpoch.Add(1)
		// A stale client is a lagging router, not an attacker (the
		// attacker case is indistinguishable but gets the same useless
		// answer): tell it the current configuration so it refreshes
		// instead of burning its retry budget. The notice is shielded on
		// this node's own channel, so it cannot be forged.
		if sender, ok := channelSender(channel); ok && strings.HasPrefix(channel, "cli:") {
			n.sendEpochNotice(sender, from)
		}
	default:
		n.stats.DropMalformed.Add(1)
	}
}

// decodeDelivered turns one verified envelope into its wire message,
// enforcing that the channel name authenticates the sender: a message
// claiming to be From=X must arrive on X's directional channel.
func (n *Node) decodeDelivered(d authn.Envelope) (*Wire, bool) {
	w, err := decodeWire(d.Payload, &n.names)
	if err != nil {
		n.stats.DropMalformed.Add(1)
		return nil, false
	}
	if sender, ok := channelSender(d.Channel); ok && sender != w.From {
		n.stats.DropMAC.Add(1)
		return nil, false
	}
	n.stats.Delivered.Add(1)
	return w, true
}

// ensureChannel lazily opens channels not known at construction: client
// channels and peer channels of newer incarnations (recovered nodes). Keys
// are derived from the master key, so only attested principals holding it
// can produce valid MACs — opening on demand grants nothing to an attacker.
func (n *Node) ensureChannel(cq string) {
	if !strings.HasPrefix(cq, "cli:") && !strings.HasPrefix(cq, "ch:") {
		return
	}
	if n.shielder.HasChannel(cq) {
		return
	}
	// Lazily opened channels are bound to this node's own group: a channel
	// name carried in from another shard gets this group's domain, so the
	// foreign envelope's group check fails even though its MAC verifies.
	key := attest.ChannelKey(n.cfg.Secrets.MasterKey, cq)
	if strings.HasPrefix(cq, "cli:") {
		_ = n.shielder.OpenLooseGroupChannel(cq, key, n.group)
		return
	}
	_ = n.shielder.OpenGroupChannel(cq, key, n.group)
}

// channelSender extracts the sending identity from a channel name,
// stripping any incarnation suffix.
func channelSender(cq string) (string, bool) {
	rest := cq
	switch {
	case strings.HasPrefix(cq, "ch:"):
		rest = cq[len("ch:"):]
	case strings.HasPrefix(cq, "cli:"):
		rest = cq[len("cli:"):]
	default:
		return "", false
	}
	i := strings.Index(rest, "->")
	if i < 0 {
		return "", false
	}
	sender := rest[:i]
	if at := strings.Index(sender, "@"); at >= 0 {
		sender = sender[:at]
	}
	return sender, true
}

// futureFlushTicks is how many ticks an out-of-order buffer may wait for
// the gap to close before the node skips it (lost packet).
const futureFlushTicks = 2

// flushFutures drains stranded out-of-order messages (lost-packet gaps).
func (n *Node) flushFutures() {
	for _, d := range n.shielder.TickFutures(futureFlushTicks) {
		if w, ok := n.decodeDelivered(d); ok {
			n.dispatchWire(w.From, w)
		}
	}
}

// dispatchWire routes one verified message.
func (n *Node) dispatchWire(from string, w *Wire) {
	if w.Group != n.group {
		// Wire-level group addressing backs up the envelope domain (and is
		// the only shard guard in native/unshielded mode): messages for
		// another replication group never reach the protocol.
		n.stats.DropGroup.Add(1)
		return
	}
	if w.Epoch < n.epoch.Load() {
		// Wire-level epoch addressing backs up the envelope domain the same
		// way (and is the only stale-configuration guard in native mode).
		// Newer epochs pass: the sender may have adopted a map we have not
		// seen yet; its message is authentic and fresh either way.
		n.stats.DropEpoch.Add(1)
		if w.Kind == KindClientReq && w.Cmd != nil && w.Cmd.ClientID != "" {
			n.sendEpochNotice(w.Cmd.ClientID, w.Cmd.ClientAddr)
		}
		return
	}
	switch w.Kind {
	case KindClientReq:
		if w.Cmd == nil {
			n.stats.DropMalformed.Add(1)
			return
		}
		n.dispatchCommand(*w.Cmd)
	case KindStateReq:
		n.serveStatePage(from, w)
	case KindStateResp:
		n.handleStateResp(from, w)
	case KindJoin:
		// A freshly attested incarnation of w.Key announced itself; future
		// sends to it use its new channels — and the failure detector forgets
		// any declared failure of the old incarnation.
		n.bumpInc(w.Key, w.Index)
		if n.mem != nil {
			n.memEvents(n.mem.det.Revive(w.Key))
		}
	case KindPing:
		// Probe traffic deliberately does NOT renew the leader lease (only
		// protocol messages in the default branch do): a leader that can ping
		// but not replicate must still lose its lease.
		n.handlePing(from, w)
	case KindPingAck:
		if n.mem != nil {
			n.memEvents(n.mem.det.OnAck(from, w.Index))
			n.memEvents(n.mem.det.ApplyGossip(w.Value))
		}
	case KindPingReq:
		// Relay an indirect probe: ping the target on the origin's behalf,
		// carrying the origin so the target acks it directly.
		if w.Key != "" && w.Key != n.id {
			n.sendWire(w.Key, &Wire{Kind: KindPing, Key: from, Index: w.Index, Value: n.memGossip()})
		}
	case KindLeaseWidth:
		if n.al != nil {
			n.handleLeaseWidth(from, w)
		}
	case KindLeaseWidthAck:
		if n.al != nil {
			n.handleLeaseWidthAck(from, w)
		}
	case KindClientResp, KindRedirect, KindEpochNotice, KindBusy:
		// Node-to-node these are unexpected; ignore.
	default:
		n.proto.Handle(from, w)
		n.renewLeaderLease(from)
	}
}

// dispatchCommand applies client-table dedup, then redirects or submits.
func (n *Node) dispatchCommand(cmd Command) {
	if cmd.ClientID != "" {
		n.clientMu.Lock()
		rec, ok := n.clientTable[cmd.ClientID]
		n.clientMu.Unlock()
		if ok {
			if cmd.Seq < rec.seq {
				return // stale duplicate
			}
			if cmd.Seq == rec.seq {
				n.sendClientResp(cmd, rec.res) // retransmit cached result
				return
			}
		}
		// Admission gate: after dedup (a cached retransmit costs nothing and
		// must stay answerable), before any protocol work. Internal commands
		// (fence writes, migration control) carry no ClientID and bypass it.
		if n.adm != nil && !n.admitCommand(&cmd) {
			n.stats.AdmissionRejects.Add(1)
			n.trace("admission-reject", cmd.ClientID)
			if cmd.ClientAddr != "" {
				// Busy replies bypass the durability deferral: nothing was
				// submitted, so there is no write to fsync before answering.
				n.sendToClientNow(cmd, &Wire{Kind: KindBusy, Index: cmd.Seq})
			}
			return
		}
	}
	st := n.proto.Status()
	if !st.IsCoordinator {
		if cmd.Op == OpGet && n.cfg.ReadPolicy == ReadAnyClean {
			// Scale-out read path: a non-coordinator replica may answer a
			// clean, committed read directly instead of redirecting.
			if cr, ok := n.proto.(CleanReader); ok && cr.ServeCleanRead(cmd) {
				return
			}
		}
		if st.Leader != "" && st.Leader != n.id {
			n.sendRedirect(cmd, st.Leader)
		}
		// No known coordinator: drop; the client retries elsewhere.
		return
	}
	n.proto.Submit(cmd)
}

// renewLeaderLease keeps the trusted leader lease alive while verified
// messages from the current leader keep arriving.
func (n *Node) renewLeaderLease(from string) {
	st := n.proto.Status()
	if st.Leader == "" || from != st.Leader {
		return
	}
	_, _ = n.lease.Grant("leader", from, n.grantWidth())
}

// holdsLeaderLease reports whether this node holds its own leader lease on
// the holder side (no drift margin): the strict view that expires before any
// follower's grantor-side view does, so a deposed leader stops serving local
// reads before a successor can be elected, let alone commit. A
// single-replica group trivially holds it — there is no follower to grant
// one and none whose divergence could matter.
func (n *Node) holdsLeaderLease() bool {
	if len(n.peers) == 1 {
		return true
	}
	return n.lease.HolderActive("leader", n.id)
}

// renewOwnLease (re-)grants this node's own leader lease in its local lease
// table. Protocols call it (via ReadEnv.RenewLease) only on quorum evidence
// of continued leadership — never on a single peer's message, which a
// minority-partitioned leader could still receive while the majority elects
// a successor.
func (n *Node) renewOwnLease() {
	_, _ = n.lease.Grant("leader", n.id, n.holderWidth())
}

// LeaderAlive reports whether the trusted leader lease is still active.
func (n *Node) LeaderAlive() bool {
	st := n.proto.Status()
	if st.Leader == "" {
		return false
	}
	return !n.lease.Expired("leader")
}

// sendChannel returns (opening if needed) this node's send channel to a
// peer, tracking incarnation bumps.
func (n *Node) sendChannel(to string) string {
	n.incMu.Lock()
	own, peer := n.incLocked(n.id), n.incLocked(to)
	cq := cachedName(n.sendNames, to, own, peer, func() string {
		return peerChannelName(n.id, own, to, peer)
	})
	n.incMu.Unlock()
	if !n.shielder.HasChannel(cq) {
		_ = n.shielder.OpenGroupChannel(cq, attest.ChannelKey(n.cfg.Secrets.MasterKey, cq), n.group)
	}
	return cq
}

// AnnounceJoin broadcasts this node's (re-)attested incarnation to the
// membership so peers switch to its fresh channels (§3.7 step 3).
func (n *Node) AnnounceJoin() {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.sendWire(p, &Wire{Kind: KindJoin, Key: n.id, Index: n.incOf(n.id)})
	}
	// Called from outside the event loop: flush immediately rather than
	// waiting for the loop's next iteration.
	n.flushOutbound()
}

// defaultMaxBatch is the shield-batch cap when NodeConfig.MaxBatch is unset.
const defaultMaxBatch = 64

// maxBatch returns the effective shield-batch cap.
func (n *Node) maxBatch() int {
	if n.cfg.MaxBatch > 0 {
		return n.cfg.MaxBatch
	}
	return defaultMaxBatch
}

// sendWire shields (or plainly encodes) and transmits a message to a peer.
// In batched mode the message is queued and rides the next flush — end of
// the current event-loop iteration — in a shared envelope and packet. The
// encode buffers come from the shared pool: on paths where the transport
// copies (Send) they are recycled immediately; on the coalescing path they
// are recycled by the flush once their bytes are sealed into an envelope.
func (n *Node) sendWire(to string, w *Wire) {
	w.From = n.id
	w.Group = n.group
	w.Epoch = n.epoch.Load()
	if !n.cfg.Shielded {
		if n.qsendCopies() {
			payload := w.AppendTo(bufpool.Get(w.EncodedSize()))
			_ = n.tr.Send(to, payload) // Send copies; the buffer is ours again
			bufpool.Put(payload)
			return
		}
		n.qsend(to, w.Encode()) // QueueSend takes ownership: fresh buffer
		return
	}
	payload := w.AppendTo(bufpool.Get(w.EncodedSize()))
	if n.maxBatch() == 1 {
		// Per-message baseline: one envelope, one MAC, one packet per send.
		env, err := n.shielder.Shield(n.sendChannel(to), w.Kind, payload)
		if err != nil {
			bufpool.Put(payload)
			n.cfg.Logf("node %s: shield to %s: %v", n.id, to, err)
			return
		}
		out := env.AppendTo(bufpool.Get(env.EncodedSize()))
		_ = n.tr.Send(to, out) // Send copies; both buffers are ours again
		bufpool.Put(out)
		authn.RecyclePayload(&env)
		bufpool.Put(payload)
		return
	}
	n.outMu.Lock()
	q, ok := n.outPending[to]
	if !ok {
		n.outOrder = append(n.outOrder, to)
		if k := len(n.outFreeItems); k > 0 {
			q = n.outFreeItems[k-1]
			n.outFreeItems = n.outFreeItems[:k-1]
		}
	}
	n.outPending[to] = append(q, authn.BatchItem{Kind: w.Kind, Payload: payload})
	n.outMu.Unlock()
}

// qsendCopies reports whether qsend routes through the copying Send — in
// which case a buffer handed to it stays owned by the caller (poolable) —
// rather than QueueSend, which takes ownership. The buffer-ownership
// decisions in the send paths key off this one predicate.
func (n *Node) qsendCopies() bool {
	return n.bt == nil || n.maxBatch() == 1
}

// qsend hands one encoded payload to the transport, through its per-peer
// send queue when coalescing is on, directly otherwise.
func (n *Node) qsend(to string, data []byte) {
	if n.qsendCopies() {
		_ = n.tr.Send(to, data)
		return
	}
	if err := n.bt.QueueSend(to, data); err != nil {
		_ = n.tr.Send(to, data)
	}
}

// flushOutbound drains the per-peer coalescing buffers — each run of up to
// MaxBatch messages becomes one batched envelope (one MAC, one enclave
// transition) — and flushes the transport's packet queue. Safe from any
// goroutine; external senders (recovery, join announcements) call it
// directly after queueing.
//
// Buffer discipline: each peer's queue is taken out of the table per peer
// (so concurrent senders keep queueing), the sealed envelope is encoded into
// a fresh buffer whose ownership passes to the transport via QueueSend, and
// everything else — the item payloads, the envelope's batch body, the item
// and order slices — returns to its pool or freelist.
func (n *Node) flushOutbound() {
	n.outMu.Lock()
	if len(n.outOrder) == 0 {
		// Idle iteration: nothing queued.
		n.outMu.Unlock()
		n.flushTransport()
		return
	}
	order := n.outOrder
	n.outOrder = nil
	if k := len(n.outFreeOrder); k > 0 {
		n.outOrder = n.outFreeOrder[k-1]
		n.outFreeOrder = n.outFreeOrder[:k-1]
	}
	n.outMu.Unlock()
	for _, to := range order {
		n.outMu.Lock()
		items := n.outPending[to]
		delete(n.outPending, to)
		n.outMu.Unlock()
		if len(items) == 0 {
			continue
		}
		n.sealAndSend(to, items)
		n.releaseItems(items)
	}
	n.outMu.Lock()
	if len(n.outFreeOrder) < maxOutFreelist {
		n.outFreeOrder = append(n.outFreeOrder, order[:0])
	}
	n.outMu.Unlock()
	n.flushTransport()
}

// sealAndSend seals one peer's coalesced items into batched envelopes (one
// MAC and one enclave transition per MaxBatch-sized chunk) and hands the
// encoded packets to the transport. The shielder's channel table and the
// transport queue are both thread-safe, so off-loop flushers (recovery, join
// announcements) may call it too.
func (n *Node) sealAndSend(to string, items []authn.BatchItem) {
	if n.phase.egressSeal != nil {
		start := time.Now()
		defer n.phase.egressSeal.RecordSince(start)
	}
	cq := n.sendChannel(to)
	rest := items
	for len(rest) > 0 {
		chunk := rest
		if mb := n.maxBatch(); len(chunk) > mb {
			chunk = chunk[:mb]
		}
		rest = rest[len(chunk):]
		env, err := n.shielder.ShieldBatch(cq, chunk)
		if err != nil {
			// Nothing sealed: the unsent items' pooled encode buffers go
			// back to the pool, not to the GC — this path fires exactly
			// when churn is highest (a channel pruned by reconfiguration
			// mid-flush).
			n.cfg.Logf("node %s: shield batch to %s: %v", n.id, to, err)
			for i := range chunk {
				bufpool.Put(chunk[i].Payload)
			}
			for i := range rest {
				bufpool.Put(rest[i].Payload)
			}
			return
		}
		n.qsend(to, env.AppendTo(make([]byte, 0, env.EncodedSize())))
		// The envelope is encoded: recycle its pooled batch body (or
		// sealed ciphertext), then the wire-encode buffers it was built
		// from. A one-item chunk degrades to a plain Shield whose payload
		// aliases the item's buffer; RecyclePayload is a no-op there and
		// the item loop below frees the shared buffer exactly once.
		authn.RecyclePayload(&env)
		for i := range chunk {
			bufpool.Put(chunk[i].Payload)
		}
	}
}

// releaseItems returns a consumed per-peer item slice to the freelist.
func (n *Node) releaseItems(items []authn.BatchItem) {
	n.outMu.Lock()
	for i := range items {
		items[i] = authn.BatchItem{} // drop payload refs before reuse
	}
	if len(n.outFreeItems) < maxOutFreelist {
		n.outFreeItems = append(n.outFreeItems, items[:0])
	}
	n.outMu.Unlock()
}

// maxOutFreelist bounds the coalescing freelists (entries, not bytes); peers
// are few, so the bound exists only to cap pathological churn.
const maxOutFreelist = 64

// flushTransport flushes the transport's per-peer packet queue, which may
// hold raw (native-mode) sends queued directly via qsend.
func (n *Node) flushTransport() {
	if !n.qsendCopies() {
		_ = n.bt.Flush()
	}
}

// sendToClient ships a reply to a client. With durability on, the reply is
// parked until the end of the event-loop iteration and sent by the commit
// stage after the WAL group commit: the mutations backing it must be
// fsynced before the client can observe an acknowledgement, or a power loss
// could forget an acked write. Memory-only nodes send immediately.
// Event-loop goroutine only when wal != nil.
func (n *Node) sendToClient(cmd Command, w *Wire) {
	if n.wal != nil {
		n.deferredReplies = append(n.deferredReplies, deferredReply{cmd: cmd, w: w})
		return
	}
	n.sendToClientNow(cmd, w)
}

// sendToClientNow shields a reply onto the client's directional channel.
// Client replies always go out per message (no coalescing), so the encode
// buffers are pooled and recycled as soon as the transport's copying Send
// returns.
func (n *Node) sendToClientNow(cmd Command, w *Wire) {
	w.From = n.id
	w.Group = n.group
	w.Epoch = n.epoch.Load()
	payload := w.AppendTo(bufpool.Get(w.EncodedSize()))
	if !n.cfg.Shielded {
		_ = n.tr.Send(cmd.ClientAddr, payload)
		bufpool.Put(payload)
		return
	}
	cq := n.replyChannel(cmd.ClientID)
	if !n.shielder.HasChannel(cq) {
		_ = n.shielder.OpenLooseGroupChannel(cq, attest.ChannelKey(n.cfg.Secrets.MasterKey, cq), n.group)
	}
	env, err := n.shielder.Shield(cq, w.Kind, payload)
	if err != nil {
		bufpool.Put(payload)
		n.cfg.Logf("node %s: shield client reply: %v", n.id, err)
		return
	}
	out := env.AppendTo(bufpool.Get(env.EncodedSize()))
	_ = n.tr.Send(cmd.ClientAddr, out)
	bufpool.Put(out)
	authn.RecyclePayload(&env)
	bufpool.Put(payload)
}

func (n *Node) sendClientResp(cmd Command, r Result) {
	n.sendToClient(cmd, &Wire{Kind: KindClientResp, Index: cmd.Seq, Res: &r})
}

func (n *Node) sendRedirect(cmd Command, leader string) {
	n.sendToClient(cmd, &Wire{Kind: KindRedirect, Index: cmd.Seq, Key: leader})
}

// noticeCooldown bounds how often one client is sent an epoch notice. A
// genuine lagging client refreshes off its first notice; the limit exists
// so replayed stale envelopes cannot buy an attacker one shielded
// signed-map send per frame (a work amplifier inside the trust base).
const noticeCooldown = 50 * time.Millisecond

// sendEpochNotice ships the current signed shard map to a client observed
// routing under a stale epoch, so it can refresh instead of timing out its
// whole retry budget. clientID keys the rate limit; addr is the transport
// address the request arrived from.
//
// The notice is deliberately sent OUTSIDE the shielded channels: its
// payload is self-authenticating (the client verifies the CAS's ed25519
// signature and only ever adopts strictly newer epochs), and a channel
// cannot be assumed — the whole point of the notice is that the client's
// view of the membership is stale, e.g. it may not know this node's current
// incarnation and so could not verify an envelope from it. An attacker can
// at most replay a genuine newer map, which every epoch is designed to
// tolerate clients adopting early.
func (n *Node) sendEpochNotice(clientID, addr string) {
	if addr == "" {
		return
	}
	now := time.Now()
	n.curMapMu.Lock()
	if n.lastNotice == nil {
		n.lastNotice = make(map[string]time.Time)
	}
	if len(n.lastNotice) > 4096 {
		n.lastNotice = make(map[string]time.Time) // coarse reset bounds memory
	}
	if last, ok := n.lastNotice[clientID]; ok && now.Sub(last) < noticeCooldown {
		n.curMapMu.Unlock()
		return
	}
	n.lastNotice[clientID] = now
	n.curMapMu.Unlock()
	w := &Wire{Kind: KindEpochNotice, From: n.id, Group: n.group,
		Epoch: n.epoch.Load(), Term: n.epoch.Load(), Value: n.signedMap()}
	_ = n.tr.Send(addr, w.Encode())
}
