// Package recipe is the public API of the Recipe library: a hardware-
// assisted transformation of Crash-Fault-Tolerant replication protocols for
// untrusted (Byzantine) cloud environments, reproducing "Recipe:
// Hardware-Accelerated Replication Protocols" (MIDDLEWARE 2025).
//
// Recipe wraps an unmodified CFT protocol in a distributed trusted computing
// base built from (simulated) TEEs: remote attestation gates membership,
// every message is authenticated and sequence-numbered inside the TEE
// (transferable authentication + non-equivocation), failure detection uses a
// trusted lease, and recovered replicas re-attest as fresh identities. The
// result tolerates f Byzantine infrastructure faults with only 2f+1
// replicas, versus 3f+1 for classical BFT.
//
// Quickstart:
//
//	cluster, err := recipe.NewCluster(recipe.Options{Protocol: recipe.Raft})
//	if err != nil { ... }
//	defer cluster.Stop()
//	client, err := cluster.NewClient()
//	if err != nil { ... }
//	client.Put("greeting", []byte("hello"))
//	v, _ := client.Get("greeting")
//
// Four CFT protocols ship transformed out of the box (the R-* protocols of
// the paper): Raft, Chain Replication, ABD, and AllConcur. Two classical BFT
// baselines (PBFT, Damysus) are included for comparison benchmarks.
package recipe

import (
	"errors"
	"fmt"
	"io"
	"time"

	"recipe/internal/core"
	"recipe/internal/harness"
	"recipe/internal/netstack"
	"recipe/internal/tee"
	"recipe/internal/telemetry"
)

// Protocol selects the replication protocol a cluster runs.
type Protocol string

// The supported protocols.
const (
	// Raft is leader-based with total ordering (R-Raft).
	Raft Protocol = "raft"
	// ChainReplication is leader-based with per-key ordering and local tail
	// reads (R-CR).
	ChainReplication Protocol = "cr"
	// CRAQ is chain replication with apportioned queries: committed ("clean")
	// keys are read locally at every replica (R-CRAQ). A library extension
	// beyond the paper's four evaluated protocols, from the same taxonomy
	// row (Table 1).
	CRAQ Protocol = "craq"
	// ABD is a leaderless linearizable multi-writer register (R-ABD).
	ABD Protocol = "abd"
	// AllConcur is leaderless atomic broadcast with total ordering
	// (R-AllConcur).
	AllConcur Protocol = "allconcur"
	// PBFT is the classical BFT baseline (3f+1 replicas); it runs without
	// the Recipe transformation, for comparison.
	PBFT Protocol = "pbft"
	// Damysus is the hybrid TEE-BFT baseline (2f+1 replicas), for
	// comparison.
	Damysus Protocol = "damysus"
)

// ReadPolicy selects how reads are served relative to the consensus path;
// see the core constants re-exported below. The zero value, ReadLeaseLocal,
// is the default: coordinators answer locally under an active trusted lease.
type ReadPolicy = core.ReadPolicy

// The read policies.
const (
	// ReadLeaderOnly routes every read through the full consensus path at
	// the coordinator: the slowest, assumption-free baseline.
	ReadLeaderOnly = core.ReadLeaderOnly
	// ReadLeaseLocal (the default) lets the coordinator serve committed
	// reads locally while its TEE-clock-bounded lease is fresh.
	ReadLeaseLocal = core.ReadLeaseLocal
	// ReadAnyClean additionally lets any replica with a committed, clean
	// version answer, with clients fanning reads across shard members.
	// Reads are session-monotonic rather than linearizable.
	ReadAnyClean = core.ReadAnyClean
)

// ParseReadPolicy converts a flag spelling ("leader-only", "lease-local",
// "any-clean") to a ReadPolicy.
func ParseReadPolicy(s string) (ReadPolicy, error) { return core.ParseReadPolicy(s) }

// Options configures a cluster. The zero value runs a 3-node R-Raft cluster
// with the SGX-like TEE cost model over the shielded direct-I/O stack.
type Options struct {
	// Protocol selects the replication protocol (default Raft).
	Protocol Protocol
	// Nodes is the per-shard replica count (default: 3, or 4 for PBFT).
	Nodes int
	// Shards is the number of replication groups (default 1). Each shard is
	// an independent Nodes-replica group owning a hash partition of the
	// keyspace; clients route each key to its owning group. Shards share the
	// network fabric, the attestation CAS, and the per-machine TEE
	// platforms, and each group has its own authn MAC domain — a valid
	// message captured in one shard is rejected if replayed into another.
	Shards int
	// Native disables the Recipe transformation, running the raw CFT
	// protocol without authentication (the paper's native baseline). Only
	// meaningful for the four CFT protocols.
	Native bool
	// Confidential additionally encrypts values and message payloads,
	// providing confidentiality beyond the BFT model (paper Fig 5).
	Confidential bool
	// NoTEECost disables the simulated SGX cost model (useful in tests).
	NoTEECost bool
	// Durability gives every replica a sealed durable store: committed
	// operations append to an encrypted, rollback-protected write-ahead log
	// (snapshot-compacted), so crashed replicas recover from local disk and
	// a whole shard survives simultaneous power loss with zero lost
	// acknowledged writes. Freshness is anchored at the attestation CAS;
	// rolled-back sealed state is rejected and counted in
	// SecurityStats.RejectedRollback. See docs/operations.md.
	Durability bool
	// DataDir is where replica data lives when Durability is on (default: a
	// temporary directory owned by the cluster, removed on Stop).
	DataDir string
	// TickEvery overrides the protocol tick cadence.
	TickEvery time.Duration
	// ReadPolicy selects how reads are served (default ReadLeaseLocal). See
	// the "Read path" section of ARCHITECTURE.md for the trust argument and
	// docs/operations.md for tuning guidance.
	ReadPolicy ReadPolicy
	// SessionCache, when > 0, gives every client an epoch-coherent read
	// cache of that many keys: repeat reads of a key the session already
	// observed under the current configuration epoch are answered without
	// network traffic, and every published shard map invalidates the cache
	// wholesale. 0 disables caching.
	SessionCache int
	// SelfManage turns on the self-managing membership plane: every replica
	// runs a SWIM-style failure detector (heartbeat probes with piggybacked
	// suspicion gossip over the shielded wire), and the cluster auto-evicts a
	// majority-condemned replica by publishing a new CAS-signed shard map —
	// clients learn the eviction like any reconfiguration — then auto-repairs
	// it (sealed local recovery + suffix state transfer + signed rejoin
	// republish) with zero operator calls. See ARCHITECTURE.md, "Membership &
	// health".
	SelfManage bool
	// HeartbeatEveryTicks sets the failure-detector probe cadence in ticks
	// (0 with SelfManage = every 2 ticks; 0 otherwise = detector off).
	HeartbeatEveryTicks int
	// SuspicionMult scales how long a suspected replica may refute its
	// suspicion before being declared failed (0 = default).
	SuspicionMult int
	// AdmissionRate, when > 0, arms each replica's per-client token-bucket
	// admission gate at that many ops/s per client. Shed operations receive
	// a distinguishable retriable "busy" reply (clients back off with full
	// jitter and retry) and count in SecurityStats.AdmissionRejects.
	AdmissionRate float64
	// AdmissionBurst sets the admission bucket depth (0 = rate/10, min 1).
	AdmissionBurst int
	// AdaptiveLease lets coordinators widen the leader lease under
	// lease-fallback pressure and narrow it back when calm (bounded,
	// follower-acknowledged; see docs/operations.md for tuning).
	AdaptiveLease bool
	// NoTelemetry disables the telemetry layer (metrics registries, phase
	// histograms, flight recorders, client round-trip recording). On by
	// default; the knob exists for zero-telemetry benchmark controls.
	NoTelemetry bool
	// Seed makes randomized components deterministic.
	Seed int64
}

// Result is the outcome of a client operation.
type Result struct {
	// Value is the read value (GET only).
	Value []byte
	// Found distinguishes missing keys from empty values.
	Found bool
}

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("recipe: key not found")

// Cluster is a running Recipe deployment (in-process simulation of the
// paper's multi-machine TEE cluster).
type Cluster struct {
	inner *harness.Cluster
}

// NewCluster builds, attests, and starts a cluster.
func NewCluster(opts Options) (*Cluster, error) {
	return newClusterWithFactory(opts, nil)
}

func newClusterWithFactory(opts Options, factory func(replica int) CustomProtocol) (*Cluster, error) {
	hOpts := harness.Options{
		Protocol:            harness.ProtocolKind(opts.Protocol),
		Nodes:               opts.Nodes,
		Shards:              opts.Shards,
		Shielded:            !opts.Native,
		Confidential:        opts.Confidential,
		Durability:          opts.Durability,
		DataDir:             opts.DataDir,
		TickEvery:           opts.TickEvery,
		ReadPolicy:          opts.ReadPolicy,
		SessionCache:        opts.SessionCache,
		SelfManage:          opts.SelfManage,
		HeartbeatEveryTicks: opts.HeartbeatEveryTicks,
		SuspicionMult:       opts.SuspicionMult,
		AdmissionRate:       opts.AdmissionRate,
		AdmissionBurst:      opts.AdmissionBurst,
		AdaptiveLease:       opts.AdaptiveLease,
		NoTelemetry:         opts.NoTelemetry,
		Seed:                opts.Seed,
	}
	if opts.Protocol == "" {
		hOpts.Protocol = harness.Raft
	}
	if opts.NoTEECost {
		m := tee.NativeCostModel()
		hOpts.TEE = &m
		hOpts.Stack = netstack.StackDirectIO
	}
	if factory != nil {
		if hOpts.Protocol == "" || opts.Protocol == "" {
			hOpts.Protocol = harness.ProtocolKind("custom")
		}
		hOpts.Factory = func(replica int) core.Protocol {
			return &protoAdapter{inner: factory(replica)}
		}
	}
	inner, err := harness.New(hOpts)
	if err != nil {
		return nil, fmt.Errorf("recipe: %w", err)
	}
	return &Cluster{inner: inner}, nil
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() { c.inner.Stop() }

// Nodes returns the replica identities across all shards.
func (c *Cluster) Nodes() []string {
	return append([]string(nil), c.inner.Order...)
}

// Shards returns the number of replication groups.
func (c *Cluster) Shards() int { return c.inner.Shards() }

// ShardNodes returns the replica identities of one shard.
func (c *Cluster) ShardNodes(shard int) ([]string, error) {
	if shard < 0 || shard >= len(c.inner.Groups) {
		return nil, fmt.Errorf("recipe: no shard %d", shard)
	}
	return append([]string(nil), c.inner.Groups[shard].Order...), nil
}

// ShardOf returns the shard owning key under the cluster's partitioning.
func (c *Cluster) ShardOf(key string) int { return c.inner.ShardOf(key) }

// WaitReady blocks until the cluster can serve requests — every shard has a
// coordinator (e.g. a leader is elected) — or the timeout expires.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	_, err := c.inner.WaitForCoordinator(timeout)
	return err
}

// Coordinator returns the node currently coordinating client requests in
// shard 0 (the cluster's only shard when unsharded). Use ShardCoordinator
// for a specific shard.
func (c *Cluster) Coordinator() (string, error) {
	return c.inner.Groups[0].WaitForCoordinator(time.Second)
}

// ShardCoordinator returns the node currently coordinating one shard.
func (c *Cluster) ShardCoordinator(shard int) (string, error) {
	if shard < 0 || shard >= len(c.inner.Groups) {
		return "", fmt.Errorf("recipe: no shard %d", shard)
	}
	return c.inner.Groups[shard].WaitForCoordinator(time.Second)
}

// Epoch returns the cluster's current configuration epoch. Every published
// shard map bumps it; the authn layer binds it into every message's MAC
// domain, so traffic captured under an older configuration is rejected.
func (c *Cluster) Epoch() uint64 { return c.inner.Epoch() }

// Resize re-partitions the running cluster across n replication groups
// without stopping traffic: new groups are attested and started (or surplus
// groups retired), the CAS publishes a signed transition map that
// dual-routes writes to the moving key ranges, the migration engine streams
// those ranges through the state-transfer path, and a signed final map cuts
// clients over. Concurrent client operations keep succeeding throughout;
// acknowledged writes are never lost.
func (c *Cluster) Resize(n int) error {
	if err := c.inner.Resize(n); err != nil {
		return fmt.Errorf("recipe: %w", err)
	}
	return nil
}

// AddShard grows the cluster by one replication group and rebalances onto
// it, returning the new group's index.
func (c *Cluster) AddShard() (int, error) {
	g, err := c.inner.AddGroup()
	if err != nil {
		return 0, fmt.Errorf("recipe: %w", err)
	}
	return g, nil
}

// RetireShard shrinks the cluster by one replication group: the last
// group's key ranges migrate to the survivors, then its replicas stop.
func (c *Cluster) RetireShard() error {
	if err := c.inner.RetireGroup(); err != nil {
		return fmt.Errorf("recipe: %w", err)
	}
	return nil
}

// Crash fail-stops a replica (enclave crash + network detach).
func (c *Cluster) Crash(node string) { c.inner.Crash(node) }

// Recover replaces a crashed replica with a freshly attested incarnation.
// With Durability enabled it recovers the replica's sealed local state first
// (rejecting rollbacks) and state-transfers only the missed suffix;
// otherwise it streams the full state from a live peer before serving.
func (c *Cluster) Recover(node string, timeout time.Duration) error {
	return c.inner.Recover(node, timeout)
}

// RecoverShard recovers every crashed replica of one shard together — the
// whole-shard power-loss path. It requires Durability (or at least one live
// replica in the shard): the replicas' sealed states are reconciled before
// any of them serves, so no acknowledged write is lost even when the entire
// shard restarted at once.
func (c *Cluster) RecoverShard(shard int, timeout time.Duration) error {
	return c.inner.RecoverGroup(shard, timeout)
}

// SecurityStats aggregates the authn-boundary counters across replicas:
// how many messages were verified and how many attacks were rejected.
type SecurityStats struct {
	Delivered        uint64
	RejectedTampered uint64
	RejectedReplays  uint64
	RejectedStale    uint64
	// RejectedCrossShard counts valid envelopes of one shard injected into
	// another and rejected by the per-group MAC domain.
	RejectedCrossShard uint64
	// RejectedStaleEpoch counts genuine envelopes of an older configuration
	// epoch rejected after a reconfiguration — captured pre-resize traffic
	// replayed post-resize, or clients that have not yet refreshed their
	// shard map (they are answered with the current signed map).
	RejectedStaleEpoch uint64
	BufferedFutures    uint64
	// DroppedOverflow counts authenticated messages discarded because a
	// channel's out-of-order buffer was full (a flooded or badly stalled
	// sender; the batch verify path cannot surface these as errors).
	DroppedOverflow uint64
	// RejectedRollback counts sealed durable state rejected at recovery: the
	// host served an older (rolled-back), forked, or tampered copy of a
	// replica's encrypted WAL/snapshot, detected against the seal counter
	// and chain root registered at the CAS. The replica refuses the state
	// and rebuilds through state transfer instead.
	RejectedRollback uint64
	// PipelineStalls counts loop iterations whose handoff to the durable
	// commit stage found its queue full and had to wait (backpressure, not
	// drops — no reply is lost). A steadily climbing count means the WAL
	// fsync is saturated; Cluster.CommitDepth shows the standing backlog.
	PipelineStalls uint64
	// Suspicions counts peers newly suspected by the failure detectors
	// (SelfManage / HeartbeatEveryTicks): each is a replica that missed its
	// probe window, direct and indirect, and entered the refutation grace.
	Suspicions uint64
	// Evictions counts own-group member removals observed in adopted shard
	// maps, summed across replicas — one auto-eviction registers once per
	// surviving group member. See docs/operations.md.
	Evictions uint64
	// AdmissionRejects counts client operations shed by the admission gate
	// (AdmissionRate): each was answered with the retriable busy reply, not
	// dropped silently.
	AdmissionRejects uint64
}

// SecurityStats returns the cluster-wide authn counters (all shards).
func (c *Cluster) SecurityStats() SecurityStats {
	var s SecurityStats
	for _, id := range c.inner.Order {
		n, ok := c.inner.Nodes[id]
		if !ok {
			continue
		}
		addNodeStats(&s, n)
	}
	return s
}

// ShardSecurityStats returns one shard's authn counters.
func (c *Cluster) ShardSecurityStats(shard int) (SecurityStats, error) {
	var s SecurityStats
	if shard < 0 || shard >= len(c.inner.Groups) {
		return s, fmt.Errorf("recipe: no shard %d", shard)
	}
	g := c.inner.Groups[shard]
	for _, id := range g.Order {
		n, ok := g.Nodes[id]
		if !ok {
			continue
		}
		addNodeStats(&s, n)
	}
	return s, nil
}

func addNodeStats(s *SecurityStats, n *core.Node) {
	st := n.Stats()
	s.Delivered += st.Delivered.Load()
	s.RejectedTampered += st.DropMAC.Load() + st.DropMalformed.Load()
	s.RejectedReplays += st.DropReplay.Load()
	s.RejectedStale += st.DropView.Load()
	s.RejectedCrossShard += st.DropGroup.Load()
	s.RejectedStaleEpoch += st.DropEpoch.Load()
	s.BufferedFutures += st.Buffered.Load()
	s.DroppedOverflow += n.OverflowDrops()
	s.RejectedRollback += st.DropRollback.Load()
	s.PipelineStalls += st.PipelineStalls.Load()
	s.Suspicions += st.Suspicions.Load()
	s.Evictions += st.Evictions.Load()
	s.AdmissionRejects += st.AdmissionRejects.Load()
}

// ReadStats aggregates the read-path counters across replicas: which route
// actually served the cluster's reads, so a deployment (or benchmark) can
// prove its ReadPolicy is doing what it claims.
type ReadStats struct {
	// LocalReads were served by a coordinator from its own store under an
	// active trusted lease (or by a chain/CRAQ tail, whose local read is
	// unconditionally committed).
	LocalReads uint64
	// ReplicaReads were served by a non-coordinator replica holding a
	// committed, clean version (ReadAnyClean).
	ReplicaReads uint64
	// LeaseFallbacks are local reads that found the coordinator's lease
	// expired and detoured through the consensus path instead.
	LeaseFallbacks uint64
}

// ReadStats returns the cluster-wide read-path counters (all shards).
func (c *Cluster) ReadStats() ReadStats {
	local, replica, fallbacks := c.inner.ReadStats()
	return ReadStats{LocalReads: local, ReplicaReads: replica, LeaseFallbacks: fallbacks}
}

// Telemetry exports the cluster's merged metric set — the unified registry
// of counters, gauges, and phase-latency histograms, aggregated across all
// replicas plus the client-side round-trip histogram. Nil when the cluster
// was built with Options.NoTelemetry. Render it with
// telemetry.WritePoints for Prometheus text exposition.
func (c *Cluster) Telemetry() []telemetry.Point { return c.inner.Telemetry() }

// PhaseLatencies returns the cluster-merged per-phase latency histograms
// keyed by metric name (every "recipe_phase_*" series, client round trip
// included): the phase-sliced answer to "where does a request's time go".
func (c *Cluster) PhaseLatencies() map[string]telemetry.Snapshot {
	return c.inner.PhaseSnapshots()
}

// WriteMetrics renders the cluster's merged metrics in Prometheus text
// exposition format.
func (c *Cluster) WriteMetrics(w io.Writer) error {
	return telemetry.WritePoints(w, c.Telemetry())
}

// TraceEvents returns one replica's flight-recorder ring (recent protocol
// events: elections, epoch adoptions, recoveries, backpressure stalls),
// oldest first. Nil for unknown replicas or with telemetry disabled.
func (c *Cluster) TraceEvents(node string) []telemetry.Event {
	return c.inner.TraceEvents(node)
}

// CommitDepth sums, across replicas, the loop iterations queued for their
// group-commit fsync (zero without Durability). It is a gauge: a backlog
// that stands under load means the disk, not the protocol, is the limit.
func (c *Cluster) CommitDepth() int {
	d := 0
	for _, id := range c.inner.Order {
		if n, ok := c.inner.Nodes[id]; ok {
			d += n.CommitDepth()
		}
	}
	return d
}

// Client is a session issuing PUT/GET/DELETE operations against a cluster.
// The client is partition-aware: each key is hashed to its owning shard and
// the operation routed to that shard's coordinator. Not safe for concurrent
// use; create one per goroutine.
type Client struct {
	inner *core.Client
}

// NewClient creates an attested client session.
func (c *Cluster) NewClient() (*Client, error) {
	inner, err := c.inner.Client()
	if err != nil {
		return nil, fmt.Errorf("recipe: %w", err)
	}
	return &Client{inner: inner}, nil
}

// Close releases the client.
func (c *Client) Close() error { return c.inner.Close() }

// ClientStats are one client session's operation counters.
type ClientStats struct {
	// Ops counts operations that completed successfully.
	Ops uint64
	// Retries counts re-sends beyond each operation's first attempt.
	Retries uint64
	// BusyRejects counts retriable busy replies received from replicas'
	// admission gates; each was followed by a full-jitter backoff.
	BusyRejects uint64
	// Exhausted counts operations that gave up after the per-op retry
	// budget.
	Exhausted uint64
}

// Stats returns the client's cumulative operation counters.
func (c *Client) Stats() ClientStats {
	s := c.inner.Stats()
	return ClientStats{Ops: s.Ops, Retries: s.Retries, BusyRejects: s.BusyRejects, Exhausted: s.Exhausted}
}

// Put writes value under key.
func (c *Client) Put(key string, value []byte) error {
	res, err := c.inner.Put(key, value)
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("recipe: put %q: %s", key, res.Err)
	}
	return nil
}

// Get reads key, returning ErrNotFound for missing keys.
func (c *Client) Get(key string) ([]byte, error) {
	res, err := c.inner.Get(key)
	if err != nil {
		return nil, err
	}
	if !res.OK {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return res.Value, nil
}

// Delete removes key. Deleting an absent key succeeds (idempotent).
func (c *Client) Delete(key string) error {
	res, err := c.inner.Delete(key)
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("recipe: delete %q: %s", key, res.Err)
	}
	return nil
}
