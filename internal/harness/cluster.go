package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"recipe/internal/attest"
	"recipe/internal/bftbase/damysus"
	"recipe/internal/bftbase/pbft"
	"recipe/internal/core"
	"recipe/internal/kvstore"
	"recipe/internal/netstack"
	"recipe/internal/protocols/abd"
	"recipe/internal/protocols/allconcur"
	"recipe/internal/protocols/chain"
	"recipe/internal/protocols/craq"
	"recipe/internal/protocols/raft"
	"recipe/internal/reconfig"
	"recipe/internal/tee"
	"recipe/internal/telemetry"
)

// ProtocolKind selects which replication protocol a cluster runs.
type ProtocolKind string

// Supported protocols.
const (
	// Raft: leader-based, total order (R-Raft when shielded).
	Raft ProtocolKind = "raft"
	// Chain: chain replication, per-key order (R-CR when shielded).
	Chain ProtocolKind = "cr"
	// CRAQ: chain replication with apportioned queries — reads at every
	// replica (R-CRAQ when shielded; library extension beyond the paper's
	// four evaluated protocols).
	CRAQ ProtocolKind = "craq"
	// ABD: leaderless atomic register, per-key order (R-ABD).
	ABD ProtocolKind = "abd"
	// AllConcur: leaderless atomic broadcast, total order (R-AllConcur).
	AllConcur ProtocolKind = "allconcur"
	// PBFT: classical BFT baseline at 3f+1 (BFT-smart model).
	PBFT ProtocolKind = "pbft"
	// Damysus: hybrid TEE-BFT baseline at 2f+1.
	Damysus ProtocolKind = "damysus"
)

// Options configures a cluster.
type Options struct {
	// Protocol selects the replication protocol.
	Protocol ProtocolKind
	// Nodes is the per-group replica count (0 picks the protocol's
	// evaluation size: 3 for 2f+1 protocols, 4 for PBFT's 3f+1).
	Nodes int
	// Shards is the number of replication groups (default 1). Each group is
	// an independent Nodes-replica instance of the protocol owning a hash
	// partition of the keyspace; groups share the fabric, the CAS, and the
	// per-machine TEE platforms.
	Shards int
	// Shielded applies the Recipe transformation (R-* protocols). BFT
	// baselines carry their own authentication and ignore this.
	Shielded bool
	// Confidential enables value/message encryption (Fig 5).
	Confidential bool
	// TEE selects the platform cost model (default: SGX-like for shielded
	// clusters and the Damysus baseline, native otherwise).
	TEE *tee.CostModel
	// Stack selects the fabric cost model (default: recipe-lib for shielded
	// clusters, kernel-net for the BFT baselines, direct I/O for native).
	Stack netstack.StackKind
	// TickEvery is the node tick cadence (default 2ms).
	TickEvery time.Duration
	// MaxBatch caps how many messages one shielded envelope carries (0 =
	// node default of 64; 1 = per-message envelopes, the batching-off
	// baseline used by the benchmarks).
	MaxBatch int
	// ReadPolicy selects how OpGet is served (core.ReadPolicy), applied to
	// every node and every client the cluster builds. Zero value =
	// lease-local.
	ReadPolicy core.ReadPolicy
	// SessionCache, when > 0, gives every client an epoch-coherent read
	// cache of that many keys (core.ClientConfig.SessionCache).
	SessionCache int
	// LeaderLeaseTicks overrides the trusted leader-lease duration in ticks
	// (0 = node default of 10). Short leases churn renewal, which the
	// lease-stress tests exercise.
	LeaderLeaseTicks int
	// Injector optionally installs a Byzantine network fault injector.
	Injector netstack.Injector
	// Seed makes randomized components deterministic.
	Seed int64
	// HostMemLimit caps per-node KV host memory (0 = unlimited).
	HostMemLimit int64
	// Durability gives every replica a sealed durable store (encrypted WAL +
	// snapshots under DataDir, freshness anchored at the CAS): crashed
	// replicas recover from local disk, whole groups survive simultaneous
	// power loss, and rolled-back sealed state is rejected distinguishably.
	// Off by default — in-memory clusters are byte-for-byte unchanged.
	Durability bool
	// DataDir is where replica data directories live (one subdirectory per
	// replica identity). Empty with Durability on: the cluster creates a
	// temporary directory and removes it on Stop.
	DataDir string
	// SnapshotEvery overrides how many WAL records arm an automatic
	// checkpoint (0 = seal default).
	SnapshotEvery int
	// SelfManage turns on the self-managing membership plane: every replica
	// runs the SWIM failure detector (heartbeat probes + suspicion gossip
	// over the existing shielded wire), and a cluster supervisor collects
	// the detectors' verdicts, auto-evicts a majority-condemned replica by
	// republishing the CAS-signed shard map at the next epoch, and
	// auto-repairs it (sealed local recovery + suffix state transfer + signed
	// rejoin republish) — zero operator calls. Implies failure detection on
	// every node (HeartbeatEveryTicks defaults to 2 when unset).
	SelfManage bool
	// HeartbeatEveryTicks sets each node's failure-detector probe cadence in
	// event-loop ticks (0 with SelfManage = 2; 0 otherwise = detector off).
	HeartbeatEveryTicks int
	// SuspicionMult scales how long a suspected replica may refute before it
	// is declared failed (core.NodeConfig.SuspicionMult; 0 = detector
	// default).
	SuspicionMult int
	// RepairDelay is how long the supervisor waits after an eviction before
	// attempting auto-repair (0 = 25 ticks). SetMachineDown extends it: a
	// machine marked down is retried until it comes back.
	RepairDelay time.Duration
	// AdmissionRate, when > 0, arms every replica's per-client token-bucket
	// admission gate at that many ops/s per client (overload control).
	AdmissionRate float64
	// AdmissionBurst sets the admission bucket depth (0 = rate/10, min 1).
	AdmissionBurst int
	// AdaptiveLease lets leaders widen the leader-lease duration under
	// lease-fallback pressure and narrow it back when calm (bounded to
	// [lease, 4*lease], follower-acked before the leader trusts the wider
	// hold — see core/adaptlease.go for the safety argument).
	AdaptiveLease bool
	// NoTelemetry disables the telemetry layer cluster-wide: no node
	// registries, phase histograms, or flight recorders, and no client
	// round-trip recording. Telemetry is on by default; this knob exists so
	// benchmarks can run a zero-telemetry control for overhead A/Bs.
	NoTelemetry bool
	// Logf receives debug logs when set.
	Logf func(format string, args ...any)
	// Factory, when set, supplies the protocol instance for each replica
	// (index into the group's membership order), overriding Protocol-based
	// construction. Used by the public custom-transformation API.
	Factory func(replica int) core.Protocol
}

// Group is one replication group (shard): an independent set of replicas
// running the protocol over its partition of the keyspace. Groups of a
// cluster share the fabric, CAS, and TEE platforms but have disjoint
// memberships, disjoint authn MAC domains, and independent failure handling.
type Group struct {
	// ID is the group's shard index (also its authn group domain).
	ID int
	// Order is the group's membership in chain/rank order.
	Order []string
	// Nodes maps live member identities to their nodes.
	Nodes map[string]*core.Node

	c *Cluster
}

// Cluster is a running in-process deployment of one or more groups.
type Cluster struct {
	opts   Options
	Fabric *netstack.Fabric
	CAS    *attest.Service
	// Groups are the replication groups, indexed by shard.
	Groups []*Group
	// Nodes is the aggregate view of every live node across all groups.
	Nodes map[string]*core.Node
	// Order lists all node identities group-major (group 0 first).
	Order []string

	machines []*tee.Platform // per-replica-slot platforms shared across groups
	cliPlat  *tee.Platform
	code     []byte
	nextCli  int
	nextMig  int

	// Durable-storage home: one subdirectory per replica identity. ownData
	// marks a cluster-created temp dir, removed on Stop.
	dataDir string
	ownData bool

	// Elastic reconfiguration state: the current CAS-signed shard map and its
	// decoded form. Guarded by mapMu; Resize holds resizeMu for the whole
	// orchestration so reconfigurations serialise.
	mapMu    sync.Mutex
	rmap     *reconfig.ShardMap
	signed   []byte
	resizeMu sync.Mutex
	// topoMu guards the mutable topology (Groups slice, per-group Nodes
	// maps, aggregate Nodes and Order) so Crash/Recover can race an
	// in-flight Resize safely.
	topoMu sync.RWMutex

	// Self-managing membership state (SelfManage): evicted marks replicas
	// removed from the published map by the supervisor (memberships() filters
	// them until repair); machineDown marks hosts the supervisor must not try
	// to repair yet. Both are topoMu-guarded. The supervisor goroutine and
	// its pending repairs stop through superStop/superWG.
	evicted     map[string]bool
	machineDown map[string]bool
	superStop   chan struct{}
	superWG     sync.WaitGroup
	superOnce   sync.Once

	// Cluster-level telemetry (nil with Options.NoTelemetry): reg holds the
	// client-side metrics — the client round-trip histogram rtt recorded per
	// operation by the drivers, plus any histogram minted via
	// ClientHistogram (the open-loop intended-RTT ledger).
	reg *telemetry.Registry
	rtt *telemetry.Histogram

	// Chaos plumbing (chaos.go): the partition + delay injector pair is
	// installed on the fabric the first time a schedule shapes the network;
	// chaosRing is the cluster-level log of executed chaos events, which —
	// unlike per-node rings — survives its subjects crashing.
	chaosOnce  sync.Once
	chaosPart  *netstack.Partition
	chaosDelay *netstack.LinkDelay
	chaosRing  *telemetry.TraceRing
}

// New builds, attests, and starts a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Protocol == "" {
		opts.Protocol = Raft
	}
	if opts.Nodes == 0 {
		if opts.Protocol == PBFT {
			opts.Nodes = 4 // 3f+1, f=1
		} else {
			opts.Nodes = 3 // 2f+1, f=1
		}
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.TickEvery <= 0 {
		opts.TickEvery = 2 * time.Millisecond
	}
	if opts.TEE == nil {
		m := tee.NativeCostModel()
		if opts.Shielded || opts.Protocol == Damysus {
			m = tee.DefaultCostModel()
		}
		opts.TEE = &m
	}
	if opts.Stack == 0 {
		switch {
		case opts.Protocol == PBFT:
			// BFT-smart: kernel sockets through a managed-runtime RPC layer.
			opts.Stack = netstack.StackLegacyRPC
		case opts.Protocol == Damysus:
			// Damysus: kernel sockets from inside SGX enclaves.
			opts.Stack = netstack.StackKernelNetTEE
		case opts.Shielded:
			opts.Stack = netstack.StackRecipeLib
		default:
			opts.Stack = netstack.StackDirectIO
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.SelfManage && opts.HeartbeatEveryTicks <= 0 {
		opts.HeartbeatEveryTicks = 2
	}
	if opts.RepairDelay <= 0 {
		opts.RepairDelay = 25 * opts.TickEvery
	}

	fabricOpts := []netstack.FabricOption{netstack.WithStack(netstack.Stacks[opts.Stack])}
	if opts.Injector != nil {
		fabricOpts = append(fabricOpts, netstack.WithInjector(opts.Injector))
	}
	c := &Cluster{
		opts:        opts,
		Fabric:      netstack.NewFabric(fabricOpts...),
		Nodes:       make(map[string]*core.Node, opts.Nodes*opts.Shards),
		code:        []byte("recipe-protocol:" + string(opts.Protocol)),
		evicted:     make(map[string]bool),
		machineDown: make(map[string]bool),
	}
	if !opts.NoTelemetry {
		c.reg = telemetry.NewRegistry()
		c.rtt = c.reg.Histogram(core.MetricPhaseClientRTT, "client-observed round trip per operation (ns)")
		c.chaosRing = telemetry.NewTraceRing(0)
	}
	if opts.Durability {
		if opts.DataDir == "" {
			dir, err := os.MkdirTemp("", "recipe-seal-")
			if err != nil {
				return nil, fmt.Errorf("harness: data dir: %w", err)
			}
			c.dataDir, c.ownData = dir, true
		} else {
			if err := os.MkdirAll(opts.DataDir, 0o750); err != nil {
				return nil, fmt.Errorf("harness: data dir: %w", err)
			}
			c.dataDir = opts.DataDir
		}
	}

	// Attestation is instantaneous while building (its latency is the
	// subject of Table 4's dedicated benchmark, not of cluster setup). One
	// CAS serves every group: the attestation trust base is paid once.
	cas, err := attest.NewService(attest.WithLatencyScale(0))
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	c.CAS = cas
	cas.AllowMeasurement(tee.MeasureCode(c.code))

	for g := 0; g < opts.Shards; g++ {
		grp := &Group{ID: g, Nodes: make(map[string]*core.Node, opts.Nodes), c: c}
		for i := 0; i < opts.Nodes; i++ {
			grp.Order = append(grp.Order, nodeName(opts.Shards, g, i))
		}
		c.Groups = append(c.Groups, grp)
		c.Order = append(c.Order, grp.Order...)
		cas.SetGroupMembership(uint32(g), grp.Order)
	}
	cas.SetMembership(c.Order)
	cas.SetConfig("protocol", string(opts.Protocol))
	cas.SetConfig("shards", fmt.Sprintf("%d", opts.Shards))

	// Publish epoch 1, the cluster's initial configuration, before any node
	// attests: every node then receives the signed map inside its attested
	// secrets — configuration is part of the trust base from the first byte.
	memberships := make([][]string, len(c.Groups))
	for i, g := range c.Groups {
		memberships[i] = append([]string(nil), g.Order...)
	}
	initial := reconfig.Uniform(1, opts.Shards, memberships)
	signed, err := cas.PublishMap(initial)
	if err != nil {
		return nil, fmt.Errorf("harness: publish map: %w", err)
	}
	c.rmap, c.signed = initial, signed

	// One TEE platform per machine slot, shared across groups: the i-th
	// replica of every group is co-located on machine i, so platform trust
	// collateral is registered once per machine rather than once per node.
	for i := 0; i < opts.Nodes; i++ {
		plat, err := tee.NewPlatform(fmt.Sprintf("plat-m%d", i+1), tee.WithCostModel(*opts.TEE))
		if err != nil {
			return nil, fmt.Errorf("harness: machine %d: %w", i+1, err)
		}
		c.machines = append(c.machines, plat)
		cas.TrustPlatform(plat)
	}

	cliPlat, err := tee.NewPlatform("clients", tee.WithCostModel(tee.NativeCostModel()))
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	c.cliPlat = cliPlat
	// Clients are attested principals too: their enclaves attest against the
	// same CAS, which is what gates their secrets and shard-map fetches.
	cas.TrustPlatform(cliPlat)
	cas.AllowMeasurement(tee.MeasureCode(clientCode))

	// Build every replica before starting any event loop: a node that ticks
	// while its peers are still registering fabric endpoints would see its
	// first sends vanish. Re-sending protocols shrug that off; a custom
	// protocol's one-shot startup message must not (its Init/Tick contract
	// promises a fully wired cluster).
	type built struct {
		g    *Group
		id   string
		node *core.Node
	}
	var pending []built
	for _, grp := range c.Groups {
		for _, id := range grp.Order {
			node, err := grp.buildNode(id, false)
			if err != nil {
				for _, b := range pending {
					b.node.Discard()
				}
				c.Stop()
				return nil, err
			}
			pending = append(pending, built{g: grp, id: id, node: node})
		}
	}
	for _, b := range pending {
		b.g.launch(b.id, b.node)
	}
	if opts.SelfManage {
		c.startSupervisor()
	}
	return c, nil
}

// nodeName names the i-th replica of group g. Single-shard clusters keep the
// historical n1..nN names; sharded clusters prefix the shard.
func nodeName(shards, g, i int) string {
	if shards == 1 {
		return fmt.Sprintf("n%d", i+1)
	}
	return fmt.Sprintf("s%dn%d", g+1, i+1)
}

// Shards returns the number of replication groups.
func (c *Cluster) Shards() int {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	return len(c.Groups)
}

// Map returns the cluster's current shard map (and its signed encoding).
func (c *Cluster) Map() (*reconfig.ShardMap, []byte) {
	c.mapMu.Lock()
	defer c.mapMu.Unlock()
	return c.rmap, c.signed
}

// Epoch returns the current configuration epoch.
func (c *Cluster) Epoch() uint64 {
	m, _ := c.Map()
	return m.Epoch
}

// ShardOf returns the group index owning key under the cluster's current
// shard map.
func (c *Cluster) ShardOf(key string) int {
	m, _ := c.Map()
	return m.GroupOf(key)
}

// GroupOf returns the group whose membership contains id, or nil.
func (c *Cluster) GroupOf(id string) *Group {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	for _, g := range c.Groups {
		for _, member := range g.Order {
			if member == id {
				return g
			}
		}
	}
	return nil
}

// slotOf returns a member's machine slot (index in the group order).
func (g *Group) slotOf(id string) int {
	for i, member := range g.Order {
		if member == id {
			return i
		}
	}
	return 0
}

// NodeDataDir returns a replica's durable-storage directory (empty when the
// cluster runs without durability). Tests use it to tamper with sealed state.
func (c *Cluster) NodeDataDir(id string) string {
	if c.dataDir == "" {
		return ""
	}
	return filepath.Join(c.dataDir, id)
}

// buildNode attests and assembles one replica of this group without starting
// it. With resume=true the node's sealed local state (if any) is recovered
// before the caller decides how to finish the join; with resume=false the
// replica starts from a wiped data directory — a brand-new group member owns
// no prior state, and stale sealed state from a retired generation of the
// same identity must not resurrect.
func (g *Group) buildNode(id string, resume bool) (*core.Node, error) {
	c := g.c
	plat := c.machines[g.slotOf(id)]

	enclave := plat.NewEnclave(c.code)
	agent, err := attest.NewAgent(enclave)
	if err != nil {
		return nil, fmt.Errorf("harness: node %s: %w", id, err)
	}
	prov, err := c.CAS.RemoteAttestation(agent, id)
	if err != nil {
		return nil, fmt.Errorf("harness: attest %s: %w", id, err)
	}
	secrets, err := attest.OpenSecrets(agent, prov)
	if err != nil {
		return nil, fmt.Errorf("harness: secrets %s: %w", id, err)
	}

	ep, err := c.Fabric.Register(id)
	if err != nil {
		return nil, fmt.Errorf("harness: register %s: %w", id, err)
	}

	var durability *core.DurabilityConfig
	if c.opts.Durability {
		dir := c.NodeDataDir(id)
		if !resume {
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("harness: wipe %s: %w", id, err)
			}
		}
		durability = &core.DurabilityConfig{Dir: dir, Registrar: c.CAS, SnapshotEvery: c.opts.SnapshotEvery, Fresh: !resume}
	}
	node, err := core.NewNode(enclave, ep, g.newProtocol(id), core.NodeConfig{
		Secrets:             secrets,
		TickEvery:           c.opts.TickEvery,
		LeaderLeaseTicks:    c.opts.LeaderLeaseTicks,
		MaxBatch:            c.opts.MaxBatch,
		HeartbeatEveryTicks: c.opts.HeartbeatEveryTicks,
		SuspicionMult:       c.opts.SuspicionMult,
		AdmissionRate:       c.opts.AdmissionRate,
		AdmissionBurst:      c.opts.AdmissionBurst,
		AdaptiveLease:       c.opts.AdaptiveLease,
		Shielded:            c.shieldedFor(),
		Confidential:        c.opts.Confidential,
		ReadPolicy:          c.opts.ReadPolicy,
		StoreConfig:         kvstore.Config{HostMemLimit: c.opts.HostMemLimit, Seed: c.opts.Seed},
		Durability:          durability,
		Logf:                c.opts.Logf,
		DisableTelemetry:    c.opts.NoTelemetry,
	})
	if err != nil {
		// The fabric registration must not leak: a leaked endpoint would make
		// every later rebuild of this identity fail with a duplicate address.
		_ = ep.Close()
		return nil, fmt.Errorf("harness: node %s: %w", id, err)
	}
	if resume {
		if _, err := node.RecoverLocal(); err != nil {
			node.Discard()
			return nil, fmt.Errorf("harness: local recovery %s: %w", id, err)
		}
	}
	return node, nil
}

// launch registers a built node in the topology and starts it.
func (g *Group) launch(id string, node *core.Node) {
	c := g.c
	c.topoMu.Lock()
	g.Nodes[id] = node
	c.Nodes[id] = node
	c.topoMu.Unlock()
	node.Start()
}

// startNode attests and launches one replica of this group (also used for
// recovery).
func (g *Group) startNode(id string, resume bool) (*core.Node, error) {
	node, err := g.buildNode(id, resume)
	if err != nil {
		return nil, err
	}
	g.launch(id, node)
	return node, nil
}

// shieldedFor: the BFT baselines model their own authentication; they run
// without the Recipe shield regardless of Options.Shielded.
func (c *Cluster) shieldedFor() bool {
	if c.opts.Protocol == PBFT || c.opts.Protocol == Damysus {
		return false
	}
	return c.opts.Shielded
}

// newProtocol instantiates the protocol for one node of this group.
func (g *Group) newProtocol(id string) core.Protocol {
	c := g.c
	if c.opts.Factory != nil {
		return c.opts.Factory(g.slotOf(id))
	}
	switch c.opts.Protocol {
	case Chain:
		return chain.New()
	case CRAQ:
		return craq.New()
	case ABD:
		return abd.New()
	case AllConcur:
		return allconcur.New()
	case PBFT:
		return pbft.New()
	case Damysus:
		return damysus.New(*c.opts.TEE)
	default:
		return raft.New(c.opts.Seed + int64(g.ID)*7907 + int64(len(id)*31+int(id[len(id)-1])))
	}
}

// clientCode is the measured enclave code of client sessions.
var clientCode = []byte("recipe-client")

// Client creates a new attested, partition-aware, epoch-aware client
// session: the client's enclave remote-attests at the CAS exactly like a
// replica, so its secrets — master key, map key, current signed shard map —
// arrive through the attestation, and later map refreshes go through the
// attestation-gated FetchMap. Keys route by the signed map; the client
// re-routes across reconfigurations via epoch notices or fetches.
func (c *Cluster) Client() (*core.Client, error) {
	c.nextCli++
	id := fmt.Sprintf("client-%d", c.nextCli)
	ep, err := c.Fabric.Register("addr:" + id)
	if err != nil {
		return nil, fmt.Errorf("harness: client: %w", err)
	}
	enclave := c.cliPlat.NewEnclave(clientCode)
	agent, err := attest.NewAgent(enclave)
	if err != nil {
		return nil, fmt.Errorf("harness: client %s: %w", id, err)
	}
	prov, err := c.CAS.RemoteAttestation(agent, id)
	if err != nil {
		return nil, fmt.Errorf("harness: attest client %s: %w", id, err)
	}
	secrets, err := attest.OpenSecrets(agent, prov)
	if err != nil {
		return nil, fmt.Errorf("harness: client %s secrets: %w", id, err)
	}
	return core.NewClient(enclave, ep, core.ClientConfig{
		ID:           id,
		SignedMap:    secrets.ShardMap,
		MapKey:       secrets.MapKey,
		FetchMap:     func() ([]byte, error) { return c.CAS.FetchMap(id) },
		MasterKey:    secrets.MasterKey,
		Shielded:     c.shieldedFor(),
		Confidential: c.opts.Confidential,
		Seed:         c.opts.Seed + int64(c.nextCli),
		ReadPolicy:   c.opts.ReadPolicy,
		SessionCache: c.opts.SessionCache,
	})
}

// ReadStats aggregates the read-path counters across every live node: which
// route (coordinator-local under lease, clean replica, lease-expiry
// fallback) actually served the cluster's reads.
func (c *Cluster) ReadStats() (local, replica, fallbacks uint64) {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	for _, n := range c.Nodes {
		s := n.Stats()
		local += s.LocalReads.Load()
		replica += s.ReplicaReads.Load()
		fallbacks += s.LeaseFallbacks.Load()
	}
	return local, replica, fallbacks
}

// WaitForCoordinator blocks until some node of this group reports itself
// coordinator (e.g. a Raft leader is elected) and returns its id.
func (g *Group) WaitForCoordinator(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if id, ok := g.coordinator(); ok {
			return id, nil
		}
		time.Sleep(g.c.opts.TickEvery)
	}
	return "", fmt.Errorf("harness: group %d: no coordinator within %v", g.ID, timeout)
}

// coordinator returns the group's current coordinator, if any.
func (g *Group) coordinator() (string, bool) {
	g.c.topoMu.RLock()
	nodes := make([]*core.Node, 0, len(g.Order))
	for _, id := range g.Order {
		if n, ok := g.Nodes[id]; ok {
			nodes = append(nodes, n)
		}
	}
	g.c.topoMu.RUnlock()
	for _, n := range nodes {
		if st := n.Status(); st.IsCoordinator {
			return n.ID(), true
		}
	}
	return "", false
}

// WaitForCoordinator blocks until every group has a coordinator and returns
// group 0's (the single group's coordinator in an unsharded cluster).
func (c *Cluster) WaitForCoordinator(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	first := ""
	c.topoMu.RLock()
	groups := append([]*Group(nil), c.Groups...)
	c.topoMu.RUnlock()
	for _, g := range groups {
		remain := time.Until(deadline)
		if remain <= 0 {
			remain = time.Millisecond
		}
		id, err := g.WaitForCoordinator(remain)
		if err != nil {
			return "", err
		}
		if first == "" {
			first = id
		}
	}
	return first, nil
}

// Crash fail-stops one node (enclave crash + network detach), wherever it
// lives.
func (c *Cluster) Crash(id string) {
	g := c.GroupOf(id)
	if g == nil {
		return
	}
	c.topoMu.Lock()
	n, ok := g.Nodes[id]
	if ok {
		delete(g.Nodes, id)
		delete(c.Nodes, id)
	}
	c.topoMu.Unlock()
	if ok {
		n.Crash()
	}
}

// Recover re-attests a fresh replacement for a crashed node (same identity
// slot, new incarnation) and announces it. With durability enabled it
// prefers local sealed recovery — the WAL suffix since the last snapshot
// replays from disk, rollbacks are rejected distinguishably
// (SecurityStats.RejectedRollback), and state transfer then streams only the
// version suffix the replica missed while down; without durability (or after
// a rejected rollback) it falls back to the full state transfer of the
// paper's §3.7 flow. Other groups are untouched.
//
// Recovery serialises with Resize (both are membership events): a state
// transfer streaming the donor's store must not interleave with a
// migration's post-cutover source sweep, or pages applied after the sweep
// would re-introduce moved-away slot data on the recovered replica.
func (c *Cluster) Recover(id string, syncTimeout time.Duration) error {
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	return c.recoverLocked(id, syncTimeout)
}

// recoverLocked is Recover for callers already holding resizeMu (the
// self-managing supervisor's auto-repair path).
func (c *Cluster) recoverLocked(id string, syncTimeout time.Duration) error {
	g := c.GroupOf(id)
	if g == nil {
		return fmt.Errorf("harness: unknown node %s", id)
	}
	c.topoMu.RLock()
	_, alive := g.Nodes[id]
	c.topoMu.RUnlock()
	if alive {
		return fmt.Errorf("harness: %s still running", id)
	}
	node, err := g.startNode(id, true)
	if err != nil {
		return err
	}
	c.topoMu.RLock()
	var donor string
	for _, other := range g.Order {
		if other != id && g.Nodes[other] != nil {
			donor = other
			break
		}
	}
	c.topoMu.RUnlock()
	node.AnnounceJoin()
	if donor == "" {
		if !node.Recovered() {
			return fmt.Errorf("harness: no live donor for %s in group %d", id, g.ID)
		}
		// Whole-group outage, first replica back: its sealed local state is
		// the only copy, and it serves from it. Use RecoverGroup when several
		// replicas of one group restart together — it reconciles their seal
		// positions before any election can pick a stale one.
	} else {
		floor := uint64(0)
		if node.Recovered() {
			if _, ok := node.Protocol().(core.Snapshotter); ok {
				// Total-order versions: everything at or below the replica's
				// own maximum is already on disk here; stream only the suffix.
				floor = node.RecoveredFloor()
			}
		}
		if err := node.SyncFromFloor(donor, floor, syncTimeout); err != nil {
			return err
		}
	}
	if c.opts.Durability && !node.Recovered() {
		// The replica rebuilt through state transfer (no sealed state, or a
		// rejected rollback): checkpoint now to anchor the transferred state
		// and restart the seal chain cleanly past the registered counter.
		// Clean local recoveries skip this — their WAL is already the anchor,
		// and the periodic ShouldSnapshot cadence handles compaction.
		if err := node.Checkpoint(); err != nil {
			return fmt.Errorf("harness: checkpoint %s: %w", id, err)
		}
	}
	// The node is synced: if the supervisor had evicted this identity from
	// the published map, the republish below re-admits it (the rejoin leg of
	// auto-repair). Cleared only after a successful sync so a failed repair
	// never re-lists a stale replica.
	c.topoMu.Lock()
	delete(c.evicted, id)
	c.topoMu.Unlock()
	// The recovered node re-attested, so its incarnation bumped — a
	// membership fact clients must learn (their channels to the node are
	// incarnation-qualified). Republishing the map at the next epoch
	// propagates it through the normal refresh path. This is load-bearing
	// even for single-shard clusters, where no slot routing can change: the
	// epoch bump is what carries the new incarnation stamp to clients (see
	// ARCHITECTURE.md, "Why recovery bumps the epoch").
	return c.republishLocked()
}

// RecoverGroup recovers every crashed replica of one group together — the
// whole-group power-loss runbook. Each replica recovers its own sealed
// state, then their seal positions are reconciled (the union of their
// recovered stores, merged newest-version-first with tombstones suppressing,
// installs everywhere) BEFORE any of them starts: without this step an
// election could pick a replica whose fsync lagged a few commits and let it
// re-assign log positions another replica already holds. Any still-live
// members then serve suffix transfers as usual.
//
// Every write acknowledged before the outage was applied — and therefore
// sealed — by at least one replica, so the merged union contains all of
// them: zero acknowledged writes are lost.
func (c *Cluster) RecoverGroup(group int, syncTimeout time.Duration) error {
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	c.topoMu.RLock()
	if group < 0 || group >= len(c.Groups) {
		c.topoMu.RUnlock()
		return fmt.Errorf("harness: no group %d", group)
	}
	g := c.Groups[group]
	var crashed []string
	var liveDonor string
	for _, id := range g.Order {
		if g.Nodes[id] == nil {
			crashed = append(crashed, id)
		} else if liveDonor == "" {
			liveDonor = id
		}
	}
	c.topoMu.RUnlock()
	if len(crashed) == 0 {
		return nil
	}

	// Build (and locally recover) every crashed member before starting any.
	// On failure, the nodes built so far are discarded — their fabric
	// registrations and log handles must be released or the identities could
	// never be rebuilt by a retry.
	built := make(map[string]*core.Node, len(crashed))
	launched := false
	defer func() {
		if launched {
			return
		}
		for _, node := range built {
			node.Discard()
		}
	}()
	for _, id := range crashed {
		node, err := g.buildNode(id, true)
		if err != nil {
			return err
		}
		built[id] = node
	}

	// Reconcile the survivors' sealed states while none of them is running.
	var batches [][]core.SlotEntry
	anyRecovered := false
	maxFloor := uint64(0)
	for _, node := range built {
		if !node.Recovered() {
			continue
		}
		anyRecovered = true
		if node.RecoveredFloor() > maxFloor {
			maxFloor = node.RecoveredFloor()
		}
		var batch []core.SlotEntry
		if err := node.Store().Dump(func(m kvstore.Mutation) bool {
			batch = append(batch, core.SlotEntry{Key: m.Key, Value: m.Value, Version: m.Version, Deleted: m.Del})
			return true
		}); err != nil {
			return fmt.Errorf("harness: dump %s: %w", node.ID(), err)
		}
		batches = append(batches, batch)
	}
	if !anyRecovered && liveDonor == "" {
		return fmt.Errorf("harness: group %d: no live donor and no recoverable sealed state", group)
	}
	if anyRecovered {
		merged := core.MergeSlotEntries(batches...)
		for _, node := range built {
			for _, e := range merged {
				m := kvstore.Mutation{Del: e.Deleted, Versioned: true, Key: e.Key, Value: e.Value, Version: e.Version}
				if err := node.Store().Restore(m); err != nil {
					return fmt.Errorf("harness: reconcile %s: %w", node.ID(), err)
				}
			}
			if _, ok := node.Protocol().(core.Snapshotter); ok {
				// Every replica now holds the union: all resume at the same
				// log position, so elections cannot regress past it.
				node.AdoptRecoveredFloor(maxFloor)
			}
		}
	}

	launched = true
	for _, id := range crashed {
		g.launch(id, built[id])
	}
	for _, id := range crashed {
		built[id].AnnounceJoin()
	}
	if liveDonor != "" {
		for _, id := range crashed {
			node := built[id]
			floor := uint64(0)
			if node.Recovered() {
				if _, ok := node.Protocol().(core.Snapshotter); ok {
					floor = node.RecoveredFloor()
				}
			}
			if err := node.SyncFromFloor(liveDonor, floor, syncTimeout); err != nil {
				return err
			}
		}
	}
	if c.opts.Durability {
		for _, id := range crashed {
			if err := built[id].Checkpoint(); err != nil {
				return fmt.Errorf("harness: checkpoint %s: %w", id, err)
			}
		}
	}
	c.topoMu.Lock()
	for _, id := range crashed {
		delete(c.evicted, id)
	}
	c.topoMu.Unlock()
	return c.republishLocked()
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	c.stopSupervisor()
	for _, n := range c.liveNodes() {
		n.Stop()
	}
	if c.ownData {
		_ = os.RemoveAll(c.dataDir)
	}
}
