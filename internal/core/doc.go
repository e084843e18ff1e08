// Package core implements the Recipe transformation — the paper's primary
// contribution. It wraps an unmodified CFT replication protocol (anything
// implementing Protocol) in a distributed trusted computing base:
//
//   - every node runs inside a (simulated) TEE; it joins only after the
//     transferable-authentication phase (remote attestation via the CAS);
//   - every protocol and client message crosses the untrusted network through
//     the authn layer's shield/verify primitives, giving transferable
//     authentication and non-equivocation;
//   - failure detection and leader liveness use the trusted-lease primitive
//     rather than untrusted OS timers;
//   - recovered nodes re-attest, receive fresh identities, and catch up via
//     state transfer before serving (shadow replicas);
//   - client request deduplication (the client table) makes re-submission
//     after timeouts safe.
//
// The protocol's own states, message rounds, and complexity are untouched:
// the transformation wraps the environment the protocol talks to, not the
// protocol. Running the same Protocol with shielding disabled yields the
// "native" baseline of Fig 6a.
//
// # Batching
//
// The per-message authentication boundary is the transformation's headline
// cost, so the hot path amortizes it at three levels, all within one event
// loop iteration:
//
//   - the loop drains the submit queue and transport inbox in bounded
//     batches (maxLoopDrain) instead of one item per select;
//   - messages to the same peer produced during an iteration coalesce and
//     flush as batched envelopes — up to NodeConfig.MaxBatch messages
//     (default 64) under one MAC and one enclave transition;
//   - protocols implementing BatchFlusher defer their own fan-out until the
//     end of the iteration (e.g. Raft ships one AppendEntries per burst).
//
// Setting NodeConfig.MaxBatch to 1 restores the per-message baseline:
// every message is shielded and transmitted individually.
//
// # Hot-path memory discipline
//
// Batching amortizes the authentication boundary; pooling keeps what
// remains off the garbage collector. The node's send and flush loops encode
// wire messages with Wire.AppendTo into buffers from the shared pool
// (internal/bufpool) and recycle them as soon as their bytes have moved on:
// on copying sends (Transport.Send) immediately, on the coalescing path
// after ShieldBatch has sealed the flush. Inbound frames decode with the
// zero-copy Shielder.DecodeEnvelopeInto — the packet buffer itself backs the
// envelope through verification and delivery, and an open channel's name is
// the shielder's own string. Only buffers whose ownership genuinely leaves
// the node (packets handed to BatchSender.QueueSend, whose bytes the
// in-process fabric delivers by reference) are freshly allocated. The authn
// package documents the underlying buffer-ownership contract.
//
// What carries no data is not rebuilt per message either: channel names are
// cached per (own, peer) incarnation pair, the lease table renews in place,
// the loop republishes Status only when it changed, and a Client reuses one
// request timer. Two contracts bound these savings:
//
//   - Env.Send callers must not mutate what they pass. An Env may retain the
//     *Wire and everything it references (the step-net drivers shallow-copy
//     it and deliver it later), so protocols build fresh messages and slices
//     per send and never reuse them.
//   - Only principal names are interned. The node loop and each Client own
//     a bounded interner through which wire decode passes Wire.From,
//     Command.ClientID and Command.ClientAddr; decoded keys, values and
//     commands are always copies and never alias packet buffers, because the
//     Raft log retains them and the TCP read path reuses its buffers.
//
// # One data plane, one commit stage
//
// The event loop is single-threaded by design — protocol state, client
// table, store, and shard map are loop-owned and lock-free. The loop also
// does every message's crypto: it decodes and verifies inbound envelopes
// and seals and sends each iteration's outbound batches, so the Verify
// scratch-slice rule and per-channel counter order hold without further
// coordination, and view changes, shard-map installs, and Crash() never
// race a message in flight.
//
// The one handoff is durability (see commit.go and ARCHITECTURE.md "Commit
// stage"): on a durable node the loop passes each iteration's parked client
// replies to the committer goroutine, which fsyncs the WAL, registers the
// seal position, and only then releases the replies — the fsync overlaps
// the next iteration, but an ack never precedes its group commit. The
// commit queue is bounded; a full queue counts Stats.PipelineStalls and
// blocks the loop (backpressure, never drops).
//
// # Sharding
//
// Nothing in the transformation requires one replication group per
// deployment: a sharded cluster runs N independent groups, each owning a
// hash partition of the keyspace (ShardOf). The group dimension threads
// through this package: nodes carry their attested group id, every Wire
// addresses a group, channels open in per-group MAC domains (messages of
// one group are rejected by another, counted in Stats.DropGroup), and
// Client hashes each key to its owning group with one tracked coordinator
// per group.
//
// # Durability
//
// NodeConfig.Durability gives a node a sealed durable store (internal/
// seal): the kvstore mutation sink appends every applied mutation to an
// encrypted WAL, and the commit stage group-commits it — one fsync per
// event-loop iteration, riding the same MaxBatch cadence that coalesces
// envelopes, so the hot path pays one buffered write per mutation and
// shares the expensive syscall across the batch. RecoverLocal (run automatically by
// Start, or earlier by the harness to learn the outcome) replays the
// snapshot and WAL suffix, verifies freshness against the CAS-registered
// seal counter (rollbacks are rejected into Stats.DropRollback and the
// replica falls back to state transfer), truncates slots the current shard
// map has migrated away, and hands Snapshotter protocols their resume
// position. SyncFromFloor then streams only the version suffix the replica
// missed while down. Without the config the node is byte-for-byte the
// in-memory node.
package core
