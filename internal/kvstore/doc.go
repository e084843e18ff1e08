// Package kvstore implements Recipe's partitioned key-value store (§A.3).
//
// The design splits the key space from the value space: keys and their
// metadata (value check, version timestamp, pointer into host memory) live
// in a skip list inside the enclave, while bulk values live in untrusted host
// memory. This keeps the enclave working set small (low EPC pressure) while
// still letting a single replica detect integrity violations — which is what
// allows Recipe-transformed protocols to serve reads locally without
// consulting a quorum.
//
// In confidential mode values are additionally encrypted before leaving the
// enclave, so the untrusted host learns nothing about stored data (Fig 5).
// The value check is then the 16-byte AES-GCM tag of the sealed value (its
// key as associated data), not a SHA-256 hash: a read compares the stored
// tag before opening, so a host that swaps in an older ciphertext of the
// same key — which would open fine — or another key's ciphertext fails
// with ErrIntegrity. A write seals nonce||ciphertext||tag into one buffer
// that the host arena adopts without a copy.
//
// # Versioned writes and deletion floors
//
// WriteVersioned/RemoveVersioned give replication protocols monotone
// per-key application: stale writes are rejected against the stored version,
// and a versioned delete leaves a floor so a replayed or in-flight stale
// write (a recovery page racing a live delete) cannot resurrect the deleted
// value. State transfer and slot migration lean on both.
//
// # Durability hooks
//
// The store itself is memory-only; durability is layered on through three
// hooks. SetMutationSink installs an observer called synchronously after
// every successful mutation — core wires the sealed WAL (internal/seal)
// there. Dump enumerates the complete state (entries plus deletion floors)
// as a mutation stream for snapshots, and Restore replays recovered
// mutations back in, tolerating stale versions. With no sink installed the
// data path is unchanged.
package kvstore
