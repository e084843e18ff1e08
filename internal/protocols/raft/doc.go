// Package raft implements the Raft consensus protocol (Ongaro & Ousterhout,
// ATC'14) as an unmodified CFT protocol against the core.Protocol interface:
// leader election with randomized timeouts, log replication with the
// AppendEntries consistency check, and commitment by majority match.
//
// Replication keeps one batch in flight per follower, tracked by a
// per-follower progress in the shape of etcd-raft's: entries submitted while
// a batch is outstanding ship in the next one, a heartbeat to a follower
// with a batch outstanding carries no entries, and a rejection probes from
// past what the follower acknowledged, one AppendEntries at a time. Each
// entry therefore reaches each follower once unless a message is lost. A
// batch is a slice of the log itself, not a copy.
//
// It is the paper's representative of the leader-based / total-order
// category (Table 1). Reads are linearizable: they are forwarded to the
// leader, which serves them locally — safe in the transformed setting
// because the trusted lease guarantees at most one acting leader and the
// leader's store holds every committed write.
package raft
