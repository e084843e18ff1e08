// Package authn implements Recipe's authentication and non-equivocation
// layers (Algorithm 1 of the paper): the TEE-assisted ShieldRequest and
// VerifyRequest primitives.
//
// Every message sent between two attested endpoints travels over a named
// communication channel cq and carries a sequence tuple (view, cq, cnt_cq)
// plus a MAC computed inside the TEE over header and payload. The receiver
// keeps rcnt_cq, the last delivered counter for the channel:
//
//   - cnt <= rcnt            -> replay (stale but authenticated) — rejected;
//   - cnt == rcnt+1          -> delivered immediately, rcnt advances, and any
//     buffered consecutive "future" messages are delivered with it;
//   - cnt >  rcnt+1          -> authenticated but out of order — buffered in
//     the protected area until the gap closes.
//
// In confidential mode payloads are encrypted with AES-GCM under the channel
// key (header bound as additional data), which is how Recipe offers
// confidentiality beyond the BFT model (Fig 5). The GCM tag then covers
// everything the HMAC would, so it is the envelope's only authenticator: a
// confidential envelope carries an empty MAC field, and Verify opens it
// before any other check. A channel's mode is fixed when it is opened; a
// confidential channel rejects plain envelopes and envelopes with a MAC, an
// integrity-only one rejects sealed envelopes, all as ErrBadMAC. With no
// HMAC on confidential channels, the AES key (the first 16 bytes of the
// channel key) and the HMAC key no longer serve two primitives there.
//
// # Batching
//
// ShieldBatch seals N messages for one channel under a single envelope
// occupying the counter range [Seq, Seq+N-1]: one MAC (in confidential
// mode, one AEAD seal) and one enclave transition amortize over the whole
// batch. Verify transparently explodes a batch envelope into its N
// logical messages and runs each through the ordinary counter logic, so
// replay protection, gap buffering, and loose channels behave exactly as
// they do for N individual envelopes.
//
// # Group domains
//
// In a sharded deployment every channel is opened in a replication-group
// domain (OpenGroupChannel): the group id is stamped into each envelope's
// authenticated header, and Verify rejects envelopes carrying any other
// group with ErrWrongGroup. This scopes non-equivocation per group — shards
// derive channel keys from the same cluster master key, so without the
// binding a genuine envelope captured in one shard would verify in another.
//
// # Hot path and buffer ownership
//
// The steady-state non-confidential data plane (seal → encode → decode →
// verify) is allocation-free apart from the 32-byte MAC tag, and the
// confidential one is allocation-free: the receiver's
// Shielder.DecodeEnvelopeInto hands out the open channel's own name string
// instead of copying it. That discipline rests on per-channel reusable state —
// the keyed HMAC schedule is computed once at open and Reset per message,
// headers serialise into channel-owned scratch buffers — and on an explicit
// buffer-ownership contract instead of defensive copies:
//
//   - Shield (non-confidential): the envelope's Payload aliases the caller's
//     buffer. The caller must keep it alive and unmodified until the envelope
//     is encoded; after that the buffer is the caller's again.
//   - Shield/ShieldBatch (confidential) and ShieldBatch bodies: the payload
//     is built in a buffer from the shared pool (internal/bufpool); after
//     encoding, the caller releases it with RecyclePayload. A one-item batch
//     degrades to Shield and follows Shield's rule.
//   - DecodeEnvelopeInto: the envelope's Payload and MAC alias the wire
//     buffer, which must stay alive while the envelope is in use — on an
//     integrity-only channel including while it sits in the out-of-order
//     buffer awaiting gap closure. (DecodeEnvelope keeps the copying
//     behaviour for callers that retain.) Shielder.DecodeEnvelopeInto is the
//     same decode with the channel name taken from the shielder's table when
//     the channel is open.
//   - Verify: the returned slice is the channel's reusable delivery scratch,
//     valid only until the next Verify or TickFutures on the same channel.
//     On a confidential channel the delivered plaintext lives in the
//     channel's own scratch, with the same lifetime; an out-of-order
//     envelope is opened on arrival and a copy of its plaintext is parked,
//     so the wire buffer is free as soon as Verify returns and draining
//     decrypts nothing. Consume the delivery synchronously (as the node
//     event loop does) or copy.
//
// Concurrency: the channel table is an RWMutex-guarded map with a lock per
// channel, so concurrent channels never serialise on a global lock; SetView
// takes the table lock exclusively, making its counter resets atomic with
// in-flight seals. The out-of-order buffer is bounded per channel both by
// count (maxFutureBuffer) and by payload bytes (maxFutureBytes); overflow
// drops are counted in OverflowDrops.
//
// The per-channel state (counters, gap buffer, delivery scratch) is NOT
// safe for concurrent use on the same channel: callers that parallelise
// must partition channels across goroutines so each channel has exactly one
// verifier and one sealer at a time. core's node verifies every inbound
// envelope on its single protocol loop, which is why Verify's returned
// scratch slice stays valid until the loop has consumed it: the next Verify
// on that channel can only come from the same goroutine.
package authn
