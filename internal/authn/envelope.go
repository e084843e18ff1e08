package authn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"recipe/internal/bufpool"
)

// Envelope is the wire format of a shielded message: the sequence tuple
// (View, Channel, Seq), the replication-group domain, a protocol message
// kind, the (possibly encrypted) payload, and the MAC covering all of it.
//
// A batch envelope (Batch set) carries N messages under one header and one
// MAC: the payload is a batch body of N (kind, payload) items occupying the
// counter range [Seq, Seq+N-1]. Verify explodes it into N logical envelopes,
// so batching is invisible above this layer except in cost: one MAC and one
// enclave transition amortize over the whole flush.
type Envelope struct {
	View    uint64
	Epoch   uint64 // configuration epoch the sender produced the message under
	Channel string // cq: the communication-channel identifier
	Group   uint32 // replication group (shard) the channel belongs to
	Seq     uint64 // cnt_cq: per-channel counter (first of the range if Batch)
	Kind    uint16 // protocol message type, opaque to this layer
	Enc     bool   // payload is AES-GCM encrypted (confidential mode)
	Batch   bool   // payload is a batch body spanning counters Seq..Seq+N-1
	Payload []byte
	MAC     []byte
}

// Codec errors.
var (
	// ErrTruncated is returned when decoding runs out of bytes.
	ErrTruncated = errors.New("authn: truncated envelope")
	// ErrOversized is returned when a length field exceeds sane bounds.
	ErrOversized = errors.New("authn: oversized envelope field")
)

const maxFieldLen = 64 << 20 // 64 MiB cap on any single field

// flag bits of the envelope's flags byte.
const (
	flagEnc   byte = 1 << iota // payload is AES-GCM encrypted
	flagBatch                  // payload is a batch body (counter range)
)

func (e *Envelope) flags() byte {
	var b byte
	if e.Enc {
		b |= flagEnc
	}
	if e.Batch {
		b |= flagBatch
	}
	return b
}

// headerSize is the fixed part of the authenticated header; the channel name
// follows it.
const headerSize = 8 + 8 + 8 + 2 + 1 + 4 + 2

// appendHeader serialises the authenticated header fields into buf. The MAC
// covers exactly header||payload, so any header tampering — including
// flipping the batch flag or rewriting the group or epoch — invalidates the
// MAC. Covering the group binds every envelope to its shard's MAC domain: a
// valid shard-A envelope carried into shard B fails the receiver's group
// check, and an envelope whose group field was rewritten fails the MAC.
// Covering the epoch binds it to one configuration: traffic captured before
// a reconfiguration cannot be replayed after it (the receiver rejects the
// stale epoch, and an attacker cannot rewrite the field without breaking the
// MAC).
func (e *Envelope) appendHeader(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, e.View)
	buf = binary.BigEndian.AppendUint64(buf, e.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, e.Seq)
	buf = binary.BigEndian.AppendUint16(buf, e.Kind)
	buf = append(buf, e.flags())
	buf = binary.BigEndian.AppendUint32(buf, e.Group)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Channel)))
	buf = append(buf, e.Channel...)
	return buf
}

// EncodedSize returns the exact length of the encoded envelope, so callers
// can size a reused or pooled buffer before AppendTo.
func (e *Envelope) EncodedSize() int {
	return headerSize + len(e.Channel) + 4 + len(e.Payload) + 4 + len(e.MAC)
}

// AppendTo serialises the envelope for transport, appending to buf and
// returning the extended slice. It is the allocation-free encoder of the hot
// path: with a reused buffer of sufficient capacity it performs no heap
// allocation.
func (e *Envelope) AppendTo(buf []byte) []byte {
	buf = e.appendHeader(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Payload)))
	buf = append(buf, e.Payload...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.MAC)))
	buf = append(buf, e.MAC...)
	return buf
}

// Encode serialises the envelope for transport into a fresh buffer.
func (e *Envelope) Encode() []byte {
	return e.AppendTo(make([]byte, 0, e.EncodedSize()))
}

// DecodeEnvelopeInto parses an envelope from wire bytes without copying:
// Payload and MAC alias data, so the caller must keep data alive and
// unmodified for as long as it uses the envelope (buffered out-of-order
// envelopes retain it until delivered). All length fields remain
// bounds-checked against the actual buffer, so hostile input cannot force
// large allocations or out-of-range reads.
func DecodeEnvelopeInto(e *Envelope, data []byte) error {
	name, err := decodeEnvelope(e, data)
	e.Channel = string(name)
	return err
}

// DecodeEnvelopeInto is the receiver's form of the package-level
// DecodeEnvelopeInto: an envelope on a channel already open at this shielder
// carries the shielder's own copy of the channel name, so the steady-state
// decode allocates nothing. A name with no open channel is copied as before
// (Verify then rejects it as unknown, or the caller opens it first).
func (s *Shielder) DecodeEnvelopeInto(e *Envelope, data []byte) error {
	name, err := decodeEnvelope(e, data)
	e.Channel = s.channelName(name)
	return err
}

// decodeEnvelope parses every field but the channel name, which it returns
// as a view of data for the caller to turn into a string.
func decodeEnvelope(e *Envelope, data []byte) ([]byte, error) {
	r := reader{buf: data}
	e.View = r.uint64()
	e.Epoch = r.uint64()
	e.Seq = r.uint64()
	e.Kind = r.uint16()
	fl := r.byte()
	e.Enc = fl&flagEnc != 0
	e.Batch = fl&flagBatch != 0
	e.Group = r.uint32()
	name := r.view(int(r.uint16()))
	e.Payload = r.view(int(r.uint32()))
	e.MAC = r.view(int(r.uint32()))
	if r.err != nil {
		return name, fmt.Errorf("decode envelope: %w", r.err)
	}
	if r.pos != len(data) {
		return name, fmt.Errorf("decode envelope: %d trailing bytes", len(data)-r.pos)
	}
	return name, nil
}

// DecodeEnvelope parses an envelope from wire bytes into an independent
// value: Payload and MAC are copied, so the envelope stays valid after data
// is reused.
func DecodeEnvelope(data []byte) (Envelope, error) {
	var e Envelope
	if err := DecodeEnvelopeInto(&e, data); err != nil {
		return Envelope{}, err
	}
	e.Payload = append([]byte(nil), e.Payload...)
	e.MAC = append([]byte(nil), e.MAC...)
	return e, nil
}

// BatchItem is one message inside a batch envelope.
type BatchItem struct {
	Kind    uint16
	Payload []byte
}

// minBatchItemLen is the smallest encoded BatchItem: kind (2) + length (4).
const minBatchItemLen = 6

// batchBodySize returns the encoded size of a batch body, for pooled-buffer
// sizing.
func batchBodySize(items []BatchItem) int {
	size := 4
	for i := range items {
		size += minBatchItemLen + len(items[i].Payload)
	}
	return size
}

// appendBatchBody serialises N items: [count][kind][len][payload]...
func appendBatchBody(buf []byte, items []BatchItem) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(items)))
	for i := range items {
		buf = binary.BigEndian.AppendUint16(buf, items[i].Kind)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(items[i].Payload)))
		buf = append(buf, items[i].Payload...)
	}
	return buf
}

// getBatchBody encodes a batch body into a pooled buffer; the caller owns the
// result and returns it via bufpool.Put (or hands it to the envelope, whose
// owner recycles it through RecyclePayload).
func getBatchBody(items []BatchItem) []byte {
	return appendBatchBody(bufpool.Get(batchBodySize(items)), items)
}

// decodeBatchBody parses a batch body, appending the items to dst (reusing
// its capacity). Item payloads alias data. The count's preallocation is
// bounded by what the buffer could actually hold, so a corrupt count cannot
// force a large allocation.
func decodeBatchBody(dst []BatchItem, data []byte) ([]BatchItem, error) {
	r := reader{buf: data}
	n := int(r.uint32())
	if n <= 0 {
		return nil, fmt.Errorf("decode batch: bad item count %d", n)
	}
	if n > (len(data)-4)/minBatchItemLen {
		return nil, fmt.Errorf("decode batch: %w", ErrTruncated)
	}
	for i := 0; i < n; i++ {
		var it BatchItem
		it.Kind = r.uint16()
		it.Payload = r.view(int(r.uint32()))
		dst = append(dst, it)
	}
	if r.err != nil {
		return nil, fmt.Errorf("decode batch: %w", r.err)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("decode batch: %d trailing bytes", len(data)-r.pos)
	}
	return dst, nil
}

// reader is a bounds-checked sequential decoder. After any failure all
// subsequent reads return zero values and err is set.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxFieldLen {
		r.err = ErrOversized
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// view returns n bytes of the buffer without copying (callers own the
// aliasing contract).
func (r *reader) view(n int) []byte {
	return r.take(n)
}
