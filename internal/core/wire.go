package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"recipe/internal/kvstore"
)

// Op is a client operation type.
type Op byte

// Client operations.
const (
	// OpPut writes a key.
	OpPut Op = iota + 1
	// OpGet reads a key.
	OpGet
	// OpDelete removes a key. Deletes replicate like writes; deleting an
	// absent key succeeds (idempotent).
	OpDelete
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Command is one client request as seen by the replication protocol.
type Command struct {
	Op         Op
	Key        string
	Value      []byte
	ClientID   string
	ClientAddr string // transport address for the reply
	Seq        uint64 // per-client request sequence (dedup)
}

// Result is the outcome of a command.
type Result struct {
	OK      bool
	Err     string
	Value   []byte
	Version kvstore.Version
}

// Reserved message kinds used by the Recipe layer itself. Protocol-specific
// kinds must start at KindProtocolBase.
const (
	// KindClientReq carries a Command from a client to a coordinator.
	KindClientReq uint16 = 1
	// KindClientResp carries a Result back to the client.
	KindClientResp uint16 = 2
	// KindRedirect tells a client which node currently coordinates.
	KindRedirect uint16 = 3
	// KindStateReq asks a live replica for a state-transfer page.
	KindStateReq uint16 = 4
	// KindStateResp carries one state-transfer page.
	KindStateResp uint16 = 5
	// KindJoin announces a freshly attested node to the membership.
	KindJoin uint16 = 6
	// KindEpochNotice tells a stale-configuration client the current epoch:
	// Term carries the epoch and Value the encoded signed shard map, so the
	// client can verify, refresh its routing table, and retry — instead of
	// spinning against a partition function that no longer exists.
	KindEpochNotice uint16 = 7
	// KindPing is a failure-detector probe: Index carries the probe nonce
	// (echoed by the ack), Value piggybacks membership gossip, and Key — when
	// set — names the origin of an indirect probe this message relays, which
	// must be acked too.
	KindPing uint16 = 8
	// KindPingAck answers a KindPing: Index echoes the nonce, Value
	// piggybacks gossip.
	KindPingAck uint16 = 9
	// KindPingReq asks a relay to ping Key on the sender's behalf (SWIM
	// indirect probe); Index carries the origin's nonce.
	KindPingReq uint16 = 10
	// KindBusy tells a client its op was shed by the admission gate: Index
	// echoes the request sequence. Distinguishable from failure — the op was
	// never submitted, so the client retries after backoff without rotating.
	KindBusy uint16 = 11
	// KindLeaseWidth announces the leader's proposed lease width (Index, in
	// nanoseconds) to followers; they widen/narrow their grantor-side grants
	// and ack.
	KindLeaseWidth uint16 = 12
	// KindLeaseWidthAck confirms a follower adopted the announced width
	// (Index echoes it). The leader widens its holder-side width only once
	// every live follower acked — the safe adoption order.
	KindLeaseWidthAck uint16 = 13
	// KindProtocolBase is the first kind available to protocols.
	KindProtocolBase uint16 = 100
)

// Wire is the single message shape shared by all protocols in this
// repository. Using one generic message keeps the codec small; each protocol
// uses the subset of fields it needs. Kind dispatches handling.
type Wire struct {
	Kind   uint16
	Group  uint32 // replication group (shard) the message addresses
	Epoch  uint64 // configuration epoch the sender routed under
	From   string
	Term   uint64 // term / view / epoch / round
	Index  uint64 // log index / sequence / round-local slot
	Commit uint64 // commit index (leader-based protocols)
	TS     kvstore.Version
	OK     bool
	Key    string
	Value  []byte
	Cmd    *Command
	Cmds   []Command // batches (e.g. AppendEntries)
	Res    *Result
}

// codec errors.
var (
	// ErrWireTruncated reports an undecodable wire message.
	ErrWireTruncated = errors.New("core: truncated wire message")
	// ErrWireOversized reports an implausible length field.
	ErrWireOversized = errors.New("core: oversized wire field")
)

const maxWireField = 64 << 20

// minEncodedCommand is the smallest encoded Command: op (1), four length
// prefixes (4 each), and the sequence number (8).
const minEncodedCommand = 25

// flag bits for optional Wire fields.
const (
	flagOK byte = 1 << iota
	flagCmd
	flagRes
)

// EncodedSize returns the exact encoded length of the message, so callers
// can size a reused or pooled buffer before AppendTo.
func (w *Wire) EncodedSize() int {
	// kind + flags + group + epoch + 5 fixed uint64 + the length prefixes of
	// From, Key, Value, and the Cmds count.
	size := 2 + 1 + 4 + 8 + 5*8 + 4*4 + len(w.From) + len(w.Key) + len(w.Value)
	if w.Cmd != nil {
		size += encodedCommandSize(w.Cmd)
	}
	for i := range w.Cmds {
		size += encodedCommandSize(&w.Cmds[i])
	}
	if w.Res != nil {
		size += 1 + 4 + len(w.Res.Err) + 4 + len(w.Res.Value) + 16
	}
	return size
}

func encodedCommandSize(c *Command) int {
	return minEncodedCommand + len(c.Key) + len(c.Value) + len(c.ClientID) + len(c.ClientAddr)
}

// Encode serialises the message into a fresh buffer.
func (w *Wire) Encode() []byte {
	return w.AppendTo(make([]byte, 0, w.EncodedSize()))
}

// AppendTo serialises the message, appending to buf and returning the
// extended slice. It is the allocation-free encoder of the node's send and
// flush loops: with a reused or pooled buffer of sufficient capacity it
// performs no heap allocation.
func (w *Wire) AppendTo(buf []byte) []byte {
	var flags byte
	if w.OK {
		flags |= flagOK
	}
	if w.Cmd != nil {
		flags |= flagCmd
	}
	if w.Res != nil {
		flags |= flagRes
	}
	buf = binary.BigEndian.AppendUint16(buf, w.Kind)
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, w.Group)
	buf = binary.BigEndian.AppendUint64(buf, w.Epoch)
	buf = appendString(buf, w.From)
	buf = binary.BigEndian.AppendUint64(buf, w.Term)
	buf = binary.BigEndian.AppendUint64(buf, w.Index)
	buf = binary.BigEndian.AppendUint64(buf, w.Commit)
	buf = binary.BigEndian.AppendUint64(buf, w.TS.TS)
	buf = binary.BigEndian.AppendUint64(buf, w.TS.Writer)
	buf = appendString(buf, w.Key)
	buf = appendBytes(buf, w.Value)
	if w.Cmd != nil {
		buf = appendCommand(buf, *w.Cmd)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(w.Cmds)))
	for i := range w.Cmds {
		buf = appendCommand(buf, w.Cmds[i])
	}
	if w.Res != nil {
		buf = appendResult(buf, *w.Res)
	}
	return buf
}

// DecodeWire parses a wire message.
func DecodeWire(data []byte) (*Wire, error) { return decodeWire(data, nil) }

// maxInterned bounds an interner's table. Principals are few (the group's
// replicas and the clients talking to them); the bound only stops a stream
// of distinct names from growing the table without end.
const maxInterned = 1024

// interner hands out one shared string per principal name decoded off the
// wire (Wire.From, Command.ClientID, Command.ClientAddr), so a steady stream
// from the same principals decodes their names without a copy per message.
// Only names are interned: keys, values and commands are always copies.
// When the table is full it starts over. Not safe for concurrent use: the
// node loop owns one and each Client owns one.
type interner struct {
	names map[string]string
}

// intern returns the shared string equal to b, adding it if new.
func (t *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := t.names[string(b)]; ok {
		return s
	}
	if t.names == nil {
		t.names = make(map[string]string)
	} else if len(t.names) >= maxInterned {
		clear(t.names)
	}
	s := string(b)
	t.names[s] = s
	return s
}

// decodeWire parses a wire message, interning principal names through names
// when it is non-nil.
func decodeWire(data []byte, names *interner) (*Wire, error) {
	d := decoder{buf: data, names: names}
	var w Wire
	w.Kind = d.uint16()
	flags := d.byte()
	if flags&^(flagOK|flagCmd|flagRes) != 0 {
		return nil, fmt.Errorf("decode wire: unknown flags %#x", flags)
	}
	w.Group = d.uint32()
	w.Epoch = d.uint64()
	w.From = d.name()
	w.Term = d.uint64()
	w.Index = d.uint64()
	w.Commit = d.uint64()
	w.TS.TS = d.uint64()
	w.TS.Writer = d.uint64()
	w.Key = d.string()
	w.Value = d.bytes()
	w.OK = flags&flagOK != 0
	if flags&flagCmd != 0 {
		c := d.command()
		w.Cmd = &c
	}
	n := int(d.uint32())
	if n > 0 {
		if n > 1<<20 {
			return nil, ErrWireOversized
		}
		// The count is attacker-controlled: bound the preallocation by what
		// the remaining bytes could actually encode (each command takes at
		// least minEncodedCommand bytes), so a tiny packet with a huge count
		// cannot force a ~90 MB allocation.
		if rem := len(data) - d.pos; n > rem/minEncodedCommand {
			return nil, fmt.Errorf("decode wire: %w", ErrWireTruncated)
		}
		w.Cmds = make([]Command, 0, n)
		for i := 0; i < n; i++ {
			w.Cmds = append(w.Cmds, d.command())
		}
	}
	if flags&flagRes != 0 {
		r := d.result()
		w.Res = &r
	}
	if d.err != nil {
		return nil, fmt.Errorf("decode wire: %w", d.err)
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("decode wire: %d trailing bytes", len(data)-d.pos)
	}
	return &w, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendCommand(buf []byte, c Command) []byte {
	buf = append(buf, byte(c.Op))
	buf = appendString(buf, c.Key)
	buf = appendBytes(buf, c.Value)
	buf = appendString(buf, c.ClientID)
	buf = appendString(buf, c.ClientAddr)
	return binary.BigEndian.AppendUint64(buf, c.Seq)
}

func appendResult(buf []byte, r Result) []byte {
	if r.OK {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, r.Err)
	buf = appendBytes(buf, r.Value)
	buf = binary.BigEndian.AppendUint64(buf, r.Version.TS)
	return binary.BigEndian.AppendUint64(buf, r.Version.Writer)
}

// decoder mirrors the authn package's bounds-checked reader.
type decoder struct {
	buf   []byte
	pos   int
	err   error
	names *interner // nil: principal names are copied like any string
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > maxWireField {
		d.err = ErrWireOversized
		return nil
	}
	if d.pos+n > len(d.buf) {
		d.err = ErrWireTruncated
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) string() string {
	n := int(d.uint32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// name reads a principal name, through the interner when there is one.
func (d *decoder) name() string {
	if d.names == nil {
		return d.string()
	}
	b := d.take(int(d.uint32()))
	if b == nil {
		return ""
	}
	return d.names.intern(b)
}

func (d *decoder) bytes() []byte {
	n := int(d.uint32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (d *decoder) command() Command {
	var c Command
	c.Op = Op(d.byte())
	c.Key = d.string()
	c.Value = d.bytes()
	c.ClientID = d.name()
	c.ClientAddr = d.name()
	c.Seq = d.uint64()
	return c
}

func (d *decoder) result() Result {
	var r Result
	switch b := d.byte(); b {
	case 0, 1:
		r.OK = b == 1
	default:
		if d.err == nil {
			d.err = fmt.Errorf("bad result flag %#x", b)
		}
	}
	r.Err = d.string()
	r.Value = d.bytes()
	r.Version.TS = d.uint64()
	r.Version.Writer = d.uint64()
	return r
}
