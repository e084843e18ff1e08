package netstack

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"recipe/internal/bufpool"
	"recipe/internal/telemetry"
)

// Per-peer send coalescing. A node event-loop iteration typically produces
// several messages to the same peer (protocol fan-out plus client replies);
// queueing them and flushing once per iteration lets them ride a single
// packet, paying the stack's per-packet cost once. Both transports implement
// BatchSender; callers that don't use it keep plain per-message Send.
//
// Coalesced packets are framed as [magic][count]([len][bytes])*. The magic
// cannot collide with the other payloads a transport carries: an authn
// envelope starts with a big-endian view number (high word zero in any
// realistic execution) and a raw wire message starts with a small message
// kind, so neither begins with these four bytes.
//
// Buffer discipline: QueueSend transfers buffer ownership to the transport,
// so once a frame's bytes have been copied into a multiframe packet nothing
// references it and the flush returns it to the shared pool — the sender can
// allocate its next frames from the same pool. Frames sent bare stay alive
// when the transport hands them onward by reference (the in-process fabric
// delivers the buffer itself); the TCP transport copies into its own framing
// on write, so its flush recycles everything.

// BatchSender is the optional transport extension for per-peer send queues.
type BatchSender interface {
	// QueueSend buffers data for to; nothing is transmitted until Flush.
	// Ownership of data transfers to the transport — the caller must not
	// reuse the buffer (unlike Send, which copies). The hot path always
	// hands over freshly encoded buffers, so this saves a copy per message.
	QueueSend(to string, data []byte) error
	// Flush transmits every queued buffer, coalescing per-peer runs into
	// single multiframe packets (one packet per peer per flush).
	Flush() error
}

// frameMagic marks a multiframe packet ("RCPB").
const frameMagic uint32 = 0x52435042

// maxCoalescedBytes soft-caps one coalesced packet's payload; runs larger
// than this are split across packets.
const maxCoalescedBytes = 1 << 20

// framesSize returns the encoded size of a multiframe packet.
func framesSize(frames [][]byte) int {
	size := 8
	for _, f := range frames {
		size += 4 + len(f)
	}
	return size
}

// appendFrames encodes a multiframe packet from two or more frames into buf.
func appendFrames(buf []byte, frames [][]byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, frameMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(frames)))
	for _, f := range frames {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// packFrames encodes a multiframe packet from two or more frames.
func packFrames(frames [][]byte) []byte {
	return appendFrames(make([]byte, 0, framesSize(frames)), frames)
}

// SplitFrames detects and splits a multiframe packet. The second return is
// false when data is not multiframe (deliver it as a single payload); a
// truncated or corrupt multiframe packet returns (nil, true, err).
func SplitFrames(data []byte) ([][]byte, bool, error) {
	if len(data) < 8 || binary.BigEndian.Uint32(data) != frameMagic {
		return nil, false, nil
	}
	n := int(binary.BigEndian.Uint32(data[4:]))
	rest := data[8:]
	if n <= 0 || n > len(rest)/4 {
		return nil, true, fmt.Errorf("netstack: multiframe count %d out of range", n)
	}
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 4 {
			return nil, true, fmt.Errorf("netstack: truncated multiframe header")
		}
		l := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if l < 0 || l > len(rest) {
			return nil, true, fmt.Errorf("netstack: truncated multiframe payload")
		}
		frames = append(frames, rest[:l])
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, true, fmt.Errorf("netstack: %d trailing multiframe bytes", len(rest))
	}
	return frames, true, nil
}

// splitRuns partitions frames into consecutive runs under the size cap and
// invokes emit(start, end) for each.
func splitRuns(frames [][]byte, emit func(start, end int)) {
	start, size := 0, 0
	for i, f := range frames {
		if size > 0 && size+len(f) > maxCoalescedBytes {
			emit(start, i)
			start, size = i, 0
		}
		size += len(f)
	}
	if start < len(frames) {
		emit(start, len(frames))
	}
}

// flushRuns coalesces one peer's frames into packets, handing each to send,
// and recycles the buffers the transport is finished with: frames whose
// bytes were copied into a multiframe packet always return to the pool, and
// when sendConsumes is set (the transport's send copies the packet before
// returning, as TCP's does) bare frames and the packed packets do too. The
// first send error is returned after all packets are attempted (lossy
// semantics).
func flushRuns(frames [][]byte, sendConsumes bool, send func([]byte) error) error {
	var firstErr error
	emit := func(pkt []byte) {
		if err := send(pkt); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	splitRuns(frames, func(start, end int) {
		if end-start == 1 {
			emit(frames[start])
			if sendConsumes {
				bufpool.Put(frames[start])
			}
			return
		}
		run := frames[start:end]
		var pkt []byte
		if sendConsumes {
			pkt = appendFrames(bufpool.Get(framesSize(run)), run)
		} else {
			// The receiver retains the packed packet by reference, so it
			// cannot come from the pool; the input frames are dead either way.
			pkt = packFrames(run)
		}
		emit(pkt)
		for _, f := range run {
			bufpool.Put(f)
		}
		if sendConsumes {
			bufpool.Put(pkt)
		}
	})
	return firstErr
}

// flushQueue is the one flush sequence both transports share: take the peer
// order, then per peer take the frames, coalesce-and-send them outside the
// lock via flushRuns, and recycle the queue structure. mu guards q; send
// transmits one packet to one peer; sendConsumes follows flushRuns' contract.
func flushQueue(mu *sync.Mutex, q *sendQueue, sendConsumes bool, send func(to string, pkt []byte) error) error {
	mu.Lock()
	flushHist := q.flushHist
	order := q.takeOrder()
	mu.Unlock()
	var flushStart time.Time
	if flushHist != nil && len(order) > 0 {
		flushStart = time.Now()
	}
	var firstErr error
	for _, to := range order {
		mu.Lock()
		frames := q.takePeer(to)
		mu.Unlock()
		if len(frames) == 0 {
			continue
		}
		dst := to
		err := flushRuns(frames, sendConsumes, func(pkt []byte) error {
			return send(dst, pkt)
		})
		if err != nil && firstErr == nil {
			firstErr = err // lossy semantics: keep flushing other peers
		}
		mu.Lock()
		q.releaseFrames(frames)
		mu.Unlock()
	}
	mu.Lock()
	q.releaseOrder(order)
	mu.Unlock()
	if !flushStart.IsZero() {
		flushHist.RecordSince(flushStart)
	}
	return firstErr
}

// maxQueueFreelist bounds the sendQueue freelists (entries, not bytes).
const maxQueueFreelist = 64

// sendQueue accumulates per-peer frames between flushes, recycling its order
// and per-peer frame slices across flushes so a steady-state flush does not
// allocate queue structure. Callers hold their own lock around access.
type sendQueue struct {
	pending    map[string][][]byte
	order      []string // peers in first-queued order, for deterministic flush
	freeFrames [][][]byte
	freeOrder  [][]string

	// Optional telemetry, attached via Instrumented.SetTelemetry before
	// traffic starts. flushHist times each flush's network writes; dwellHist
	// records how long a peer's oldest queued frame waited before its flush.
	// firstEnq tracks the first enqueue per peer per cycle; steady-state
	// delete/reinsert of the same peer keys reuses map buckets, so the hot
	// path stays allocation-free.
	flushHist *telemetry.Histogram
	dwellHist *telemetry.Histogram
	firstEnq  map[string]time.Time
}

func (q *sendQueue) setTelemetry(flush, dwell *telemetry.Histogram) {
	q.flushHist, q.dwellHist = flush, dwell
}

func (q *sendQueue) add(to string, data []byte) {
	if q.pending == nil {
		q.pending = make(map[string][][]byte)
	}
	fs, ok := q.pending[to]
	if !ok {
		q.order = append(q.order, to)
		if k := len(q.freeFrames); k > 0 {
			fs = q.freeFrames[k-1]
			q.freeFrames = q.freeFrames[:k-1]
		}
		if q.dwellHist != nil {
			if q.firstEnq == nil {
				q.firstEnq = make(map[string]time.Time)
			}
			q.firstEnq[to] = time.Now()
		}
	}
	q.pending[to] = append(fs, data)
}

// takeOrder removes and returns the peer order for one flush; the caller
// hands it back through releaseOrder when done.
func (q *sendQueue) takeOrder() []string {
	order := q.order
	q.order = nil
	if k := len(q.freeOrder); k > 0 {
		q.order = q.freeOrder[k-1]
		q.freeOrder = q.freeOrder[:k-1]
	}
	return order
}

// takePeer removes and returns one peer's queued frames; the caller hands
// the slice back through releaseFrames when done.
func (q *sendQueue) takePeer(to string) [][]byte {
	fs, ok := q.pending[to]
	if !ok {
		return nil
	}
	delete(q.pending, to)
	if q.dwellHist != nil {
		if t0, tracked := q.firstEnq[to]; tracked {
			q.dwellHist.RecordSince(t0)
			delete(q.firstEnq, to)
		}
	}
	return fs
}

func (q *sendQueue) releaseFrames(fs [][]byte) {
	for i := range fs {
		fs[i] = nil // drop buffer refs before the slice is reused
	}
	if len(q.freeFrames) < maxQueueFreelist {
		q.freeFrames = append(q.freeFrames, fs[:0])
	}
}

func (q *sendQueue) releaseOrder(order []string) {
	if len(q.freeOrder) < maxQueueFreelist {
		q.freeOrder = append(q.freeOrder, order[:0])
	}
}
