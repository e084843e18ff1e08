package netstack

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"recipe/internal/bufpool"
)

// TCPTransport implements Transport over real TCP connections, used by the
// cmd/ tools to run replicas as separate OS processes. Frames are
// length-prefixed: [4 total][2 fromLen][from][payload].
type TCPTransport struct {
	addr     string
	listener net.Listener
	inbox    chan Packet

	mu       sync.Mutex
	conns    map[string]net.Conn // outgoing, keyed by peer address
	accepted []net.Conn          // incoming, closed on shutdown
	closed   bool
	queue    sendQueue
	wg       sync.WaitGroup
}

var (
	_ Transport   = (*TCPTransport)(nil)
	_ BatchSender = (*TCPTransport)(nil)
)

// maxTCPFrame bounds accepted frame sizes.
const maxTCPFrame = 64 << 20

// NewTCPTransport listens on addr ("host:port"); the listen address is the
// endpoint's identity, so peers dial it directly.
func NewTCPTransport(addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp transport: %w", err)
	}
	t := &TCPTransport{
		addr:     ln.Addr().String(),
		listener: ln,
		inbox:    make(chan Packet, inboxDepth),
		conns:    make(map[string]net.Conn),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's listen address.
func (t *TCPTransport) Addr() string { return t.addr }

// Inbox returns the delivery channel.
func (t *TCPTransport) Inbox() <-chan Packet { return t.inbox }

// Send frames and writes data to the peer, dialing on first use. Failures
// drop the connection; the next Send re-dials (lossy semantics).
func (t *TCPTransport) Send(to string, data []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	conn, ok := t.conns[to]
	t.mu.Unlock()

	if !ok {
		var err error
		conn, err = net.Dial("tcp", to)
		if err != nil {
			return fmt.Errorf("tcp dial %s: %w", to, err)
		}
		t.mu.Lock()
		if existing, raced := t.conns[to]; raced {
			_ = conn.Close()
			conn = existing
		} else {
			t.conns[to] = conn
		}
		t.mu.Unlock()
	}

	// The frame staging buffer is pooled: the write either completes or the
	// connection is dropped, and in both cases the buffer is ours again.
	frame := appendTCPFrame(bufpool.Get(4+2+len(t.addr)+len(data)), t.addr, data)
	_, err := conn.Write(frame)
	bufpool.Put(frame)
	if err != nil {
		t.dropConn(to, conn)
		return fmt.Errorf("tcp write %s: %w", to, err)
	}
	return nil
}

// QueueSend implements BatchSender: it buffers data for to until the next
// Flush, taking ownership of the buffer.
func (t *TCPTransport) QueueSend(to string, data []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	t.queue.add(to, data)
	return nil
}

// Flush implements BatchSender: per-peer runs of queued sends are coalesced
// into single multiframe payloads, so one TCP frame (one write syscall)
// carries the whole run. Send copies everything into its own framing, so the
// flush returns every queued buffer — bare and packed alike — to the shared
// pool, and the queue's order and frame slices are reused across flushes.
func (t *TCPTransport) Flush() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.mu.Unlock()
	// sendConsumes=true: Send copies into its own pooled framing before
	// writing, so every queued buffer is recycled by the flush.
	return flushQueue(&t.mu, &t.queue, true, t.Send)
}

// Close stops the listener, closes connections, and closes the inbox.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns)+len(t.accepted))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	conns = append(conns, t.accepted...)
	t.conns = map[string]net.Conn{}
	t.accepted = nil
	t.mu.Unlock()

	_ = t.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	close(t.inbox)
	return nil
}

func (t *TCPTransport) dropConn(to string, conn net.Conn) {
	_ = conn.Close()
	t.mu.Lock()
	if t.conns[to] == conn {
		delete(t.conns, to)
	}
	t.mu.Unlock()
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.accepted = append(t.accepted, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() { _ = conn.Close() }()
	for {
		from, payload, err := readTCPFrame(conn)
		if err != nil {
			return
		}
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		select {
		case t.inbox <- Packet{From: from, To: t.addr, Data: payload}:
		default:
			// Inbox overflow: drop, matching the lossy fabric model.
		}
	}
}

func appendTCPFrame(buf []byte, from string, data []byte) []byte {
	total := 2 + len(from) + len(data)
	buf = binary.BigEndian.AppendUint32(buf, uint32(total))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(from)))
	buf = append(buf, from...)
	buf = append(buf, data...)
	return buf
}

func readTCPFrame(r io.Reader) (from string, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", nil, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 2 || total > maxTCPFrame {
		return "", nil, fmt.Errorf("tcp frame size %d out of range", total)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return "", nil, err
	}
	fromLen := int(binary.BigEndian.Uint16(body[:2]))
	if 2+fromLen > len(body) {
		return "", nil, fmt.Errorf("tcp frame: bad from length %d", fromLen)
	}
	return string(body[2 : 2+fromLen]), body[2+fromLen:], nil
}
