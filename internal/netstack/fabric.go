package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Packet is one message in flight on the fabric.
type Packet struct {
	From string
	To   string
	Data []byte
}

// Transport is the node-facing abstraction over any concrete network: the
// in-process fabric endpoint or the TCP transport.
type Transport interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Send enqueues data for delivery to the named endpoint. Delivery is
	// unreliable: Send returning nil does not guarantee receipt.
	Send(to string, data []byte) error
	// Inbox is the stream of delivered packets. It is closed by Close.
	Inbox() <-chan Packet
	// Close releases the endpoint and closes its inbox.
	Close() error
}

// Fabric errors.
var (
	// ErrUnknownEndpoint is returned when sending to an unregistered address.
	ErrUnknownEndpoint = errors.New("netstack: unknown endpoint")
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("netstack: endpoint closed")
	// ErrDuplicateAddr is returned when registering an existing address.
	ErrDuplicateAddr = errors.New("netstack: address already registered")
)

// inboxDepth bounds each endpoint's receive queue. Overflowing packets are
// dropped (counted), matching the lossy network model.
const inboxDepth = 4096

// Fabric is the in-process switched network connecting endpoints.
type Fabric struct {
	stack StackModel

	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	injector  Injector

	delivered atomic.Uint64
	dropped   atomic.Uint64
	bytes     atomic.Uint64
}

// FabricOption configures a Fabric.
type FabricOption func(*Fabric)

// WithStack selects the fabric's cost model (default DirectIO native).
func WithStack(s StackModel) FabricOption {
	return func(f *Fabric) { f.stack = s }
}

// WithInjector installs a Byzantine network fault injector. Injectors that
// schedule asynchronous deliveries (DeliverScheduler, e.g. LinkDelay) are
// handed the fabric's deliver function.
func WithInjector(inj Injector) FabricOption {
	return func(f *Fabric) {
		f.injector = inj
		if ds, ok := inj.(DeliverScheduler); ok {
			ds.SetDeliver(f.deliver)
		}
	}
}

// NewFabric creates an empty fabric.
func NewFabric(opts ...FabricOption) *Fabric {
	f := &Fabric{
		stack:     Stacks[StackDirectIO],
		endpoints: make(map[string]*Endpoint),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// SetInjector swaps the fault injector at runtime (fault schedules).
// DeliverScheduler injectors are hooked to the fabric's deliver function,
// as in WithInjector.
func (f *Fabric) SetInjector(inj Injector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.injector = inj
	if ds, ok := inj.(DeliverScheduler); ok {
		ds.SetDeliver(f.deliver)
	}
}

// Register creates an endpoint with the given address.
func (f *Fabric) Register(addr string) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.endpoints[addr]; exists {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateAddr, addr)
	}
	ep := &Endpoint{
		fabric: f,
		addr:   addr,
		inbox:  make(chan Packet, inboxDepth),
	}
	f.endpoints[addr] = ep
	return ep, nil
}

// Remove unregisters an endpoint (used when a node crashes); in-flight
// packets to it are dropped.
func (f *Fabric) Remove(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.endpoints, addr)
}

// Stats returns cumulative delivered packets, dropped packets, and bytes.
func (f *Fabric) Stats() (delivered, dropped, bytes uint64) {
	return f.delivered.Load(), f.dropped.Load(), f.bytes.Load()
}

// send routes one packet, applying the stack cost model and fault injector.
func (f *Fabric) send(pkt Packet) error {
	f.stack.Charge(len(pkt.Data))

	f.mu.RLock()
	inj := f.injector
	f.mu.RUnlock()

	if inj == nil {
		// Fast path: no injector, no per-packet slice.
		f.deliver(pkt)
		return nil
	}
	for _, p := range inj.Apply(pkt) {
		f.deliver(p)
	}
	return nil
}

// deliver places one packet into the destination inbox, dropping on overflow
// or unknown destination (lossy network).
func (f *Fabric) deliver(p Packet) {
	f.mu.RLock()
	dst, ok := f.endpoints[p.To]
	f.mu.RUnlock()
	if !ok {
		f.dropped.Add(1)
		return
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed {
		f.dropped.Add(1)
		return
	}
	select {
	case dst.inbox <- p:
		f.delivered.Add(1)
		f.bytes.Add(uint64(len(p.Data)))
	default:
		f.dropped.Add(1)
	}
}

// Endpoint is one attachment point on the fabric.
type Endpoint struct {
	fabric *Fabric
	addr   string

	mu     sync.Mutex
	closed bool
	inbox  chan Packet
	queue  sendQueue
}

var (
	_ Transport   = (*Endpoint)(nil)
	_ BatchSender = (*Endpoint)(nil)
)

// Addr returns the endpoint address.
func (e *Endpoint) Addr() string { return e.addr }

// Send transmits data to another endpoint on the fabric. The payload is
// copied, so callers may reuse their buffer.
func (e *Endpoint) Send(to string, data []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	buf := make([]byte, len(data))
	copy(buf, data)
	return e.fabric.send(Packet{From: e.addr, To: to, Data: buf})
}

// QueueSend implements BatchSender: it buffers data for to until the next
// Flush, taking ownership of the buffer.
func (e *Endpoint) QueueSend(to string, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.queue.add(to, data)
	return nil
}

// Flush implements BatchSender: per-peer runs of queued sends ride one
// multiframe packet, charging the stack's per-packet cost once per peer
// instead of once per message. Frame buffers that were packed into a
// multiframe packet return to the shared pool (bare frames travel to the
// receiver by reference and stay alive); the queue's own order and frame
// slices are reused across flushes.
func (e *Endpoint) Flush() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	// sendConsumes=false: the fabric delivers bare frames and packed packets
	// to the receiver by reference, so only frames copied into a multiframe
	// packet are recycled (inside flushRuns).
	return flushQueue(&e.mu, &e.queue, false, func(to string, pkt []byte) error {
		return e.fabric.send(Packet{From: e.addr, To: to, Data: pkt})
	})
}

// Inbox returns the endpoint's delivery channel.
func (e *Endpoint) Inbox() <-chan Packet { return e.inbox }

// Close detaches the endpoint from the fabric and closes the inbox.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.fabric.Remove(e.addr)
	close(e.inbox)
	return nil
}
