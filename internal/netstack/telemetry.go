package netstack

import (
	"recipe/internal/telemetry"
)

// Instrumented is the optional transport extension for attaching latency
// telemetry to the per-peer send queue. Like BatchSender, the
// node discovers it by type assertion, so transports without a queue simply
// don't implement it.
type Instrumented interface {
	// SetTelemetry attaches the flush-latency histogram (time spent writing
	// one flush's coalesced packets to the wire) and the queue-dwell
	// histogram (how long a peer's oldest queued frame waited between
	// enqueue and its flush). Attach before traffic starts; both histograms
	// are nil-safe, and a nil histogram disables that measurement.
	SetTelemetry(flush, dwell *telemetry.Histogram)
}

var (
	_ Instrumented = (*TCPTransport)(nil)
	_ Instrumented = (*Endpoint)(nil)
	_ Instrumented = (*Mapped)(nil)
)

// SetTelemetry implements Instrumented.
func (t *TCPTransport) SetTelemetry(flush, dwell *telemetry.Histogram) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queue.setTelemetry(flush, dwell)
}

// SetTelemetry implements Instrumented.
func (e *Endpoint) SetTelemetry(flush, dwell *telemetry.Histogram) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue.setTelemetry(flush, dwell)
}

// SetTelemetry forwards to the wrapped transport when it is instrumented.
// Mapped itself has no queue — identity translation is free.
func (m *Mapped) SetTelemetry(flush, dwell *telemetry.Histogram) {
	if it, ok := m.inner.(Instrumented); ok {
		it.SetTelemetry(flush, dwell)
	}
}
