package transport

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Batcher gives the simulated fabric the same coalescing seam the TCP
// writer has, so the deterministic protocol suite exercises the batch
// codec.  It wraps any Transport: Send queues messages per destination
// and flushes a whole queue as one batch when it reaches MaxCount or
// MaxBytes, or — like the TCP writer, which waits for nothing but a
// lone read request (a wait this model leaves out) — at the same instant
// of the wrapped clock the queue was first written, once the running
// event has finished emitting (so one site turn's messages to one peer
// ride one frame).
//
// Each flush round-trips the queued messages through the real batch
// frame codec — encode, verify, decode — before handing them, in order,
// to the inner transport one at a time.  The inner fabric still sees
// individual messages (the simulated network delivers per message), but
// any message the batch codec would mangle fails loudly here instead of
// only on a real socket.
type Batcher struct {
	inner Transport
	clk   vclock.Clock
	cfg   BatchParams

	// Cached metric handles (nil without a registry): flush accounting
	// runs per batch and must not pay a registry lookup each time.
	batchSize *metrics.Histogram
	flushes   map[string]*metrics.Counter
	decodeErr *metrics.Counter

	mu     sync.Mutex
	queues map[protocol.SiteID]*sendQueue
	closed bool
}

// batchFlushReasons enumerates the label values both coalescing layers
// (TCP writer, sim Batcher) record under transport.batch.flushes.
var batchFlushReasons = []string{"count", "size", "drain"}

// BatchParams bounds a Batcher's coalescing.
type BatchParams struct {
	// MaxCount flushes a destination's queue at this many messages
	// (default 32; 1 disables coalescing).
	MaxCount int
	// MaxBytes flushes when the queue's encoded size reaches this many
	// bytes (default 64 KiB).
	MaxBytes int
	// Metrics, when set, receives the same transport.batch.size
	// histogram and transport.batch.flushes{reason} counter the TCP
	// writer records.
	Metrics *metrics.Registry
}

func (p *BatchParams) fillDefaults() {
	if p.MaxCount <= 0 {
		p.MaxCount = 32
	}
	if p.MaxCount > wire.MaxBatch {
		p.MaxCount = wire.MaxBatch
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = 64 << 10
	}
}

// sendQueue buffers one destination's pending messages.
type sendQueue struct {
	msgs  []protocol.Message
	size  int
	timer vclock.TimerID
	armed bool
}

// NewBatcher wraps inner with a coalescing layer driven by clk.
func NewBatcher(inner Transport, clk vclock.Clock, p BatchParams) *Batcher {
	p.fillDefaults()
	b := &Batcher{
		inner:  inner,
		clk:    clk,
		cfg:    p,
		queues: map[protocol.SiteID]*sendQueue{},
	}
	if reg := p.Metrics; reg != nil {
		b.batchSize = reg.Histogram("transport.batch.size")
		b.flushes = map[string]*metrics.Counter{}
		for _, r := range batchFlushReasons {
			b.flushes[r] = reg.Counter("transport.batch.flushes", metrics.L("reason", r))
		}
		b.decodeErr = reg.Counter("transport.decode.errors")
	}
	return b
}

// Send queues msg toward msg.To, flushing the destination's queue when
// a coalescing bound is hit.
func (b *Batcher) Send(msg protocol.Message) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	q := b.queues[msg.To]
	if q == nil {
		q = &sendQueue{}
		b.queues[msg.To] = q
	}
	q.msgs = append(q.msgs, msg)
	q.size += len(wire.EncodeMessage(msg))
	switch {
	case len(q.msgs) >= b.cfg.MaxCount:
		b.flushLocked(msg.To, q, "count")
	case q.size >= b.cfg.MaxBytes:
		b.flushLocked(msg.To, q, "size")
	case !q.armed:
		q.armed = true
		to := msg.To
		q.timer = b.clk.After(0, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			if cur := b.queues[to]; cur != nil && cur.armed && !b.closed {
				b.flushLocked(to, cur, "drain")
			}
		})
	}
	b.mu.Unlock()
}

// flushLocked drains q through the batch codec into the inner
// transport.  Caller holds b.mu.
func (b *Batcher) flushLocked(to protocol.SiteID, q *sendQueue, reason string) {
	if q.armed {
		b.clk.Cancel(q.timer)
		q.armed = false
	}
	if len(q.msgs) == 0 {
		return
	}
	msgs := q.msgs
	q.msgs = nil
	q.size = 0
	// Round-trip through the real batch frame codec: what a TCP peer
	// would receive is exactly what the inner fabric delivers.
	decoded, err := wire.DecodePayload(wire.EncodeBatch(msgs))
	if err != nil {
		// Unreachable for well-formed messages; losing the batch (and
		// counting it) mirrors a corrupt frame on a real link.
		if b.decodeErr != nil {
			b.decodeErr.Inc()
		}
		return
	}
	if b.batchSize != nil {
		b.batchSize.Observe(float64(len(decoded)))
		b.flushes[reason].Inc()
	}
	for _, m := range decoded {
		b.inner.Send(m)
	}
}

// Flush forces out every pending queue (test hooks and shutdown).
func (b *Batcher) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for to, q := range b.queues {
		b.flushLocked(to, q, "drain")
	}
}

// Register installs the delivery handler on the inner fabric.
func (b *Batcher) Register(site protocol.SiteID, h Handler) { b.inner.Register(site, h) }

// SetDown marks a site down on the inner fabric.  Pending queued
// messages for it still flush; the inner fabric drops them, exactly as
// frames already on the wire are lost when a real site dies.
func (b *Batcher) SetDown(site protocol.SiteID, down bool) { b.inner.SetDown(site, down) }

// IsDown reports the inner fabric's view.
func (b *Batcher) IsDown(site protocol.SiteID) bool { return b.inner.IsDown(site) }

// Close flushes every queue and closes the inner fabric.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	for to, q := range b.queues {
		b.flushLocked(to, q, "drain")
	}
	b.closed = true
	b.mu.Unlock()
	return b.inner.Close()
}

var _ Transport = (*Batcher)(nil)
