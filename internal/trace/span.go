// Package trace records structured per-transaction spans for the
// protocol and cluster runtimes and merges them into cross-site
// timelines: the span log behind the REPL's trace command, the
// telemetry endpoints, polytrace and the tests that assert on protocol
// behaviour.
package trace

import (
	"hash/fnv"
	"sync"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// SpanID identifies one span.  IDs handed out by a SpanLog are salted
// with the owning site's name in the high bits, so spans recorded
// independently at different sites merge into one timeline without ID
// collisions.  Zero is never a valid ID; a zero Parent marks a root.
type SpanID uint64

// Span is one structured trace event: a named interval of a
// transaction's life at one site, causally linked to its parent.  Spans
// answer "what happened to transaction T, everywhere".
//
// Times are vclock instants (nanoseconds since the owning scheduler's
// epoch): deterministic under simulation, wall-anchored in live runs.
// A point event carries Start == End.
type Span struct {
	ID     SpanID            `json:"id"`
	Parent SpanID            `json:"parent,omitempty"`
	TID    string            `json:"tid,omitempty"`
	Site   string            `json:"site"`
	Kind   string            `json:"kind"`
	Start  vclock.Time       `json:"start_ns"`
	End    vclock.Time       `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// SpanLog is a bounded in-memory span recorder: a circular buffer of
// structured spans.  When full, each new span
// overwrites the oldest and the dropped count grows — silent loss is
// always queryable.  Safe for concurrent use.
type SpanLog struct {
	mu      sync.Mutex
	max     int
	buf     []Span
	head    int
	dropped int
	nextID  uint64
	salt    uint64
}

// NewSpanLog returns a log retaining at most max spans (min 1) with an
// unsalted ID space — fine for a single-log process.
func NewSpanLog(max int) *SpanLog { return NewSpanLogFor("", max) }

// NewSpanLogFor returns a log whose span IDs carry a site-derived salt
// in the high 32 bits, so per-site logs can be merged without ID
// collisions (distinct sites hash apart; within a site IDs are
// sequential).
func NewSpanLogFor(site string, max int) *SpanLog {
	if max < 1 {
		max = 1
	}
	l := &SpanLog{max: max}
	if site != "" {
		h := fnv.New32a()
		h.Write([]byte(site))
		l.salt = uint64(h.Sum32()) << 32
	}
	return l
}

// NextID allocates a fresh span ID.
func (l *SpanLog) NextID() SpanID {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return SpanID(l.salt | (l.nextID & 0xffffffff))
}

// Record appends one finished span.  A span with ID zero is assigned a
// fresh one; the (possibly assigned) ID is returned.
func (l *SpanLog) Record(s Span) SpanID {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.ID == 0 {
		l.nextID++
		s.ID = SpanID(l.salt | (l.nextID & 0xffffffff))
	}
	if len(l.buf) < l.max {
		l.buf = append(l.buf, s)
		return s.ID
	}
	l.buf[l.head] = s
	l.head++
	if l.head == l.max {
		l.head = 0
	}
	l.dropped++
	return s.ID
}

// Spans returns a copy of the retained spans, oldest first.
func (l *SpanLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, 0, len(l.buf))
	out = append(out, l.buf[l.head:]...)
	out = append(out, l.buf[:l.head]...)
	return out
}

// ByTID returns the retained spans for one transaction, oldest first.
func (l *SpanLog) ByTID(tid string) []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Span
	for _, s := range l.buf[l.head:] {
		if s.TID == tid {
			out = append(out, s)
		}
	}
	for _, s := range l.buf[:l.head] {
		if s.TID == tid {
			out = append(out, s)
		}
	}
	return out
}

// Len returns the number of retained spans.
func (l *SpanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Dropped returns how many spans were evicted.
func (l *SpanLog) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Instrument publishes the log's loss and occupancy as gauges on reg:
// trace.spans.dropped and trace.spans.retained.  Call after mutating
// bursts (or periodically); gauges are levels, not deltas, so refreshing
// is idempotent.
func (l *SpanLog) Instrument(reg *metrics.Registry, labels ...metrics.Label) {
	l.mu.Lock()
	dropped, retained := l.dropped, len(l.buf)
	l.mu.Unlock()
	reg.Gauge("trace.spans.dropped", labels...).Set(int64(dropped))
	reg.Gauge("trace.spans.retained", labels...).Set(int64(retained))
}
