// Package trace provides lightweight structured event tracing for the
// protocol and cluster runtimes: a bounded in-memory ring of timestamped
// lines, used by debugging tools, the Figure 1 renderer, and tests that
// assert on protocol behaviour.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/vclock"
)

// Tracer records events.  Implementations must be safe for concurrent
// use.
type Tracer interface {
	// Event records one formatted line.
	Event(format string, args ...any)
}

// Nop discards all events.
type Nop struct{}

// Event implements Tracer.
func (Nop) Event(string, ...any) {}

// Ring is a bounded in-memory tracer: a true circular buffer.  When
// full, each new entry overwrites the oldest in O(1) — no slice
// shifting.
type Ring struct {
	mu  sync.Mutex
	max int
	// buf grows to max entries, then stays that length; head is the index
	// of the oldest entry once the buffer has wrapped.
	buf     []string
	head    int
	dropped int
	// Clock, when set, prefixes each entry with the simulated time.
	Clock func() vclock.Time
}

// NewRing returns a tracer retaining at most max entries (min 1).
func NewRing(max int) *Ring {
	if max < 1 {
		max = 1
	}
	return &Ring{max: max}
}

// Event implements Tracer.
func (r *Ring) Event(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Clock != nil {
		line = fmt.Sprintf("[%v] %s", r.Clock(), line)
	}
	if len(r.buf) < r.max {
		r.buf = append(r.buf, line)
		return
	}
	r.buf[r.head] = line
	r.head++
	if r.head == r.max {
		r.head = 0
	}
	r.dropped++
}

// Entries returns a copy of the retained lines, oldest first.
func (r *Ring) Entries() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Dropped returns how many entries were evicted.
func (r *Ring) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Contains reports whether any retained entry contains the substring.
func (r *Ring) Contains(sub string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.buf {
		if strings.Contains(e, sub) {
			return true
		}
	}
	return false
}

// Count returns how many retained entries contain the substring.
func (r *Ring) Count(sub string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.buf {
		if strings.Contains(e, sub) {
			n++
		}
	}
	return n
}

// String joins the retained entries with newlines.
func (r *Ring) String() string {
	return strings.Join(r.Entries(), "\n")
}
