// Package metrics provides the counters and histograms used by the
// cluster runtime and the benchmark harness: transaction latency
// distributions, polyvalue population gauges, and protocol counters.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use.  The zero value is ready.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (must be ≥ 0).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous level (e.g. current polyvalue population).
// The zero value is ready.
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the level by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultReservoirCap bounds a histogram's retained samples unless
// overridden by NewHistogram or SetCap.  Count, Sum, Mean, Min and Max
// stay exact regardless; only quantiles become approximate (computed over
// a uniform reservoir) once more than cap samples have been observed.
const DefaultReservoirCap = 4096

// Histogram collects float64 samples and answers summary queries.  Memory
// is bounded: beyond its cap it keeps a uniform random reservoir
// (Vitter's Algorithm R with a deterministic generator, so equal
// observation sequences yield equal state).  Safe for concurrent use.
// The zero value is ready with the default cap.
//
// Every observer and reader takes the one mutex.  A site observes from
// its event queue and its releaser, so the lock sees little contention,
// and the state stays exact and deterministic: a seeded simulated run
// reproduces the reservoir sample for sample.
type Histogram struct {
	mu      sync.Mutex
	cap     int
	count   int64
	sum     float64
	min     float64
	max     float64
	samples []float64
	sorted  bool
	rng     uint64
}

// NewHistogram returns a histogram retaining at most cap samples for
// quantile estimation (cap <= 0 selects DefaultReservoirCap).
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		cap = DefaultReservoirCap
	}
	return &Histogram{cap: cap}
}

// SetCap changes the reservoir cap (n <= 0 selects the default).  If the
// histogram already retains more than n samples, the retained set is
// truncated; count/sum/mean/min/max are unaffected.
func (h *Histogram) SetCap(n int) {
	if n <= 0 {
		n = DefaultReservoirCap
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cap = n
	if len(h.samples) > n {
		h.samples = h.samples[:n]
		h.sorted = false
	}
}

// next returns a deterministic pseudo-random index in [0, n).
func (h *Histogram) next(n int64) int64 {
	if h.rng == 0 {
		h.rng = 0x9E3779B97F4A7C15
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return int64(h.rng % uint64(n))
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cap <= 0 {
		h.cap = DefaultReservoirCap
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
		h.sorted = false
		return
	}
	// Reservoir full: replace a random slot with probability cap/count,
	// keeping the retained set a uniform sample of everything observed.
	if j := h.next(h.count); j < int64(h.cap) {
		h.samples[j] = v
		h.sorted = false
	}
}

// Count returns the number of samples observed (exact, not the retained
// reservoir size).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Retained returns how many samples the reservoir currently holds.
func (h *Histogram) Retained() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum returns the exact sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the exact sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank over the
// retained reservoir (exact while fewer than cap samples have been
// observed); 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	q = math.Max(0, math.Min(1, q))
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Min returns the smallest sample ever observed (0 with no samples).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest sample ever observed (0 with no samples).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Summary renders count/mean/p50/p99 on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Reset discards all samples (the cap is retained).
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sorted = false
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	h.mu.Unlock()
}
