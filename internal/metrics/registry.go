package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value dimension of a metric series (e.g. site="A",
// phase="wait").
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind distinguishes the three series types a Registry holds.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous level.
	KindGauge
	// KindHistogram is a sample distribution.
	KindHistogram
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string
	labels []Label // sorted by key
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metric series registered by dotted name plus
// labels.  Registration is idempotent: asking for the same (name, labels)
// returns the same instrument, so hot paths may re-look-up rather than
// cache.  Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	series  map[string]*series
	histCap int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: map[string]*series{}}
}

// SetHistogramCap sets the reservoir cap applied to histograms created by
// this registry after the call (0 = package default).
func (r *Registry) SetHistogramCap(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histCap = n
}

// seriesKey canonicalizes a (name, labels) pair: labels sorted by key,
// rendered name{k="v",...}.  This is also the exporter's line prefix.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// normalize validates the name and returns a sorted copy of labels.
func normalize(name string, labels []Label) []Label {
	if name == "" {
		panic("metrics: empty series name")
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i, l := range out {
		if l.Key == "" {
			panic("metrics: empty label key on series " + name)
		}
		if i > 0 && out[i-1].Key == l.Key {
			panic("metrics: duplicate label key " + l.Key + " on series " + name)
		}
	}
	return out
}

// lookup finds or creates a series, enforcing kind consistency.
func (r *Registry) lookup(name string, labels []Label, kind Kind) *series {
	labels = normalize(name, labels)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: series %s already registered as %s, requested as %s", key, s.kind, kind))
		}
		return s
	}
	s := &series{name: name, labels: labels, kind: kind}
	switch kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = NewHistogram(r.histCap)
	}
	r.series[key] = s
	return s
}

// Counter finds or registers the named counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, labels, KindCounter).counter
}

// Gauge finds or registers the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, labels, KindGauge).gauge
}

// Histogram finds or registers the named histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, labels, KindHistogram).hist
}

// Point is one series' state at snapshot time.  Counter and gauge series
// fill Value; histogram series fill Count/Sum/Min/Max and the fixed
// quantiles.
type Point struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Value is the counter or gauge reading.
	Value int64

	// Count and Sum are exact over all observations (reservoir sampling
	// never loses them); Min/Max are the exact extremes.
	Count    int64
	Sum      float64
	Min, Max float64
	// P50/P90/P99 are nearest-rank quantiles over the retained reservoir
	// (exact below the histogram's cap).
	P50, P90, P99 float64
}

// Key returns the canonical series identity (name plus sorted labels).
func (p Point) Key() string { return seriesKey(p.Name, p.Labels) }

// Mean returns Sum/Count (0 with no observations).
func (p Point) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

// Snapshot is a consistent, deterministic reading of every series in a
// registry: points are sorted by series key, so two snapshots of
// identical state render identically.
type Snapshot struct {
	Points []Point
}

// Snapshot reads every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	keys := make([]string, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	list := make([]*series, len(keys))
	for i, k := range keys {
		list[i] = r.series[k]
	}
	r.mu.Unlock()

	snap := Snapshot{Points: make([]Point, 0, len(list))}
	for _, s := range list {
		p := Point{Name: s.name, Labels: append([]Label{}, s.labels...), Kind: s.kind}
		switch s.kind {
		case KindCounter:
			p.Value = s.counter.Value()
		case KindGauge:
			p.Value = s.gauge.Value()
		case KindHistogram:
			h := s.hist
			p.Count = int64(h.Count())
			p.Sum = h.Sum()
			p.Min = h.Min()
			p.Max = h.Max()
			p.P50 = h.Quantile(0.5)
			p.P90 = h.Quantile(0.9)
			p.P99 = h.Quantile(0.99)
		}
		snap.Points = append(snap.Points, p)
	}
	return snap
}

// Get finds a point by name and labels.
func (s Snapshot) Get(name string, labels ...Label) (Point, bool) {
	key := seriesKey(name, normalize(name, labels))
	for _, p := range s.Points {
		if p.Key() == key {
			return p, true
		}
	}
	return Point{}, false
}

// Counter returns a counter/gauge point's value (0 when absent).
func (s Snapshot) Counter(name string, labels ...Label) int64 {
	p, _ := s.Get(name, labels...)
	return p.Value
}

// Total sums a counter or gauge over all its label sets (0 when absent).
func (s Snapshot) Total(name string) int64 {
	var n int64
	for _, p := range s.Points {
		if p.Name == name {
			n += p.Value
		}
	}
	return n
}

// Diff returns the change from earlier to s: counter values and histogram
// count/sum become window deltas; gauges keep their later reading; the
// histogram extremes and quantiles are copied from s (they are cumulative
// and cannot be subtracted).  Series absent from earlier pass through
// unchanged; series absent from s are dropped.
func (s Snapshot) Diff(earlier Snapshot) Snapshot {
	prev := make(map[string]Point, len(earlier.Points))
	for _, p := range earlier.Points {
		prev[p.Key()] = p
	}
	out := Snapshot{Points: make([]Point, 0, len(s.Points))}
	for _, p := range s.Points {
		if q, ok := prev[p.Key()]; ok && q.Kind == p.Kind {
			switch p.Kind {
			case KindCounter:
				p.Value -= q.Value
			case KindHistogram:
				p.Count -= q.Count
				p.Sum -= q.Sum
			}
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// fmtFloat renders a float deterministically and compactly.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Export renders the snapshot as deterministic Prometheus-style text
// lines, sorted by series key.  Counters and gauges emit one line;
// histograms emit _count/_sum/_min/_max lines plus quantile-labelled
// lines.
func (s Snapshot) Export() string {
	var b strings.Builder
	for _, p := range s.Points {
		switch p.Kind {
		case KindCounter, KindGauge:
			b.WriteString(p.Key())
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(p.Value, 10))
			b.WriteByte('\n')
		case KindHistogram:
			suffix := func(sfx string, v string) {
				b.WriteString(seriesKey(p.Name+sfx, p.Labels))
				b.WriteByte(' ')
				b.WriteString(v)
				b.WriteByte('\n')
			}
			suffix("_count", strconv.FormatInt(p.Count, 10))
			suffix("_sum", fmtFloat(p.Sum))
			suffix("_min", fmtFloat(p.Min))
			suffix("_max", fmtFloat(p.Max))
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", p.P50}, {"0.9", p.P90}, {"0.99", p.P99}} {
				quant := append(append([]Label{}, p.Labels...), L("quantile", q.q))
				sort.Slice(quant, func(i, j int) bool { return quant[i].Key < quant[j].Key })
				b.WriteString(seriesKey(p.Name, quant))
				b.WriteByte(' ')
				b.WriteString(fmtFloat(q.v))
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// String renders the snapshot (same as Export).
func (s Snapshot) String() string { return s.Export() }

// Export snapshots the registry and renders it in one step.
func (r *Registry) Export() string { return r.Snapshot().Export() }
