package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("site", "A"))
	b := r.Counter("x", L("site", "A"))
	if a != b {
		t.Error("same name+labels should return the same counter")
	}
	if r.Counter("x", L("site", "B")) == a {
		t.Error("different labels should return a different counter")
	}
	if r.Counter("y") == a {
		t.Error("different name should return a different counter")
	}
}

func TestRegistryLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("a", "1"), L("b", "2"))
	b := r.Counter("x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Error("label order must not distinguish series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestRegistryEmptyNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty series name")
		}
	}()
	r.Counter("")
}

func TestRegistryDuplicateLabelKeyPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate label key")
		}
	}()
	r.Counter("x", L("a", "1"), L("a", "2"))
}

// TestRegistryConcurrent hammers registration and updates from many
// goroutines; run under -race this is the registry's thread-safety test.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Gauge("gauge", L("w", string(rune('a'+w)))).Set(int64(i))
				r.Histogram("hist").Observe(float64(i))
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if p, ok := r.Snapshot().Get("hist"); !ok || p.Count != workers*perWorker {
		t.Errorf("hist count = %d, want %d", p.Count, workers*perWorker)
	}
}

// TestSnapshotDeterminism: registration order must not affect the
// exported text.
func TestSnapshotDeterminism(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	fill := func(r *Registry, rev bool) {
		names := []string{"alpha", "beta", "gamma"}
		if rev {
			names = []string{"gamma", "beta", "alpha"}
		}
		for _, n := range names {
			r.Counter(n, L("site", "A")).Add(7)
			r.Counter(n, L("site", "B")).Add(3)
		}
		r.Histogram("h").Observe(1.5)
		r.Gauge("g").Set(-2)
	}
	fill(a, false)
	fill(b, true)
	if a.Export() != b.Export() {
		t.Errorf("exports differ:\n%s\nvs\n%s", a.Export(), b.Export())
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Add(10)
	g.Set(5)
	h.Observe(2)
	earlier := r.Snapshot()
	c.Add(4)
	g.Set(-1)
	h.Observe(6)
	h.Observe(6)
	r.Counter("new").Inc() // absent from earlier: passes through
	d := r.Snapshot().Diff(earlier)

	if got := d.Counter("c"); got != 4 {
		t.Errorf("counter delta = %d, want 4", got)
	}
	if got := d.Counter("g"); got != -1 {
		t.Errorf("gauge diff should keep later value, got %d", got)
	}
	if got := d.Counter("new"); got != 1 {
		t.Errorf("new counter should pass through, got %d", got)
	}
	p, ok := d.Get("h")
	if !ok || p.Count != 2 || p.Sum != 12 {
		t.Errorf("histogram window = count %d sum %g, want 2 / 12", p.Count, p.Sum)
	}
}

// TestExportGolden pins the exact text format: sorted series, canonical
// label rendering, histogram suffix lines and quantile labels.
func TestExportGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("txn.committed").Add(3)
	r.Counter("network.sent", L("type", "prepare")).Add(12)
	r.Gauge("poly.population").Set(2)
	h := r.Histogram("lat.seconds", L("site", "A"))
	h.Observe(0.25)
	h.Observe(0.75)
	want := strings.Join([]string{
		`lat.seconds_count{site="A"} 2`,
		`lat.seconds_sum{site="A"} 1`,
		`lat.seconds_min{site="A"} 0.25`,
		`lat.seconds_max{site="A"} 0.75`,
		`lat.seconds{quantile="0.5",site="A"} 0.25`,
		`lat.seconds{quantile="0.9",site="A"} 0.75`,
		`lat.seconds{quantile="0.99",site="A"} 0.75`,
		`network.sent{type="prepare"} 12`,
		`poly.population 2`,
		`txn.committed 3`,
	}, "\n") + "\n"
	if got := r.Export(); got != want {
		t.Errorf("export mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshotGetMissing(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Snapshot().Get("nope"); ok {
		t.Error("Get of unregistered series should report absence")
	}
	if v := r.Snapshot().Counter("nope"); v != 0 {
		t.Errorf("Counter of unregistered series = %d, want 0", v)
	}
}

func TestSnapshotTotal(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.sent", L("type", "a")).Add(2)
	r.Counter("net.sent", L("type", "b")).Add(3)
	r.Counter("net.sent").Add(1)
	r.Counter("net.sent.bytes").Add(100) // a longer name is another series
	r.Gauge("queue", L("peer", "x")).Set(4)
	r.Gauge("queue", L("peer", "y")).Set(5)
	snap := r.Snapshot()
	for name, want := range map[string]int64{"net.sent": 6, "queue": 9, "nope": 0} {
		if got := snap.Total(name); got != want {
			t.Errorf("Total(%q) = %d, want %d", name, got, want)
		}
	}
}

// TestHistogramReservoirBounded: far more observations than the cap keeps
// exact count/sum/extremes while bounding retained samples.
func TestHistogramReservoirBounded(t *testing.T) {
	h := NewHistogram(100)
	const n = 10000
	var sum float64
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
		sum += float64(i)
	}
	if h.Count() != n {
		t.Errorf("Count = %d, want %d (must stay exact past the cap)", h.Count(), n)
	}
	if h.Retained() != 100 {
		t.Errorf("Retained = %d, want 100", h.Retained())
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %g, want %g", h.Sum(), sum)
	}
	if h.Min() != 0 || h.Max() != n-1 {
		t.Errorf("Min/Max = %g/%g, want 0/%d", h.Min(), h.Max(), n-1)
	}
	// The reservoir is a uniform sample: the median estimate should land
	// in the middle half of the range.
	if q := h.Quantile(0.5); q < n/4 || q > 3*n/4 {
		t.Errorf("reservoir median %g implausibly far from %d", q, n/2)
	}
}

func TestRegistrySetHistogramCap(t *testing.T) {
	r := NewRegistry()
	r.SetHistogramCap(10)
	h := r.Histogram("h")
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
	if h.Retained() > 10 {
		t.Errorf("Retained = %d, want <= 10", h.Retained())
	}
}
