package cluster

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// TestStatsViewMatchesRegistry: the legacy Stats struct is a view over
// the registry-backed counters — the two must always agree.
func TestStatsViewMatchesRegistry(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if err := c.Load("bx", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	c.ArmCrashBeforeDecision("A")
	_, _ = c.Submit("A", "bx = bx + 1")
	c.RunFor(2 * time.Second)
	c.Restart("A")
	c.RunFor(5 * time.Second)

	st := c.Stats()
	snap := c.Metrics().Snapshot()
	for _, row := range []struct {
		name string
		want int64
	}{
		{"txn.committed", st.Committed},
		{"txn.aborted", st.Aborted},
		{"txn.indoubt", st.InDoubt},
		{"poly.installs", st.PolyInstalls},
		{"poly.reductions", st.PolyReductions},
		{"txn.refused", st.Refused},
	} {
		if got := snap.Counter(row.name); got != row.want {
			t.Errorf("%s = %d, Stats view says %d", row.name, got, row.want)
		}
	}
}

// TestPolyvalueLifecycleMetrics: a coordinator crash installs polyvalues
// (population rises), repair reduces them (population returns to zero and
// every install/reduce pair lands in the lifetime histogram), and the
// span log records the install and the reduction.
func TestPolyvalueLifecycleMetrics(t *testing.T) {
	c, spans := newSpanCluster(t, PolicyPolyvalue, nil)
	if err := c.Load("bx", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	c.ArmCrashBeforeDecision("A")
	_, _ = c.Submit("A", "bx = bx + 1")
	c.RunFor(2 * time.Second)

	mid := c.Metrics().Snapshot()
	if n := mid.Counter("poly.installs"); n == 0 {
		t.Fatal("crash produced no polyvalue installs")
	}
	if pop := mid.Counter("poly.population"); pop == 0 {
		t.Error("population gauge should be nonzero while uncertain")
	}
	if got := int64(kinds(spans.Spans())["poly.install"]); got != mid.Counter("poly.installs") {
		t.Errorf("poly.install spans = %d, counter = %d", got, mid.Counter("poly.installs"))
	}

	c.Restart("A")
	c.RunFor(5 * time.Second)
	snap := c.Metrics().Snapshot()
	if pop := snap.Counter("poly.population"); pop != 0 {
		t.Errorf("population gauge = %d after settle, want 0", pop)
	}
	if snap.Counter("poly.reductions") == 0 {
		t.Error("repair produced no reductions")
	}
	lt, ok := snap.Get("poly.lifetime.seconds")
	if !ok || lt.Count == 0 {
		t.Fatal("no polyvalue lifetimes observed")
	}
	if lt.Min <= 0 {
		t.Errorf("lifetime min = %g, want > 0 (install and reduction are separated by repair)", lt.Min)
	}
	if kinds(spans.Spans())["poly.reduce"] == 0 {
		t.Error("no poly.reduce spans")
	}
}

// TestPhaseHistograms: a clean commit populates the read, prepare and
// settle phase histograms; the wait phase records only on timeout or
// outcome delivery, which a clean remote commit also exercises.
func TestPhaseHistograms(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 1)
	loadInt(t, c, "bx", 1)
	// The write at B reads ax at A: a read round runs.
	h, _ := c.Submit("A", "bx = bx + ax")
	c.RunFor(2 * time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	snap := c.Metrics().Snapshot()
	for _, phase := range []string{"read", "prepare", "wait", "settle"} {
		p, ok := snap.Get("protocol.phase.seconds", metrics.L("phase", phase))
		if !ok || p.Count == 0 {
			t.Errorf("phase %q has no observations", phase)
			continue
		}
		if p.Sum <= 0 {
			t.Errorf("phase %q total latency = %g, want > 0", phase, p.Sum)
		}
	}
}

// TestReadPhaseCountsReadRounds: the read-phase histogram observes one
// sample per read round, and none for a transaction that had none (a
// blind write, or a write that reads only its own site's items).
func TestReadPhaseCountsReadRounds(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 1)
	loadInt(t, c, "bx", 1)
	for _, program := range []string{"bx = 5", "bx = bx + 1", "bx = bx + ax", "bx = bx - 1 if ax >= 1"} {
		h, _ := c.Submit("A", program)
		c.RunFor(time.Second)
		if h.Status() != StatusCommitted {
			t.Fatalf("%s: %v (%s)", program, h.Status(), h.Reason())
		}
	}
	rounds := sent(c, "read-req") / 2 // each reads at A and at B
	p, _ := c.Metrics().Snapshot().Get("protocol.phase.seconds", metrics.L("phase", "read"))
	if rounds != 2 || p.Count != rounds {
		t.Errorf("read phase observed %d times over %d read rounds, want 2 and 2", p.Count, rounds)
	}
}

// TestSharedRegistryAggregates: two clusters reporting into one registry
// accumulate into the same series.
func TestSharedRegistryAggregates(t *testing.T) {
	reg := metrics.NewRegistry()
	mk := func() *Cluster {
		c, err := New(Config{
			Sites:   []protocol.SiteID{"A", "B"},
			Net:     network.Config{Latency: 5 * time.Millisecond},
			Metrics: reg,
			Placement: func(item string) protocol.SiteID {
				if item[0] == 'a' {
					return "A"
				}
				return "B"
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	c1, c2 := mk(), mk()
	for _, c := range []*Cluster{c1, c2} {
		if err := c.Load("bx", polyvalue.Simple(value.Int(1))); err != nil {
			t.Fatal(err)
		}
		h, _ := c.Submit("A", "bx = bx + 1")
		c.RunFor(time.Second)
		if h.Status() != StatusCommitted {
			t.Fatal("setup failed")
		}
	}
	if got := reg.Snapshot().Counter("txn.committed"); got != 2 {
		t.Errorf("shared txn.committed = %d, want 2", got)
	}
	if c1.Metrics() != reg || c2.Metrics() != reg {
		t.Error("Metrics() should expose the shared registry")
	}
}

// TestLatencyHistogramIsRegistrySeries: the legacy accessor and the
// registry expose the same histogram.
func TestLatencyHistogramIsRegistrySeries(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if err := c.Load("bx", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	_, _ = c.Submit("A", "bx = bx + 1")
	c.RunFor(time.Second)
	if c.LatencyHistogram() != c.Metrics().Histogram("txn.latency.seconds") {
		t.Error("LatencyHistogram should be the registry's txn.latency.seconds series")
	}
	if c.LatencyHistogram().Count() == 0 {
		t.Error("no latency observations after a commit")
	}
}

// TestOutboxWaitHistogram: site.outbox.wait.seconds measures the engine's
// park stage, so a site without a group log never feeds it and a SyncWAL
// site committing a transfer does (its ready waits for the prepared
// record's sync).
func TestOutboxWaitHistogram(t *testing.T) {
	for _, syncWAL := range []bool{false, true} {
		h := newTunedNodeHarness(t, func(cfg *Config) { cfg.SyncWAL = syncWAL })
		loadInt(t, h.nodes["B"], "acct1", 100)
		loadInt(t, h.nodes["C"], "acct2", 0)
		hd, err := h.nodes["A"].Submit("A", transferSrc(30))
		if err != nil {
			t.Fatal(err)
		}
		if st, done := hd.Wait(10 * time.Second); !done || st != StatusCommitted {
			t.Fatalf("SyncWAL=%v: transfer %v done=%v (%s)", syncWAL, st, done, hd.Reason())
		}
		parked := h.nodes["B"].Metrics().Histogram("site.outbox.wait.seconds", metrics.L("site", "B")).Count()
		if (parked > 0) != syncWAL {
			t.Errorf("SyncWAL=%v: site.outbox.wait.seconds{site=B} has %d samples", syncWAL, parked)
		}
	}
}
