package cluster

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// newSpanCluster builds the standard 3-site test cluster with structured
// span tracing enabled, returning the harness-owned span log (which, as
// in the real harnesses, survives site crashes).
func newSpanCluster(t *testing.T, policy Policy, mut func(*Config)) (*Cluster, *trace.SpanLog) {
	t.Helper()
	spans := trace.NewSpanLog(4096)
	cfg := Config{
		Sites:  []protocol.SiteID{"A", "B", "C"},
		Net:    network.Config{Latency: 10 * time.Millisecond},
		Policy: policy,
		Spans:  spans,
		Placement: func(item string) protocol.SiteID {
			switch item[0] {
			case 'a':
				return "A"
			case 'b':
				return "B"
			default:
				return "C"
			}
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, spans
}

func kinds(spans []trace.Span) map[string]int {
	out := map[string]int{}
	for _, sp := range spans {
		out[sp.Kind]++
	}
	return out
}

// TestSpansCommittedTransfer checks the full causal tree of a clean
// distributed commit: root, coordinator phases, one compute span per
// participant, lock windows — and that trace.BuildTimelines judges the
// tree complete.  A transfer whose shares read each other's account has
// a read phase; a guarded one, whose credit site reads the debit account
// from its source, and an unguarded one have none.
func TestSpansCommittedTransfer(t *testing.T) {
	for program, reads := range map[string]int{
		"acct1 = acct1 - 30 if bacct2 >= 0; bacct2 = bacct2 + 30 if acct1 >= 30": 1,
		"acct1 = acct1 - 30 if acct1 >= 30; bacct2 = bacct2 + 30 if acct1 >= 30": 0,
		"acct1 = acct1 - 30; bacct2 = bacct2 + 30":                               0,
	} {
		c, spans := newSpanCluster(t, PolicyPolyvalue, nil)
		loadInt(t, c, "acct1", 100)
		loadInt(t, c, "bacct2", 0)
		h, err := c.Submit("A", program)
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(5 * time.Second)
		if h.Status() != StatusCommitted {
			t.Fatalf("%s: status = %v (%s)", program, h.Status(), h.Reason())
		}

		all := spans.Spans()
		tls := trace.BuildTimelines(all)
		if len(tls) != 1 {
			t.Fatalf("%s: timelines = %d, want 1", program, len(tls))
		}
		tl := tls[0]
		if !tl.Complete {
			t.Fatalf("%s: timeline incomplete: missing parents %v, silent sites %v\n%s",
				program, tl.MissingParents, tl.MissingSites, tl.Render())
		}
		if tl.Status != "committed" {
			t.Errorf("%s: timeline status = %q", program, tl.Status)
		}
		k := kinds(tl.Spans)
		if k["txn"] != 1 || k["phase.read"] != reads || k["phase.prepare"] != 1 {
			t.Errorf("%s: coordinator spans: %v", program, k)
		}
		// Both A and B hold writes; both must have computed.  The settle
		// span appears once the last outcome ack lands.
		if k["part.compute"] < 2 {
			t.Errorf("%s: part.compute = %d, want >= 2 (%v)", program, k["part.compute"], k)
		}
		if k["phase.settle"] != 1 {
			t.Errorf("%s: phase.settle = %d (%v)", program, k["phase.settle"], k)
		}
		if k["locks"] == 0 {
			t.Errorf("%s: no lock spans (%v)", program, k)
		}
		// Every span belongs to the tree: non-root spans name a present
		// parent.
		if len(tl.MissingParents) != 0 {
			t.Errorf("%s: dangling parents: %v", program, tl.MissingParents)
		}
		// Untraced runs never pay for any of this.
		if spans.Dropped() != 0 {
			t.Errorf("%s: span log dropped %d", program, spans.Dropped())
		}
	}
}

// TestSpansCoordinatorCrash pins the paper's headline scenario in span
// form: the coordinator dies before deciding, participants install
// polyvalues (poly.install), and recovery presumes abort and reduces
// them to the abort branch (poly.reduce outcome=abort).
// The handle stays pending, so no root span is ever recorded — exactly
// why the harness audits completeness only for decided transactions.
func TestSpansCoordinatorCrash(t *testing.T) {
	c, spans := newSpanCluster(t, PolicyPolyvalue, nil)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	c.ArmCrashBeforeDecision("A")
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(2 * time.Second)
	if h.Status() != StatusPending {
		t.Fatalf("status = %v", h.Status())
	}
	if info, err := c.SiteInfo("A"); err != nil || !info.Down {
		t.Fatalf("coordinator did not crash at before-decision: %+v, %v", info, err)
	}
	k := kinds(spans.Spans())
	if k["poly.install"] != 2 {
		t.Errorf("poly.install spans = %d, want 2 (B and C)", k["poly.install"])
	}
	if k["txn"] != 0 {
		t.Errorf("undecided transaction has a root span (%v)", k)
	}

	c.Restart("A")
	c.RunFor(15 * time.Second)
	k = kinds(spans.Spans())
	if k["poly.reduce"] == 0 {
		t.Error("no poly.reduce span after recovery")
	}
	// The restarted coordinator has no decision on record: it presumes
	// abort, logs it, and every reduction takes the abort branch.
	if committed, known := c.Store("A").Outcome(h.TID); !known || committed {
		t.Errorf("coordinator outcome = %v (known %v), want presumed abort", committed, known)
	}
	// The wait spans must say how the participants resolved.
	var sawPolyResolution bool
	for _, sp := range spans.ByTID(string(h.TID)) {
		if sp.Kind == "part.wait" && sp.Attrs["resolution"] == "polyvalue" {
			sawPolyResolution = true
		}
		if sp.Kind == "poly.reduce" && sp.Attrs["outcome"] != "abort" {
			t.Errorf("poly.reduce at %s took outcome %q, want abort", sp.Site, sp.Attrs["outcome"])
		}
	}
	if !sawPolyResolution {
		t.Error("no part.wait span with resolution=polyvalue")
	}
}

// TestBlockedAccountantPolicies is the paper's availability claim in
// metric form: under the blocking policy an in-doubt participant camps
// on its items (cause=indoubt accrues), while the polyvalue policy
// releases them (only ordinary cause=lock time accrues).
func TestBlockedAccountantPolicies(t *testing.T) {
	blockedSum := func(policy Policy) (indoubt, lock float64, c *Cluster) {
		c, _ = newSpanCluster(t, policy, nil)
		loadInt(t, c, "bsrc", 100)
		loadInt(t, c, "cdst", 0)
		c.ArmCrashBeforeDecision("A")
		h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
		c.RunFor(30 * time.Second)
		if h.Status() != StatusPending {
			panic("decided despite coordinator crash")
		}
		c.SyncBlockedAccounting()
		reg := c.Metrics()
		for _, site := range []string{"A", "B", "C"} {
			l := metrics.L("site", site)
			indoubt += reg.Histogram("item.blocked.seconds", l, metrics.L("cause", causeInDoubt)).Sum()
			lock += reg.Histogram("item.blocked.seconds", l, metrics.L("cause", causeLock)).Sum()
		}
		t.Logf("policy=%v: blocked item-seconds indoubt=%.3f lock=%.3f", policy, indoubt, lock)
		return indoubt, lock, c
	}

	polyInDoubt, _, _ := blockedSum(PolicyPolyvalue)
	blockInDoubt, _, _ := blockedSum(PolicyBlocking)
	if polyInDoubt != 0 {
		t.Errorf("polyvalue policy accrued indoubt blocking: %gs", polyInDoubt)
	}
	// The blocking participants camp from wait-timeout until the run ends
	// (the coordinator never comes back): tens of simulated seconds.
	if blockInDoubt < 10 {
		t.Errorf("blocking policy indoubt sum = %gs, want >= 10s of camping", blockInDoubt)
	}
}

// TestBlockedAccountantBudgetForced is the budget half of the
// availability claim, deterministically: with MaxPolyBudget=1 a site's
// first stranded transaction still installs its polyvalue, but the
// second finds the budget spent and degrades to blocking 2PC — camping
// on its locks with cause=degraded until the outcome arrives.  The same
// schedule with no budget installs both polyvalues and accrues zero
// in-doubt/degraded time.  The sim clock makes the numbers exact; they
// are the blocked-item-seconds entries EXPERIMENTS.md quotes.
func TestBlockedAccountantBudgetForced(t *testing.T) {
	run := func(budget int) (indoubt, degraded float64) {
		c, _ := newSpanCluster(t, PolicyPolyvalue, func(cfg *Config) {
			cfg.MaxPolyBudget = budget
		})
		for _, item := range []string{"bsrc", "bsrc2"} {
			loadInt(t, c, item, 100)
		}
		for _, item := range []string{"cdst", "cdst2"} {
			loadInt(t, c, item, 0)
		}
		// Two disjoint transfers through the same doomed coordinator: the
		// crash point fires at the first decision, stranding both in wait
		// at B and C.
		c.ArmCrashBeforeDecision("A")
		h1, _ := c.Submit("A", "bsrc = bsrc - 10; cdst = cdst + 10")
		h2, _ := c.Submit("A", "bsrc2 = bsrc2 - 10; cdst2 = cdst2 + 10")
		c.RunFor(30 * time.Second)
		if h1.Status() != StatusPending || h2.Status() != StatusPending {
			t.Fatalf("budget=%d: statuses = %v/%v, want both pending", budget, h1.Status(), h2.Status())
		}
		c.SyncBlockedAccounting()
		reg := c.Metrics()
		for _, site := range []string{"A", "B", "C"} {
			l := metrics.L("site", site)
			indoubt += reg.Histogram("item.blocked.seconds", l, metrics.L("cause", causeInDoubt)).Sum()
			degraded += reg.Histogram("item.blocked.seconds", l, metrics.L("cause", causeDegraded)).Sum()
		}
		t.Logf("budget=%d: blocked item-seconds indoubt=%.3f degraded=%.3f", budget, indoubt, degraded)
		return indoubt, degraded
	}

	polyInDoubt, polyDegraded := run(0)
	budgetInDoubt, budgetDegraded := run(1)
	if polyInDoubt+polyDegraded != 0 {
		t.Errorf("unbudgeted polyvalue run accrued blocking: indoubt=%g degraded=%g",
			polyInDoubt, polyDegraded)
	}
	if budgetInDoubt != 0 {
		t.Errorf("budget degradation misattributed to indoubt: %g", budgetInDoubt)
	}
	// One stranded transaction per site degrades and camps from its wait
	// timeout until the run ends: tens of simulated seconds across B and C.
	if budgetDegraded < 10 {
		t.Errorf("budget-forced run degraded sum = %gs, want >= 10s of camping", budgetDegraded)
	}
}

// TestBlockedSpanOnOutcome checks the part.blocked span: a blocking
// participant that eventually learns the outcome records its camp with
// cause and resolution.
func TestBlockedSpanOnOutcome(t *testing.T) {
	c, spans := newSpanCluster(t, PolicyBlocking, nil)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	// Crash AFTER the durable decision: participants block, then pull the
	// committed outcome from the restarted coordinator's log.
	if err := c.ArmCrash("A", CrashAfterDecisionLog); err != nil {
		t.Fatal(err)
	}
	c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(2 * time.Second)
	c.Restart("A")
	c.RunFor(20 * time.Second)

	var blocked []trace.Span
	for _, sp := range spans.Spans() {
		if sp.Kind == "part.blocked" {
			blocked = append(blocked, sp)
		}
	}
	if len(blocked) == 0 {
		t.Fatal("no part.blocked spans")
	}
	for _, sp := range blocked {
		if sp.Attrs["cause"] != causeInDoubt {
			t.Errorf("blocked span cause = %q", sp.Attrs["cause"])
		}
		if sp.Attrs["outcome"] != "commit" {
			t.Errorf("blocked span outcome = %q", sp.Attrs["outcome"])
		}
		if sp.End <= sp.Start {
			t.Errorf("blocked span has no duration: %+v", sp)
		}
	}
	if got := readInt(t, c, "bsrc"); got != 60 {
		t.Errorf("bsrc = %d after recovery", got)
	}
}

// TestSpansDeterministic runs the same seeded scenario twice and
// requires byte-identical span streams — the vclock-driven guarantee
// the harness audits rely on.
func TestSpansDeterministic(t *testing.T) {
	run := func() []trace.Span {
		c, spans := newSpanCluster(t, PolicyPolyvalue, nil)
		loadInt(t, c, "acct1", 100)
		loadInt(t, c, "bacct2", 0)
		loadInt(t, c, "cacct3", 5)
		c.Submit("A", "acct1 = acct1 - 30; bacct2 = bacct2 + 30")
		c.Submit("B", "cacct3 = cacct3 * 2")
		c.RunFor(5 * time.Second)
		return spans.Spans()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Site != y.Site || x.TID != y.TID ||
			x.Start != y.Start || x.End != y.End || x.ID != y.ID || x.Parent != y.Parent {
			t.Fatalf("span %d differs:\n%+v\n%+v", i, x, y)
		}
	}
}

// TestSpansOffIsFree pins the pay-for-what-you-use contract: with no
// span log configured the cluster records nothing and stamps no trace
// context (verified indirectly: the run behaves identically and the
// registry carries no trace series).
func TestSpansOffIsFree(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "acct1", 100)
	h, _ := c.Submit("A", "acct1 = acct1 - 1")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v", h.Status())
	}
	for _, p := range c.Metrics().Snapshot().Points {
		if p.Name == "trace.spans.dropped" || p.Name == "trace.spans.retained" {
			t.Errorf("untraced cluster registered %s", p.Name)
		}
	}
}

// TestResidencyHistogram checks the per-site poly.residency.seconds
// series: installs that later reduce at a site observe their interval
// there.
func TestResidencyHistogram(t *testing.T) {
	c, _ := newSpanCluster(t, PolicyPolyvalue, nil)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	c.ArmCrashBeforeDecision("A")
	c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(2 * time.Second)
	c.Restart("A")
	c.RunFor(15 * time.Second)
	reg := c.Metrics()
	total := 0
	for _, site := range []string{"B", "C"} {
		total += reg.Histogram("poly.residency.seconds", metrics.L("site", site)).Count()
	}
	if total < 2 {
		t.Errorf("poly residency observations = %d, want >= 2 (bsrc at B, cdst at C)", total)
	}
}
