package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/value"
)

// TestCrashAfterReadHoldsNothing: the coordinator crashes after sending
// read requests but before prepare.  A read takes no lock and leaves no
// state, so nothing at the read sites waits for a prepare that never
// comes: a competing transaction on the item commits at once.
func TestCrashAfterReadHoldsNothing(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 1)
	loadInt(t, c, "bx", 1)
	// Crash A after its ReadReq is delivered (10ms) but before the
	// ReadRep returns (20ms).  The write reads ax at A, so B's share
	// needs A's value and the read round runs.
	c.sched.After(15*time.Millisecond, func() { c.Crash("A") })
	h, _ := c.Submit("A", "bx = bx + ax")
	c.RunFor(100 * time.Millisecond)
	// One round trip to B and the handle is decided.
	h2, _ := c.Submit("C", "bx = bx + 10")
	c.RunFor(25 * time.Millisecond)
	if h2.Status() != StatusCommitted {
		t.Fatalf("competing transaction: %v (%s), want committed at once", h2.Status(), h2.Reason())
	}
	c.RunFor(time.Second)
	if got := readInt(t, c, "bx"); got != 11 {
		t.Errorf("bx = %d", got)
	}
	if h.Status() != StatusPending {
		t.Errorf("crashed coordinator's handle = %v", h.Status())
	}
}

// TestHandleLatencyPending: Latency is unavailable while pending and
// positive after decision.
func TestHandleLatencyPending(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 1)
	h, _ := c.Submit("A", "bx = 2") // cross-site: latency spans the protocol
	if _, ok := h.Latency(); ok {
		t.Error("latency available before decision")
	}
	c.RunFor(time.Second)
	lat, ok := h.Latency()
	if !ok || lat <= 0 {
		t.Errorf("latency = %v,%v", lat, ok)
	}
}

// TestDuplicateCompleteIsIdempotent: manually re-deliver complete-like
// outcome info after the transaction settled; nothing changes.
func TestDuplicateCompleteIsIdempotent(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 5)
	h, _ := c.Submit("A", "bx = bx + 1")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	before := readInt(t, c, "bx")
	// Re-inject the outcome at B twice.
	site := c.sites["B"]
	site.do(func() { site.resolveOutcome(h.TID, true) })
	site.do(func() { site.resolveOutcome(h.TID, true) })
	c.RunFor(time.Second)
	if got := readInt(t, c, "bx"); got != before {
		t.Errorf("duplicate outcome changed bx: %d -> %d", before, got)
	}
}

// TestConflictingOutcomeIgnored: a (buggy or byzantine-ish) conflicting
// outcome report must not overwrite a recorded decision, and is counted
// and reported as the atomicity break it is.
func TestConflictingOutcomeIgnored(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 5)
	h, _ := c.Submit("A", "bx = bx + 1")
	c.RunFor(time.Second)
	site := c.sites["B"]
	site.do(func() { site.resolveOutcome(h.TID, false) }) // lies
	c.RunFor(time.Second)
	if got := readInt(t, c, "bx"); got != 6 {
		t.Errorf("conflicting outcome corrupted state: bx = %d", got)
	}
	if n := c.Metrics().Snapshot().Counter("txn.outcome.conflicts", metrics.L("site", "B")); n != 1 {
		t.Errorf("txn.outcome.conflicts{site=B} = %d, want 1", n)
	}
	if v := c.CheckInvariants(); len(v) != 1 || !strings.Contains(v[0], "site B: told both outcomes") {
		t.Errorf("violations = %q, want one conflict at B", v)
	}
}

// TestPolyvalueOverwrittenByCertainWrite: a later blind write replaces a
// polyvalue with a simple value (the model's U·Y·P/I elimination term);
// the eventual outcome notification then has nothing to reduce and the
// bookkeeping still cleans up.
func TestPolyvalueOverwrittenByCertainWrite(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 5)
	c.ArmCrashBeforeDecision("A")
	h, _ := c.Submit("A", "bx = 9")
	c.RunFor(time.Second)
	if len(c.PolyItems()) != 1 {
		t.Fatal("setup: no polyvalue")
	}
	// Blind overwrite (does not read bx): certainty restored immediately.
	h2, _ := c.Submit("B", "bx = 42")
	c.RunFor(time.Second)
	if h2.Status() != StatusCommitted {
		t.Fatalf("blind write: %v (%s)", h2.Status(), h2.Reason())
	}
	if got := readInt(t, c, "bx"); got != 42 {
		t.Errorf("bx = %d", got)
	}
	if len(c.PolyItems()) != 0 {
		t.Error("polyvalue survived blind overwrite")
	}
	// Repair: the in-doubt txn resolves (presumed abort); bx unchanged.
	c.Restart("A")
	c.RunFor(30 * time.Second)
	if got := readInt(t, c, "bx"); got != 42 {
		t.Errorf("bx after repair = %d", got)
	}
	for _, id := range c.Sites() {
		if aw := c.Store(id).Awaits(); len(aw) != 0 {
			t.Errorf("site %s retains awaits %v", id, aw)
		}
	}
	_ = h
}

// TestTwoSequentialInDoubtTransactionsSameItem: two different
// transactions go in doubt on the same item back to back; the polyvalue
// nests, and resolving both (in either order) restores a single value.
func TestTwoSequentialInDoubtTransactionsSameItem(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 0)
	c.ArmCrashBeforeDecision("A")
	h1, _ := c.Submit("A", "bx = bx + 1")
	c.RunFor(time.Second)
	c.ArmCrashBeforeDecision("C")
	h2, _ := c.Submit("C", "bx = bx + 10")
	c.RunFor(time.Second)
	p := c.Read("bx")
	if p.NumPairs() != 4 && p.NumPairs() != 3 {
		// {0, 1} × {+10, +0} — all four sums distinct: 0,1,10,11.
		t.Fatalf("nested in-doubt polyvalue = %v", p)
	}
	deps := p.DependsOn()
	if len(deps) != 2 {
		t.Fatalf("DependsOn = %v", deps)
	}
	// Restart both coordinators; both presumed aborted.
	c.Restart("A")
	c.Restart("C")
	c.RunFor(30 * time.Second)
	if got := readInt(t, c, "bx"); got != 0 {
		t.Errorf("bx = %d, want 0 (both aborted)", got)
	}
	if h1.Status() != StatusPending || h2.Status() != StatusPending {
		t.Errorf("statuses = %v, %v", h1.Status(), h2.Status())
	}
}

// TestBlockingRecoveredAbortPath: a blocking-policy participant crashes
// in wait, restarts, and learns the transaction ABORTED — the recovered
// prepared entry is discarded without installing anything.
func TestBlockingRecoveredAbortPath(t *testing.T) {
	c := newTestCluster(t, PolicyBlocking)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "adst", 0)
	// Crash B right after its ready is SENT but ensure the coordinator
	// never gets it: the prepare arrives at 10ms and the ready leaves at
	// once; cut the link at 15ms (the ready is dropped at delivery), then
	// crash B.  A aborts on ready timeout.
	c.sched.After(15*time.Millisecond, func() { c.Partition("A", "B") })
	c.sched.After(17*time.Millisecond, func() { c.Crash("B") })
	h, _ := c.Submit("A", "bsrc = bsrc - 40; adst = adst + 40")
	c.RunFor(time.Second)
	if h.Status() != StatusAborted {
		t.Fatalf("status = %v", h.Status())
	}
	if n := len(c.Store("B").PreparedTxns()); n != 1 {
		t.Fatalf("B holds %d prepared entries, want 1: it never reached the wait phase", n)
	}
	c.HealAll()
	c.Restart("B")
	c.RunFor(10 * time.Second)
	// The abort reached B's recovered prepared entry: nothing installed.
	if got := readInt(t, c, "bsrc"); got != 100 {
		t.Errorf("bsrc = %d, want 100", got)
	}
	if n := len(c.Store("B").PreparedTxns()); n != 0 {
		t.Errorf("prepared entries remain: %d", n)
	}
}

// TestQueryAgainstEmptyDatabase: querying never-written items yields the
// certain Nil value rather than an error.
func TestQueryAgainstEmptyDatabase(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	qh, _ := c.Query("A", "bnothing == nil")
	c.RunFor(time.Second)
	p, err, done := qh.Result()
	if !done || err != nil {
		t.Fatalf("query: %v %v", err, done)
	}
	if v, ok := p.IsCertain(); !ok || !v.Equal(value.Bool(true)) {
		t.Errorf("result = %v", p)
	}
}

// TestLoadRejectsNothing is a smoke test for Load/Read plumbing with
// polyvalues loaded directly.
func TestLoadPolyvalueDirectly(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	p := polyvalue.Uncertain("TX", polyvalue.Simple(value.Int(1)), polyvalue.Simple(value.Int(2)))
	if err := c.Load("bx", p); err != nil {
		t.Fatal(err)
	}
	if !c.Read("bx").Equal(p) {
		t.Errorf("Read = %v", c.Read("bx"))
	}
}
