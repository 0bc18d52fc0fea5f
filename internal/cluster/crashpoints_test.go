package cluster

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/protocol"
)

// abcPlacement is the 3-site placement every crash-point scenario uses:
// items prefixed a*/b*/c* live on sites A/B/C.
func abcPlacement(item string) protocol.SiteID {
	switch item[0] {
	case 'a':
		return "A"
	case 'b':
		return "B"
	default:
		return "C"
	}
}

func TestArmCrashValidation(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if err := c.ArmCrash("A", "no-such-point"); err == nil {
		t.Error("unknown crash point accepted")
	}
	if err := c.ArmCrash("Z", CrashBeforeReady); err == nil {
		t.Error("unknown site accepted")
	}
	if err := c.ArmCrash("A", CrashBeforePrepare); err != nil {
		t.Errorf("valid arm rejected: %v", err)
	}
	pts := CrashPoints()
	if len(pts) != 8 {
		t.Errorf("CrashPoints() = %v, want 8 points", pts)
	}
	for _, p := range pts {
		if !validCrashPoint(p) {
			t.Errorf("listed point %q not valid", p)
		}
	}
}

// TestCrashBeforePrepare: the coordinator dies after collecting reads,
// before any prepare leaves.  Reads leave no state, so no participant
// holds anything; nothing was ever at risk of committing.
func TestCrashBeforePrepare(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	if err := c.ArmCrash("A", CrashBeforePrepare); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(2 * time.Second)

	if !c.IsDown("A") {
		t.Fatal("failpoint did not crash the coordinator")
	}
	if h.Status() != StatusPending {
		t.Fatalf("handle status = %v, want pending (client never hears)", h.Status())
	}
	if got := readInt(t, c, "bsrc"); got != 100 {
		t.Errorf("bsrc = %d, want 100 (untouched)", got)
	}
	if got := readInt(t, c, "cdst"); got != 0 {
		t.Errorf("cdst = %d, want 0 (untouched)", got)
	}
	if polys := c.PolyItems(); len(polys) != 0 {
		t.Errorf("polyvalues with no prepare ever sent: %v", polys)
	}
	c.Restart("A")
	c.RunFor(2 * time.Second)
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations after recovery: %v", v)
	}
}

// TestCrashMidWALAppend: a participant's prepared-record append tears
// half-way (file-backed WAL) and the site dies with the fragment on
// disk.  The record never became durable, so the restarted site has no
// memory of the transaction; the coordinator aborts on ready timeout
// and the torn tail is truncated on the next append.
func TestCrashMidWALAppend(t *testing.T) {
	c, err := New(Config{
		Sites:     []protocol.SiteID{"A", "B", "C"},
		Net:       network.Config{Latency: 10 * time.Millisecond},
		Policy:    PolicyPolyvalue,
		Placement: abcPlacement,
		DataDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	if err := c.ArmCrash("B", CrashMidWALAppend); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(2 * time.Second)

	if !c.IsDown("B") {
		t.Fatal("torn append did not crash the participant")
	}
	if h.Status() != StatusAborted {
		t.Fatalf("status = %v, want aborted (B's ready never sent)", h.Status())
	}
	c.Restart("B")
	c.RunFor(5 * time.Second)
	if got := readInt(t, c, "bsrc"); got != 100 {
		t.Errorf("bsrc = %d, want 100 (prepared record was torn, nothing recovered)", got)
	}
	if got := readInt(t, c, "cdst"); got != 0 {
		t.Errorf("cdst = %d, want 0", got)
	}
	if polys := c.PolyItems(); len(polys) != 0 {
		t.Errorf("polyvalues from a torn (never durable) prepare: %v", polys)
	}
	// The log stays usable after the torn tail: a fresh transaction on B
	// commits and appends cleanly past the truncated fragment.
	h2, _ := c.Submit("B", "bsrc = bsrc - 10")
	c.RunFor(2 * time.Second)
	if h2.Status() != StatusCommitted {
		t.Fatalf("post-tear transaction: %v (%s)", h2.Status(), h2.Reason())
	}
	if got := readInt(t, c, "bsrc"); got != 90 {
		t.Errorf("bsrc = %d, want 90", got)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestDecisionResendRecoversDroppedComplete: the commit decision's
// complete messages are lost to a brief partition, but the participants
// never even notice — the coordinator's retransmission loop redelivers
// before the (long) wait timeout, so no polyvalue is ever installed and
// no participant inquiry ever fires.  Proves the retransmission path
// recovers dropped decisions on its own.
func TestDecisionResendRecoversDroppedComplete(t *testing.T) {
	c, err := New(Config{
		Sites: []protocol.SiteID{"A", "B", "C"},
		Net:   network.Config{Latency: 10 * time.Millisecond},
		// Wait timeout far beyond the test horizon: if retransmission
		// didn't work, participants would still be in doubt at the end.
		WaitTimeout:   time.Minute,
		RetryInterval: 100 * time.Millisecond,
		Policy:        PolicyPolyvalue,
		Placement:     abcPlacement,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	// Timeline with L=10ms (one round): prepares arrive 10ms, readies
	// arrive 20ms (decision + completes sent), completes would arrive
	// 30ms.  Cut both links over [25ms, 40ms]: the in-flight completes
	// are dropped at delivery time, the links are healthy again before
	// the first retransmission (≥70ms) fires.
	c.sched.After(25*time.Millisecond, func() {
		c.Partition("A", "B")
		c.Partition("A", "C")
	})
	c.sched.After(40*time.Millisecond, c.HealAll)
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(5 * time.Second)

	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	if got := readInt(t, c, "bsrc"); got != 60 {
		t.Errorf("bsrc = %d, want 60", got)
	}
	if got := readInt(t, c, "cdst"); got != 40 {
		t.Errorf("cdst = %d, want 40", got)
	}
	reg := c.Metrics()
	if got := reg.Counter("txn.decision.resends").Value(); got == 0 {
		t.Error("no decision retransmissions counted — what redelivered the completes?")
	}
	if got := reg.Counter("txn.outcome.retries").Value(); got != 0 {
		t.Errorf("outcome retries = %d, want 0 (no participant should have gone in doubt)", got)
	}
	if st := c.Stats(); st.InDoubt != 0 {
		t.Errorf("InDoubt = %d, want 0 — retransmission should beat the wait timeout", st.InDoubt)
	}
	if polys := c.PolyItems(); len(polys) != 0 {
		t.Errorf("polyvalues installed despite retransmission: %v", polys)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}
