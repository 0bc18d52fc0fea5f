package cluster

import (
	"testing"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/value"
)

// TestReadOnlyParticipantCommits: a transaction with a read-only
// participant commits correctly under the optimization.
func TestReadOnlyParticipantCommits(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 500)
	h, _ := c.Submit("A", "cflag = bsrc >= 100") // B is read-only
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	if v, ok := c.Read("cflag").IsCertain(); !ok || !v.Equal(value.Bool(true)) {
		t.Errorf("cflag = %v", c.Read("cflag"))
	}
}

// TestReadOnlyParticipantFreedEarly: the read-only site's items unlock
// at ready time, before the coordinator even decides — a transaction
// arriving in that window succeeds.
func TestReadOnlyParticipantFreedEarly(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 500)
	// Reads done at 20ms, C prepares at 30ms and is ready at 40ms, and
	// only then is B prepared: it votes ready-read-only and releases at
	// 50ms, ten before the coordinator decides.
	h1, _ := c.Submit("A", "cflag = bsrc >= 100")
	c.RunFor(55 * time.Millisecond) // B voted ready-read-only by now
	h2, _ := c.Submit("B", "bsrc = bsrc + 1")
	c.RunFor(2 * time.Second)
	if h1.Status() != StatusCommitted {
		t.Fatalf("h1 = %v (%s)", h1.Status(), h1.Reason())
	}
	if h2.Status() != StatusCommitted {
		t.Fatalf("h2 = %v (%s) — read lock not released early", h2.Status(), h2.Reason())
	}
	if got := readInt(t, c, "bsrc"); got != 501 {
		t.Errorf("bsrc = %d", got)
	}
}

// TestReadOnlyWithPolyvaluedInput: the optimization composes with §3.2 —
// the read site ships a polyvalue, the write site composes alternatives,
// and the read site still exits early.
func TestReadOnlyWithPolyvaluedInput(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if err := c.Load("bsrc", polyvalue.Uncertain("T9",
		polyvalue.Simple(value.Int(500)), polyvalue.Simple(value.Int(450)))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "ccopy = bsrc + 1")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	out := c.Read("ccopy")
	if out.NumPairs() != 2 {
		t.Fatalf("ccopy = %v", out)
	}
	min, max, _ := out.MinMax()
	if min != 451 || max != 501 {
		t.Errorf("ccopy range = [%g, %g]", min, max)
	}
}
