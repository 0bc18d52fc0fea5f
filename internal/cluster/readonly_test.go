package cluster

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
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

// TestReadOnlyParticipantFreedEarly: the read-only site keeps nothing
// once it votes, before the coordinator even decides — a transaction
// arriving in that window succeeds.
func TestReadOnlyParticipantFreedEarly(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 500)
	// Reads done at 20ms, C prepares at 30ms and is ready at 40ms, and
	// only then is B prepared: it votes ready-read-only and leaves at
	// 50ms, ten before the coordinator decides.
	h1, _ := c.Submit("A", "cflag = bsrc >= 100")
	c.RunFor(55 * time.Millisecond) // B voted ready-read-only by now
	h2, _ := c.Submit("B", "bsrc = bsrc + 1")
	c.RunFor(2 * time.Second)
	if h1.Status() != StatusCommitted {
		t.Fatalf("h1 = %v (%s)", h1.Status(), h1.Reason())
	}
	if h2.Status() != StatusCommitted {
		t.Fatalf("h2 = %v (%s) — B still held bsrc after its vote", h2.Status(), h2.Reason())
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

// TestReadOnlyWriteSkew: T1 = cx = 1 if bx == 0 reads bx at B, a
// read-only site, and T2 = bx = 1 if cx == 0 reads cx at C.  T1's prepare
// to C is held for 100 ms, so T2 runs while T1 is between its read and
// its vote at B.  If both commit, bx = cx = 1, which neither serial order
// gives: the one that runs second sees the other's write and leaves its
// own item at 0.
func TestReadOnlyWriteSkew(t *testing.T) {
	cfg := Config{
		Sites:     []protocol.SiteID{"A", "B", "C"},
		Net:       network.Config{Latency: 10 * time.Millisecond, Seed: 1},
		Placement: abcPlacement,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loadInt(t, c, "bx", 0)
	loadInt(t, c, "cx", 0)
	slow := &slowPrepare{Transport: c.fab, c: c, to: "C", by: 100 * time.Millisecond}
	c.fab = slow
	h1, _ := c.Submit("A", "cx = 1 if bx == 0")
	slow.tid = h1.TID
	var h2 *Handle
	c.sched.After(70*time.Millisecond, func() {
		h2, _ = c.Submit("A", "bx = 1 if cx == 0")
	})
	c.RunFor(5 * time.Second)
	if bx, cx := readInt(t, c, "bx"), readInt(t, c, "cx"); bx == 1 && cx == 1 {
		t.Errorf("bx = cx = 1 (T1 %v %q, T2 %v %q): write skew, no serial order gives it",
			h1.Status(), h1.Reason(), h2.Status(), h2.Reason())
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}
