package cluster

import (
	"testing"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/value"
)

// TestOnePhaseLocalCommit: a transaction entirely on the coordinating
// site commits with ZERO network messages (the §2.1 lock-avoidance
// optimization).
func TestOnePhaseLocalCommit(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 5)
	loadInt(t, c, "ay", 1)
	before := c.Metrics().Snapshot().Total("network.sent")
	h, _ := c.Submit("A", "ax = ax + ay; ay = ay * 2")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	if got := c.Metrics().Snapshot().Total("network.sent"); got != before {
		t.Errorf("one-phase commit sent %d messages", got-before)
	}
	if got := readInt(t, c, "ax"); got != 6 {
		t.Errorf("ax = %d", got)
	}
	if got := readInt(t, c, "ay"); got != 2 {
		t.Errorf("ay = %d", got)
	}
	if _, ok := h.Latency(); !ok {
		t.Error("latency unavailable after one-phase commit")
	}
}

func TestOnePhaseLockConflict(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 5)
	loadInt(t, c, "by", 5)
	// A slow distributed transaction holds ax...
	h1, _ := c.Submit("C", "ax = ax + by")
	c.RunFor(35 * time.Millisecond) // A locked ax at its prepare by now
	// ...so a local one-phase transaction on ax refuses immediately.
	h2, _ := c.Submit("A", "ax = 0")
	c.RunFor(2 * time.Second)
	if h2.Status() != StatusAborted {
		t.Fatalf("one-phase over locked item: %v", h2.Status())
	}
	if h1.Status() != StatusCommitted {
		t.Fatalf("distributed txn: %v (%s)", h1.Status(), h1.Reason())
	}
	if got := readInt(t, c, "ax"); got != 10 {
		t.Errorf("ax = %d", got)
	}
}

func TestOnePhaseComputeError(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if err := c.Load("ax", polyvalue.Simple(value.Str("s"))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "ax = ax * 2")
	c.RunFor(time.Second)
	if h.Status() != StatusAborted || h.Reason() == "" {
		t.Errorf("status = %v (%s)", h.Status(), h.Reason())
	}
}

// TestOnePhaseOverPolyvaluedItem: one-phase composes with §3.2 — local
// polytransactions work and record dependencies.
func TestOnePhaseOverPolyvaluedItem(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if err := c.Load("ax", polyvalue.Uncertain("T9",
		polyvalue.Simple(value.Int(1)), polyvalue.Simple(value.Int(2)))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "ay = ax * 10")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	out := c.Read("ay")
	if out.NumPairs() != 2 {
		t.Fatalf("ay = %v", out)
	}
	items, _ := c.Store("A").Deps("T9")
	found := false
	for _, it := range items {
		if it == "ay" {
			found = true
		}
	}
	if !found {
		t.Errorf("dependency of ay on T9 not recorded: %v", items)
	}
}
