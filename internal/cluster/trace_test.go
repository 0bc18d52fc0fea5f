package cluster

import (
	"testing"
	"time"
)

// TestTraceShowsOneRoundCommitPath: a write that reads only items at its
// own site skips the read round: prepare → ready → complete on the wire,
// no read request at all, and no read phase in the span tree.
func TestTraceShowsOneRoundCommitPath(t *testing.T) {
	c, spans := newSpanCluster(t, PolicyPolyvalue, nil)
	loadInt(t, c, "bx", 1)
	h, _ := c.Submit("A", "bx = bx + 1")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted || readInt(t, c, "bx") != 2 {
		t.Fatalf("status %v, bx %v", h.Status(), c.Read("bx"))
	}
	for _, kind := range []string{"prepare", "ready", "complete"} {
		if n := sent(c, kind); n != 1 {
			t.Errorf("sent{type=%s} = %d, want 1", kind, n)
		}
	}
	if n := sent(c, "read-req"); n != 0 {
		t.Errorf("one-round commit sent %d read requests", n)
	}
	k := kinds(spans.ByTID(string(h.TID)))
	if k["phase.read"] != 0 || k["phase.prepare"] != 1 {
		t.Errorf("span kinds %v, want a prepare phase and no read phase", k)
	}
}

// TestTraceShowsPolyvalueInstallOnTimeout: the wait-timeout path appears
// in the span log exactly as Figure 1's timeout edge prescribes: the
// coordinator crashes before deciding, the participant's wait ends in a
// polyvalue install, and recovery presumes abort and reduces it.
func TestTraceShowsPolyvalueInstallOnTimeout(t *testing.T) {
	c, spans := newSpanCluster(t, PolicyPolyvalue, nil)
	loadInt(t, c, "bx", 1)
	c.ArmCrashBeforeDecision("A")
	h, _ := c.Submit("A", "bx = bx + 1")
	c.RunFor(2 * time.Second)
	if info, err := c.SiteInfo("A"); err != nil || !info.Down {
		t.Fatalf("failpoint crash at before-decision did not happen: %+v, %v", info, err)
	}
	var timedOut bool
	k := map[string]int{}
	for _, sp := range spans.ByTID(string(h.TID)) {
		k[sp.Kind]++
		if sp.Kind == "part.wait" && sp.Attrs["resolution"] == "polyvalue" {
			timedOut = true
		}
	}
	if !timedOut || k["poly.install"] != 1 {
		t.Errorf("timeout path not traced: polyvalue wait %v, poly.install spans %d (%v)", timedOut, k["poly.install"], k)
	}

	// Recovery path: presumed abort and reduction.
	c.Restart("A")
	if logged, forgotten := watchPresumedAbort(c, "A", h.TID, 10*time.Second); !logged || !forgotten {
		t.Errorf("coordinator logged presumed abort %v, forgot it by the end %v; want both", logged, forgotten)
	}
	var reduced bool
	for _, sp := range spans.ByTID(string(h.TID)) {
		if sp.Kind == "poly.reduce" {
			reduced = true
			if sp.Attrs["outcome"] != "abort" {
				t.Errorf("poly.reduce at %s took outcome %q, want abort", sp.Site, sp.Attrs["outcome"])
			}
		}
	}
	if !reduced {
		t.Error("no poly.reduce span after recovery")
	}
	if got := readInt(t, c, "bx"); got != 1 {
		t.Errorf("bx = %d after presumed abort, want 1", got)
	}
}
