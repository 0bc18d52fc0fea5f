package cluster

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/value"
)

// tracedCluster builds a 3-site cluster with an attached trace ring.
func tracedCluster(t *testing.T) (*Cluster, *trace.Ring) {
	t.Helper()
	ring := trace.NewRing(10000)
	c, err := New(Config{
		Sites:  []protocol.SiteID{"A", "B", "C"},
		Net:    network.Config{Latency: 10 * time.Millisecond},
		Tracer: ring,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, ring
}

// TestTraceShowsFigure1CommitPath: the protocol trace for a clean commit
// whose write at B reads an item at A contains the Figure 1 message
// sequence in order: read-req → read-rep → prepare → ready → complete.
func TestTraceShowsFigure1CommitPath(t *testing.T) {
	c, ring := tracedCluster(t)
	for item, v := range map[string]int64{"ax": 1, "bx": 1} {
		if err := c.Load(item, polyvalue.Simple(value.Int(v))); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := c.Submit("A", "bx = bx + ax")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	for _, step := range []string{
		"A send read-req A->B",
		"B send read-rep B->A",
		"A send prepare A->B",
		"B send ready B->A",
		"A send complete A->B",
	} {
		if !ring.Contains(step) {
			t.Errorf("trace missing %q\n%s", step, ring.String())
		}
	}
}

// TestTraceShowsOneRoundCommitPath: a write that reads only items at its
// own site skips the read round: prepare → ready → complete, and no
// read request at all.
func TestTraceShowsOneRoundCommitPath(t *testing.T) {
	c, ring := tracedCluster(t)
	if err := c.Load("bx", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "bx = bx + 1")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted || readInt(t, c, "bx") != 2 {
		t.Fatalf("status %v, bx %v", h.Status(), c.Read("bx"))
	}
	for _, step := range []string{
		"A send prepare A->B",
		"B send ready B->A",
		"A send complete A->B",
	} {
		if !ring.Contains(step) {
			t.Errorf("trace missing %q\n%s", step, ring.String())
		}
	}
	if ring.Contains("read-req") {
		t.Errorf("one-round commit sent a read request:\n%s", ring.String())
	}
}

// TestTraceShowsPolyvalueInstallOnTimeout: the wait-timeout path appears
// in the trace exactly as Figure 1's timeout edge prescribes.
func TestTraceShowsPolyvalueInstallOnTimeout(t *testing.T) {
	c, ring := tracedCluster(t)
	if err := c.Load("bx", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	c.ArmCrashBeforeDecision("A")
	_, _ = c.Submit("A", "bx = bx + 1")
	c.RunFor(2 * time.Second)
	if !ring.Contains("CRASH at before-decision") {
		t.Error("failpoint crash not traced")
	}
	if !ring.Contains("wait timeout") || !ring.Contains("installing polyvalues") {
		t.Errorf("timeout path not traced:\n%s", ring.String())
	}
	// Recovery path: presumed abort and reduction.
	c.Restart("A")
	c.RunFor(10 * time.Second)
	if !ring.Contains("presumed abort") {
		t.Error("presumed abort not traced")
	}
}
