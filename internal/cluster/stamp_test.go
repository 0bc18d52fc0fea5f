package cluster

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/value"
)

// itemStamp reads item's change stamp at its site.
func itemStamp(c *Cluster, item string) uint64 {
	s := c.sites[c.Placement(item)]
	var st uint64
	s.do(func() { st = s.stampOf(item) })
	return st
}

// TestStampChangesOnInstall: a commit, a one-phase commit and a
// polyvalue install each give the item a new stamp; the reduction of
// that polyvalue does not, because a reduction is not a write.
func TestStampChangesOnInstall(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 100)
	installs := []struct {
		name, at, program string
	}{
		{"commit", "A", "bx = bx + 1"},
		{"one-phase commit", "B", "bx = bx + 1"},
	}
	for _, in := range installs {
		before := itemStamp(c, "bx")
		h, _ := c.Submit(protocol.SiteID(in.at), in.program)
		c.RunFor(time.Second)
		if h.Status() != StatusCommitted {
			t.Fatalf("%s: %v (%s)", in.name, h.Status(), h.Reason())
		}
		if itemStamp(c, "bx") == before {
			t.Errorf("%s left bx's stamp at %d", in.name, before)
		}
	}

	// The coordinator dies before deciding: B installs bx's polyvalue at
	// its wait timeout.
	before := itemStamp(c, "bx")
	c.ArmCrashBeforeDecision("A")
	c.Submit("A", "bx = bx + 1")
	c.RunFor(time.Second)
	if _, certain := c.Read("bx").IsCertain(); certain {
		t.Fatal("bx is certain: no polyvalue was installed")
	}
	installed := itemStamp(c, "bx")
	if installed == before {
		t.Errorf("polyvalue install left bx's stamp at %d", before)
	}
	// The restarted coordinator presumes the abort and bx reduces.
	c.Restart("A")
	c.RunFor(5 * time.Second)
	if got := readInt(t, c, "bx"); got != 102 {
		t.Fatalf("bx = %d after the reduction, want 102", got)
	}
	if got := itemStamp(c, "bx"); got != installed {
		t.Errorf("reduction changed bx's stamp from %d to %d", installed, got)
	}
}

// TestStampChangesOnAntiEntropyCopy: the replica a commit missed, cut
// off by a partition, gets the fresh value from gossip after the heal,
// and with it a new stamp.
func TestStampChangesOnAntiEntropyCopy(t *testing.T) {
	c := newQuorumCluster(t, nil)
	if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatal(err)
	}
	victim := replica.Sites(c.Placement, "bal", 3)[2]
	stale := ""
	for i := 0; i < 3; i++ {
		if phys := replica.Name("bal", i); c.Placement(phys) == victim {
			stale = phys
		}
	}
	coord := protocol.SiteID("")
	for _, id := range c.Sites() {
		if id != victim {
			coord = id
			c.Partition(victim, id)
		}
	}
	before := itemStamp(c, stale)
	h, _ := c.Submit(coord, "bal = bal - 30")
	c.RunFor(2 * time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	if got := itemStamp(c, stale); got != before {
		t.Fatalf("%s's stamp moved from %d to %d before any copy", stale, before, got)
	}
	c.HealAll()
	c.RunFor(15 * time.Second)
	if v := c.Store(victim).Version(stale); v != 2 {
		t.Fatalf("%s at version %d after the gossip window, want 2", stale, v)
	}
	if got := itemStamp(c, stale); got == before {
		t.Errorf("anti-entropy copy left %s's stamp at %d", stale, got)
	}
}

// TestCrashBetweenReadAndPrepareRefuses: B crashes and restarts between serving T1's
// read and T1's prepare.  No install happened, but the restarted B must
// not vouch for a read its earlier incarnation served, just as a read
// lock would have died with it: the prepare refuses.  Without the crash
// the same schedule commits.
func TestCrashBetweenReadAndPrepareRefuses(t *testing.T) {
	for _, crash := range []bool{false, true} {
		c, err := New(Config{
			Sites:     []protocol.SiteID{"A", "B", "C"},
			Net:       network.Config{Latency: 10 * time.Millisecond, Seed: 1},
			Placement: abcPlacement,
		})
		if err != nil {
			t.Fatal(err)
		}
		loadInt(t, c, "bsrc", 100)
		loadInt(t, c, "cdst", 0)
		// T1 reads bsrc at B at 10ms; its prepare to B is held until 120ms.
		slow := &slowPrepare{Transport: c.fab, c: c, to: "B", by: 100 * time.Millisecond}
		c.fab = slow
		h, _ := c.Submit("A", "bsrc = bsrc - 40 if cdst >= 0; cdst = cdst + 40 if bsrc >= 40")
		slow.tid = h.TID
		if crash {
			c.sched.After(40*time.Millisecond, func() { c.Crash("B") })
			c.sched.After(60*time.Millisecond, func() { c.Restart("B") })
		}
		c.RunFor(5 * time.Second)
		want, reason, b, cd := StatusCommitted, "", int64(60), int64(40)
		if crash {
			want, reason, b, cd = StatusAborted, "refused: stale read at B", 100, 0
		}
		if h.Status() != want || h.Reason() != reason {
			t.Errorf("crash=%v: T1 = %v (%q), want %v (%q)", crash, h.Status(), h.Reason(), want, reason)
		}
		if gb, gc := readInt(t, c, "bsrc"), readInt(t, c, "cdst"); gb != b || gc != cd {
			t.Errorf("crash=%v: bsrc=%d cdst=%d, want %d/%d", crash, gb, gc, b, cd)
		}
		if v := c.CheckInvariants(); len(v) != 0 {
			t.Errorf("crash=%v: invariant violations: %v", crash, v)
		}
		c.Close()
	}
}
