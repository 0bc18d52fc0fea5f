package cluster

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/txn"
)

// crashRig runs one crash-point scenario on one runtime.  nodes maps each
// site to the Cluster hosting it: the one simulated cluster for all
// three, or one wall-clock node each.
type crashRig struct {
	sim   *Cluster // nil on the wall-clock runtimes
	nodes map[protocol.SiteID]*Cluster
}

// eventually gives cond up to within to become true: simulated time on
// the scheduler, polled real time on a wall clock.
func (r *crashRig) eventually(within time.Duration, cond func() bool) bool {
	if r.sim != nil {
		r.sim.RunFor(within)
		return cond()
	}
	for deadline := time.Now().Add(within); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

func simCrashRig(t *testing.T) *crashRig {
	c := newTestCluster(t, PolicyPolyvalue)
	return &crashRig{sim: c, nodes: map[protocol.SiteID]*Cluster{"A": c, "B": c, "C": c}}
}

// wallCrashRig boots sites A, B and C as three wall-clock nodes over
// loopback TCP, each on its own WAL file.
func wallCrashRig(t *testing.T, syncWAL bool) *crashRig {
	h := newTunedNodeHarness(t, func(cfg *Config) {
		cfg.Placement, cfg.SyncWAL = abcPlacement, syncWAL
	})
	return &crashRig{nodes: h.nodes}
}

// TestCrashPointsOnEveryRuntime pins what a crash point means — what has
// left the site when it dies — once, for every runtime the one event
// engine serves: the client outcome and the recovered balances must be
// the same on the simulated cluster, on wall-clock nodes, and on
// wall-clock nodes with a group-commit WAL.
//
//   - before-ready: the participant's prepared record is durable, its
//     ready never leaves.  The coordinator aborts on ready timeout; the
//     restarted participant recovers in doubt and learns the abort.
//   - after-ready: the paper's wait-phase window — the ready HAS left.
//     The coordinator commits on the full ready set; the restarted
//     participant converts the recovered record to polyvalues and the
//     outcome inquiry reduces them to the committed values.
//   - after-decision-log: COMMIT is durable at the coordinator and never
//     announced; the client never hears.  Participants time out into
//     polyvalues and pull the outcome from the restarted coordinator's
//     log (the window decision retransmission cannot cover).
func TestCrashPointsOnEveryRuntime(t *testing.T) {
	runtimes := []struct {
		name string
		boot func(*testing.T) *crashRig
	}{
		{"sim", simCrashRig},
		{"wall", func(t *testing.T) *crashRig { return wallCrashRig(t, false) }},
		{"wall-sync", func(t *testing.T) *crashRig { return wallCrashRig(t, true) }},
	}
	points := []struct {
		point      CrashPoint
		victim     protocol.SiteID
		client     Status
		bsrc, cdst int64
		inDoubt    bool // both participants must pass through polyvalues
	}{
		{CrashBeforeReady, "B", StatusAborted, 100, 0, false},
		{CrashAfterReady, "B", StatusCommitted, 60, 40, false},
		{CrashAfterDecisionLog, "A", StatusPending, 60, 40, true},
	}
	for _, rt := range runtimes {
		for _, pt := range points {
			t.Run(rt.name+"/"+string(pt.point), func(t *testing.T) {
				r := rt.boot(t)
				a, victim := r.nodes["A"], r.nodes[pt.victim]
				loadInt(t, r.nodes["B"], "bsrc", 100)
				loadInt(t, r.nodes["C"], "cdst", 0)
				if err := victim.ArmCrash(pt.victim, pt.point); err != nil {
					t.Fatal(err)
				}
				h, err := a.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
				if err != nil {
					t.Fatal(err)
				}
				if !r.eventually(2*time.Second, func() bool {
					return victim.IsDown(pt.victim) && (pt.client == StatusPending || h.Status() != StatusPending)
				}) {
					t.Fatalf("down=%v status=%v: crash point did not fire or client never heard",
						victim.IsDown(pt.victim), h.Status())
				}
				if h.Status() != pt.client {
					t.Fatalf("client saw %v (%s), want %v", h.Status(), h.Reason(), pt.client)
				}
				uncertain := func(item string, n *Cluster) bool {
					_, certain := n.Read(item).IsCertain()
					return !certain
				}
				if pt.inDoubt && !r.eventually(2*time.Second, func() bool {
					return uncertain("bsrc", r.nodes["B"]) && uncertain("cdst", r.nodes["C"])
				}) {
					t.Fatal("participants never went in doubt")
				}
				victim.Restart(pt.victim)
				settled := func(item string, n *Cluster, want int64) bool {
					return !uncertain(item, n) && readInt(t, n, item) == want
				}
				if !r.eventually(15*time.Second, func() bool {
					return settled("bsrc", r.nodes["B"], pt.bsrc) && settled("cdst", r.nodes["C"], pt.cdst)
				}) {
					t.Fatalf("recovered bsrc=%v cdst=%v, want %d/%d",
						r.nodes["B"].Read("bsrc"), r.nodes["C"].Read("cdst"), pt.bsrc, pt.cdst)
				}
				for id, n := range r.nodes {
					if v := n.CheckInvariants(); len(v) != 0 {
						t.Errorf("site %s invariant violations: %v", id, v)
					}
					if r.sim != nil {
						break // one cluster hosts all three
					}
				}
			})
		}
	}
}

// slowPrepare is a transport that holds one transaction's prepare to
// one site back by a fixed delay.
type slowPrepare struct {
	transport.Transport
	c   *Cluster
	tid txn.ID
	to  protocol.SiteID
	by  time.Duration
}

func (f *slowPrepare) Send(msg protocol.Message) {
	if msg.Kind == protocol.MsgPrepare && msg.TID == f.tid && msg.To == f.to {
		f.c.sched.After(f.by, func() { f.Transport.Send(msg) })
		return
	}
	f.Transport.Send(msg)
}

// TestLatePrepareAfterLockLapse: a prepare that arrives after another
// transaction installed an item the read round read must be refused.
// The coordinator computed from a snapshot that is no longer current;
// preparing from it would overwrite the second transaction's update (a
// lost update: 30 units minted from nothing).  The read took no lock,
// so the stamp B served with it is what catches this.
func TestLatePrepareAfterLockLapse(t *testing.T) {
	c, err := New(Config{
		Sites:     []protocol.SiteID{"A", "B", "C"},
		Net:       network.Config{Latency: 10 * time.Millisecond, Seed: 1},
		Placement: abcPlacement,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loadInt(t, c, "adst", 0)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	// T1 reads bsrc = 100 at B at 10ms (each share reads the other site's
	// item, so the read round runs); its prepare to B is held from 20ms
	// until 120ms.
	slow := &slowPrepare{Transport: c.fab, c: c, to: "B", by: 100 * time.Millisecond}
	c.fab = slow
	h1, _ := c.Submit("A", "bsrc = bsrc - 40 if cdst >= 0; cdst = cdst + 40 if bsrc >= 40")
	slow.tid = h1.TID
	// T2 moves 30 out of bsrc in the gap: locked at 80ms, settled at 100ms.
	var h2 *Handle
	c.sched.After(70*time.Millisecond, func() {
		h2, _ = c.Submit("C", "bsrc = bsrc - 30; adst = adst + 30")
	})
	c.RunFor(5 * time.Second)

	if h2 == nil || h2.Status() != StatusCommitted {
		t.Fatalf("T2 should commit in the gap, got %+v", h2)
	}
	if h1.Status() != StatusAborted || h1.Reason() != "refused: stale read at B" {
		t.Fatalf("T1 = %v (%q), want refused: stale read at B", h1.Status(), h1.Reason())
	}
	a, b, cc := readInt(t, c, "adst"), readInt(t, c, "bsrc"), readInt(t, c, "cdst")
	if a != 30 || b != 70 || cc != 0 {
		t.Errorf("adst=%d bsrc=%d cdst=%d, want 30/70/0", a, b, cc)
	}
	if a+b+cc != 100 {
		t.Errorf("conservation violated: %d, want 100", a+b+cc)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestAbortOvertakesReadReq: the TCP writer sends an abort ahead of bulk
// traffic, so the abort can reach a site before the read request it
// chases.  A read takes no lock and keeps no state, so the late request
// is served and leaves nothing behind: no lock, no participant, nothing
// that could refuse the next transaction on the item.
func TestAbortOvertakesReadReq(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	const tid = txn.ID("t-overtaken")
	c.fab.Send(protocol.Message{Kind: protocol.MsgAbort, TID: tid, From: "A", To: "B"})
	c.RunFor(20 * time.Millisecond)
	c.fab.Send(protocol.Message{Kind: protocol.MsgReadReq, TID: tid, From: "A", To: "B",
		Items: []string{"bsrc"}, Update: true, Coordinator: "A"})
	c.RunFor(20 * time.Millisecond)
	b := c.sites["B"]
	var locks, parts int
	b.do(func() { locks, parts = len(b.locks), len(b.parts) })
	if locks != 0 || parts != 0 {
		t.Fatalf("B holds %d locks and %d participant contexts after a read", locks, parts)
	}
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(100 * time.Millisecond)
	if h.Status() != StatusCommitted {
		t.Fatalf("transfer on the same item: %v (%s), want committed at once", h.Status(), h.Reason())
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestAbortOvertakesPrepare: the same overtaking, one phase later.  A
// blind write reads nothing at B, so no stamp is stale and nothing but
// the known abort can stop B from locking and preparing a transaction
// that is already dead — and holding the item until the wait timeout.
func TestAbortOvertakesPrepare(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	const tid = txn.ID("t-overtaken")
	c.fab.Send(protocol.Message{Kind: protocol.MsgAbort, TID: tid, From: "A", To: "B"})
	c.RunFor(20 * time.Millisecond)
	c.fab.Send(protocol.Message{Kind: protocol.MsgPrepare, TID: tid, From: "A", To: "B",
		Items: []string{"bsrc"}, Program: "bsrc = 7", Coordinator: "A"})
	c.RunFor(20 * time.Millisecond)
	info, _ := c.SiteInfo("B")
	if info.Locks != 0 || info.Prepared != 0 {
		t.Fatalf("B holds %d locks and %d prepared records for a transaction it knows aborted",
			info.Locks, info.Prepared)
	}
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(100 * time.Millisecond)
	if h.Status() != StatusCommitted {
		t.Fatalf("transfer on the same item: %v (%s), want committed at once", h.Status(), h.Reason())
	}
	if got := readInt(t, c, "bsrc"); got != 60 {
		t.Errorf("bsrc = %d, want 60: the dead blind write must never land", got)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}
