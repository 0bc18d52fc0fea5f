package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// Chained prepare: a transaction whose sinks (sites whose statements read
// another site's items) read only from sources (sites whose statements
// read only their own items) commits in two prepare waves and no read
// round.  The sources are prepared with no values and send the
// coordinator the items the sinks read; the sinks are prepared with them.

// chainTransfer moves 100 from a1 (A, the source) to b1 (B, the sink):
// the guard makes B's statement read a1.
const chainTransfer = "a1 = a1 - 100 if a1 >= 100; b1 = b1 + 100 if a1 >= 100"

// TestDuplicatedPrepareRunsOnce: on a network that delivers every other
// message twice, a copy of a prepare that arrives after its transaction
// committed is dropped, not run again.  Every debit of bx lands once.
func TestDuplicatedPrepareRunsOnce(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		c, err := New(Config{
			Sites:     []protocol.SiteID{"A", "B", "C"},
			Net:       network.Config{Latency: time.Millisecond, Jitter: 50 * time.Millisecond, Seed: seed},
			Placement: abcPlacement,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Faults().ApplyPlan("dup p=0.5"); err != nil {
			t.Fatal(err)
		}
		loadInt(t, c, "bx", 100)
		loadInt(t, c, "by", 0)
		committed := int64(0)
		for i := 0; i < 5; i++ {
			h, _ := c.Submit("A", "bx = bx - 5 if bx >= 5; by = by + 5 if bx >= 5")
			c.RunFor(time.Second)
			if h.Status() == StatusCommitted {
				committed++
			}
		}
		c.RunFor(10 * time.Second)
		if bx, by := readInt(t, c, "bx"), readInt(t, c, "by"); bx != 100-5*committed || by != 5*committed {
			t.Errorf("seed %d: bx=%d by=%d after %d commits, want %d/%d", seed, bx, by, committed, 100-5*committed, 5*committed)
		}
		c.Close()
	}
}

// TestReadOnlyPreparedAfterWriters: a read-only participant keeps
// nothing once it votes, so it is prepared only once every writer is
// ready and holds its locks.  Otherwise the blind write a1 = 5; b1 = 7
// can commit between A's vote and B's lock of b1, and b1 = a1 ends with
// a1 = 5, b1 = 1: neither serial order.  Seeds 419, 1628 and 1745 did so
// before the waves (3 of 3,000); a short sweep follows.
//
// The quorum case runs over K=3/W=2/R=2 replicas, whose read-only
// respondents are prepared in the same second wave.  There every written
// item is probed and validated, so it takes write skew to need the wave:
// b1 = 1 if a1 == 0 against a1 = 1 if b1 == 0.  Voting read-only in the
// first wave let both commit with a1 = b1 = 1 at 25 of these 303 seeds.
func TestReadOnlyPreparedAfterWriters(t *testing.T) {
	seeds := []int64{419, 1628, 1745}
	for seed := int64(1); seed <= 300; seed++ {
		seeds = append(seeds, seed)
	}
	for _, tc := range []struct {
		name   string
		sites  []protocol.SiteID
		rep    *ReplicationConfig
		a1, b1 int64
		t1, t2 string
		serial func(a, b int64) bool
	}{
		{"single-copy", []protocol.SiteID{"A", "B", "C"}, nil, 1, 0, "b1 = a1", "a1 = 5; b1 = 7",
			func(a, b int64) bool { return a == 5 && (b == 7 || b == 5) }},
		{"quorum", []protocol.SiteID{"A", "B", "C", "D", "E"}, &ReplicationConfig{K: 3, W: 2, R: 2}, 0, 0,
			"b1 = 1 if a1 == 0", "a1 = 1 if b1 == 0",
			func(a, b int64) bool { return a+b == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bad []int64
			for _, seed := range seeds {
				cfg := Config{
					Sites:       tc.sites,
					Net:         network.Config{Latency: time.Millisecond, Jitter: 100 * time.Millisecond, Seed: seed},
					Replication: tc.rep,
				}
				if tc.rep == nil {
					cfg.Placement = abcPlacement
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for item, v := range map[string]int64{"a1": tc.a1, "b1": tc.b1} {
					if err := c.LoadReplicated(item, polyvalue.Simple(value.Int(v))); err != nil {
						t.Fatal(err)
					}
				}
				h1, _ := c.Submit("C", tc.t1)
				h2, _ := c.Submit("C", tc.t2)
				c.RunFor(10 * time.Second)
				a, b := freshestInt(t, c, "a1"), freshestInt(t, c, "b1")
				if h1.Status() == StatusCommitted && h2.Status() == StatusCommitted && !tc.serial(a, b) {
					bad = append(bad, seed)
				}
				c.Close()
			}
			if len(bad) > 0 {
				t.Errorf("both committed with a non-serial result at seeds %v", bad)
			}
		})
	}
}

// freshestInt reads a logical item's certain integer value (see
// freshest).
func freshestInt(t *testing.T, c *Cluster, logical string) int64 {
	t.Helper()
	v, ok := freshest(c, logical).IsCertain()
	n, isInt := value.AsInt(v)
	if !ok || !isInt {
		t.Fatalf("%s: freshest replica %v is not a certain integer", logical, freshest(c, logical))
	}
	return n
}

// TestChainInDoubtWindow: the source A votes at 10ms, waits out its
// 250ms wait timeout with no decision (the coordinator would wait 5s for
// the sink's ready), installs a1's polyvalue and releases it, while the
// sink's prepare is held until 420ms.  A second transaction at 300ms
// commits in that window.
//
// Forward, b1 = 2 * b1 if a1 <= 950 reads the polyvalue into b1.  B
// refuses: computing from b1 would make the transfer depend on itself,
// and committing would give a1 = 900, b1 = 2100, which neither serial
// order (2200 or 1100) gives.
//
// Reverse, a1 = b1 reads b1 before B locks it and writes over a1.  B's
// ready arrives 430ms after the first prepares, later than the wait
// timeout, and aborts the transfer.  Counting it would give a1 = 1000,
// b1 = 1100: neither serial order (1100/1100 or 900/1100).
func TestChainInDoubtWindow(t *testing.T) {
	for _, tc := range []struct {
		name, at, program, reason string
	}{
		{"forward", "A", "b1 = 2 * b1 if a1 <= 950", "refused: already in doubt at B"},
		{"reverse", "B", "a1 = b1", "ready timeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{
				Sites:        []protocol.SiteID{"A", "B", "C"},
				Net:          network.Config{Latency: 10 * time.Millisecond, Seed: 1},
				ReadyTimeout: 5 * time.Second,
				WaitTimeout:  250 * time.Millisecond,
				Placement:    abcPlacement,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			loadInt(t, c, "a1", 1000)
			loadInt(t, c, "b1", 1000)
			slow := &slowPrepare{Transport: c.fab, c: c, to: "B", by: 400 * time.Millisecond}
			c.fab = slow
			h, _ := c.Submit("C", chainTransfer)
			slow.tid = h.TID
			c.RunFor(300 * time.Millisecond)
			h2, _ := c.Submit(protocol.SiteID(tc.at), tc.program)
			c.RunFor(100 * time.Millisecond)
			if h2.Status() != StatusCommitted {
				t.Fatalf("%s: %v (%s), want committed before the sink's prepare", tc.program, h2.Status(), h2.Reason())
			}
			c.RunFor(10 * time.Second)
			if h.Status() != StatusAborted || h.Reason() != tc.reason {
				t.Fatalf("transfer %v (%q), want %s", h.Status(), h.Reason(), tc.reason)
			}
			if a, b := readInt(t, c, "a1"), readInt(t, c, "b1"); a != 1000 || b != 1000 {
				t.Errorf("a1=%d b1=%d, want 1000/1000", a, b)
			}
			if v := c.CheckInvariants(); len(v) != 0 {
				t.Errorf("invariant violations: %v", v)
			}
		})
	}
}

// TestChainSinkRefusesOwnPolyvalue: the source A crashes right after its
// ready and recovers at 30ms in doubt, so a1 holds the transfer's
// polyvalue well inside the ready timer.  b1 = 2 * b1 if a1 <= 950 reads
// it and makes b1 depend on the transfer before the sink's prepare
// reaches B at 170ms.  B refuses: computing from b1 would make the
// transfer depend on itself, and committing would give a1 = 900,
// b1 = 2100, which neither serial order (2200 or 1100) gives.
func TestChainSinkRefusesOwnPolyvalue(t *testing.T) {
	c, err := New(Config{
		Sites:     []protocol.SiteID{"A", "B", "C"},
		Net:       network.Config{Latency: 10 * time.Millisecond, Seed: 1},
		Placement: abcPlacement,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loadInt(t, c, "a1", 1000)
	loadInt(t, c, "b1", 1000)
	if err := c.ArmCrash("A", CrashAfterReady); err != nil {
		t.Fatal(err)
	}
	slow := &slowPrepare{Transport: c.fab, c: c, to: "B", by: 150 * time.Millisecond}
	c.fab = slow
	c.sched.After(30*time.Millisecond, func() { c.Restart("A") })
	h, _ := c.Submit("C", chainTransfer)
	slow.tid = h.TID
	c.RunFor(40 * time.Millisecond)
	if polys := c.PolyItems(); len(polys) != 1 || polys[0] != "a1" {
		t.Fatalf("poly items = %v, want a1 in doubt", polys)
	}
	h2, _ := c.Submit("A", "b1 = 2 * b1 if a1 <= 950")
	c.RunFor(110 * time.Millisecond)
	if h2.Status() != StatusCommitted {
		t.Fatalf("b1 = 2 * b1: %v (%s), want committed before the sink's prepare", h2.Status(), h2.Reason())
	}
	c.RunFor(10 * time.Second)
	if h.Status() != StatusAborted || h.Reason() != "refused: already in doubt at B" {
		t.Fatalf("transfer %v (%q), want refused: already in doubt at B", h.Status(), h.Reason())
	}
	if a, b := readInt(t, c, "a1"), readInt(t, c, "b1"); a != 1000 || b != 1000 {
		t.Errorf("a1=%d b1=%d, want 1000/1000", a, b)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// slowValues holds tid's read replies for by on their way.
type slowValues struct{ slowPrepare }

func (f *slowValues) Send(msg protocol.Message) {
	if msg.Kind == protocol.MsgReadRep && msg.TID == f.tid {
		f.c.sched.After(f.by, func() { f.Transport.Send(msg) })
		return
	}
	f.Transport.Send(msg)
}

// TestChainLateValuesAbort: the source's values reach the coordinator
// 310ms after the first prepare, past the 250ms wait timeout.  The sink's
// ready could not count, so the sink is never prepared and the transfer
// aborts at once instead of at the 5s ready timeout.
func TestChainLateValuesAbort(t *testing.T) {
	c, err := New(Config{
		Sites:        []protocol.SiteID{"A", "B", "C"},
		Net:          network.Config{Latency: 10 * time.Millisecond, Seed: 1},
		ReadyTimeout: 5 * time.Second,
		WaitTimeout:  250 * time.Millisecond,
		Placement:    abcPlacement,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	loadInt(t, c, "a1", 1000)
	loadInt(t, c, "b1", 1000)
	slow := &slowValues{slowPrepare{Transport: c.fab, c: c, by: 300 * time.Millisecond}}
	c.fab = slow
	h, _ := c.Submit("C", chainTransfer)
	slow.tid = h.TID
	c.RunFor(time.Second)
	if h.Status() != StatusAborted || h.Reason() != "ready timeout" {
		t.Fatalf("transfer %v (%q), want aborted by the ready timeout", h.Status(), h.Reason())
	}
	if n := sent(c, "prepare"); n != 1 {
		t.Errorf("%d prepares, want the source's only", n)
	}
	c.RunFor(10 * time.Second)
	if a, b := readInt(t, c, "a1"), readInt(t, c, "b1"); a != 1000 || b != 1000 {
		t.Errorf("a1=%d b1=%d, want 1000/1000", a, b)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestChainSourceRefusal: the source meets a held lock and refuses.  The
// transfer aborts without the sink ever being prepared.
func TestChainSourceRefusal(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "a1", 1000)
	loadInt(t, c, "b1", 1000)
	holdLock(c, "A", "a1")
	c.RunFor(20 * time.Millisecond)
	h, _ := c.Submit("C", chainTransfer)
	c.RunFor(100 * time.Millisecond)
	if h.Status() != StatusAborted || h.Reason() != "refused: lock conflict at A" {
		t.Fatalf("%v (%q), want refused: lock conflict at A", h.Status(), h.Reason())
	}
	if prepares, reps := sent(c, "prepare"), sent(c, "read-rep"); prepares != 1 || reps != 0 {
		t.Errorf("%d prepares and %d read replies, want 1 and none", prepares, reps)
	}
	if info, _ := c.SiteInfo("B"); info.Locks != 0 || info.Prepared != 0 {
		t.Errorf("B holds %d locks and %d prepared records, want none", info.Locks, info.Prepared)
	}
	c.RunFor(time.Second) // past the holder's release
	h2, _ := c.Submit("C", chainTransfer)
	c.RunFor(time.Second)
	if h2.Status() != StatusCommitted || readInt(t, c, "a1") != 900 || readInt(t, c, "b1") != 1100 {
		t.Fatalf("next transfer: %v (%s), a1 %v b1 %v", h2.Status(), h2.Reason(), c.Read("a1"), c.Read("b1"))
	}
}

// TestChainCoordinatorCrashBetweenWaves: the coordinator dies after the
// source voted and before the sink was prepared.  The source is in doubt
// and installs a polyvalue; the sink holds nothing; after the restart the
// coordinator presumes the abort and the polyvalue reduces.
func TestChainCoordinatorCrashBetweenWaves(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "a1", 1000)
	loadInt(t, c, "b1", 1000)
	// A is prepared at 10ms; its values would reach C at 20ms.
	c.sched.After(15*time.Millisecond, func() { c.Crash("C") })
	h, _ := c.Submit("C", chainTransfer)
	c.RunFor(2 * time.Second)
	if h.Status() != StatusPending {
		t.Fatalf("handle %v, want pending on a crashed coordinator", h.Status())
	}
	if polys := c.PolyItems(); len(polys) != 1 || polys[0] != "a1" {
		t.Fatalf("poly items = %v, want a1 in doubt", polys)
	}
	if info, _ := c.SiteInfo("B"); info.Locks != 0 || info.Prepared != 0 {
		t.Errorf("B holds %d locks and %d prepared records, want none", info.Locks, info.Prepared)
	}
	c.Restart("C")
	c.RunFor(10 * time.Second)
	if polys := c.PolyItems(); len(polys) != 0 {
		t.Fatalf("polyvalues survived recovery: %v", polys)
	}
	if a, b := readInt(t, c, "a1"), readInt(t, c, "b1"); a != 1000 || b != 1000 {
		t.Errorf("a1=%d b1=%d, want 1000/1000 (presumed abort)", a, b)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestPaxosPlaneChain: the paxos decision plane commits chained
// transfers, with the coordinator a source, a sink and neither.
func TestPaxosPlaneChain(t *testing.T) {
	c := newPaxosCluster(t, nil)
	loadInt(t, c, "a1", 1000)
	loadInt(t, c, "b1", 1000)
	for _, coord := range []protocol.SiteID{"A", "B", "C"} {
		h, _ := c.Submit(coord, chainTransfer)
		c.RunFor(5 * time.Second)
		if h.Status() != StatusCommitted {
			t.Fatalf("at %s: %v (%s)", coord, h.Status(), h.Reason())
		}
	}
	if reqs, reps := sent(c, "read-req"), sent(c, "read-rep"); reqs != 0 || reps != 3 {
		t.Errorf("%d read requests and %d read replies, want 0 and 3", reqs, reps)
	}
	if a, b := readInt(t, c, "a1"), readInt(t, c, "b1"); a != 700 || b != 1300 {
		t.Errorf("a1=%d b1=%d, want 700/1300", a, b)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestChainSoak is TestOneRoundSoak on a network that also delivers one
// message in twenty twice.
func TestChainSoak(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runOneRoundSoak(t, seed, 0.05) })
	}
}
