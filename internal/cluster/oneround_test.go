package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/protocol"
)

// One round: a transaction whose every statement reads only items placed
// at its own target's site skips the read-collect round.  The
// coordinator prepares at once; each participant locks its own items,
// reads them from its store and computes the statements it hosts.

// holdLock takes item's lock at its site for another transaction, which
// holds it for 250 ms, as a participant waiting on its coordinator does.
func holdLock(c *Cluster, site protocol.SiteID, item string) {
	s := c.sites[site]
	s.do(func() { s.lockAll("t-holder", []string{item}) })
	c.sched.After(250*time.Millisecond, func() { s.do(func() { s.releaseLocks("t-holder") }) })
}

// TestOneRoundNeedsNoAllocation: the coordinator's test for skipping the
// read round — every statement reads only its own site's items, or
// another site's only from a source — costs no allocation per
// transaction.
func TestOneRoundNeedsNoAllocation(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	s := c.sites["A"]
	for program, want := range map[string]bool{
		"bx = bx + 1":                                    true,
		"bx = 5; cx = 7":                                 true,
		"bx = bx - 5; cx = cx + 5":                       true,
		"bx = bx - 5 if by >= 5":                         true,
		"bx = bx + min(by, abs(-bz))":                    true,
		"bx = bx - 5 if cx >= 5":                         false, // C hosts no statement
		"bx = bx + cx":                                   false,
		"bx = bx - 1; cx = cx + 1 if bx >= 1":            true, // C reads from the source B
		"bx = bx - 5 if bx >= 5; cx = cx + 5 if bx >= 5": true,
		"ax = 1; bx = ax + cx; cx = cx - 1":              true,  // B reads from two sources
		"bx = bx + cx; cx = cx + bx":                     false, // sinks read from each other
		"ax = ax + 1; bx = ax; cx = bx":                  false, // C reads from the sink B
		"bx = ax; cx = cx + bx":                          false, // A hosts no statement
	} {
		p := expr.MustParse(program)
		if got := s.chained(p, nil); got != want {
			t.Errorf("chained(%q) = %v, want %v", program, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { s.chained(p, nil) }); n != 0 {
			t.Errorf("chained(%q) allocates %v times", program, n)
		}
	}
}

// TestOneRoundPrepareMeetsHeldLock: a one-round prepare locks the items
// its statements read, not only those they write; one that meets a held
// lock refuses and writes nothing.
func TestOneRoundPrepareMeetsHeldLock(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 10)
	loadInt(t, c, "by", 5)
	holdLock(c, "B", "by")
	c.RunFor(20 * time.Millisecond)
	h, _ := c.Submit("A", "bx = bx + by")
	c.RunFor(100 * time.Millisecond)
	if h.Status() != StatusAborted || h.Reason() != "refused: lock conflict at B" {
		t.Fatalf("%v (%q), want refused: lock conflict at B", h.Status(), h.Reason())
	}
	if n := sent(c, "read-req"); n != 0 {
		t.Errorf("%d read requests, want none: the refusal must come from the prepare", n)
	}
	info, _ := c.SiteInfo("B")
	if info.Locks != 1 || info.Prepared != 0 {
		t.Errorf("B holds %d locks and %d prepared records, want only the holder's lock", info.Locks, info.Prepared)
	}
	if got := readInt(t, c, "bx"); got != 10 {
		t.Errorf("bx = %d, want 10", got)
	}
}

// TestAbortOvertakesOneRoundPrepare: C refuses at once, so the abort
// reaches B before B's (held back) prepare.  The prepare is refused and
// takes no lock: nobody would release it before the wait timeout.
func TestAbortOvertakesOneRoundPrepare(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 100)
	loadInt(t, c, "cx", 0)
	holdLock(c, "C", "cx")
	c.RunFor(20 * time.Millisecond)
	slow := &slowPrepare{Transport: c.fab, c: c, to: "B", by: 50 * time.Millisecond}
	c.fab = slow
	h, _ := c.Submit("A", "bx = bx - 40; cx = cx + 40")
	slow.tid = h.TID
	c.RunFor(100 * time.Millisecond)
	if h.Status() != StatusAborted {
		t.Fatalf("%v (%s), want aborted", h.Status(), h.Reason())
	}
	if n := sent(c, "refuse"); n != 2 {
		t.Errorf("%d refusals, want 2: C's lock conflict and B's late prepare", n)
	}
	if info, _ := c.SiteInfo("B"); info.Locks != 0 || info.Prepared != 0 {
		t.Fatalf("B holds %d locks and %d prepared records for a transaction it knows aborted",
			info.Locks, info.Prepared)
	}
	h2, _ := c.Submit("A", "bx = bx - 10")
	c.RunFor(100 * time.Millisecond)
	if h2.Status() != StatusCommitted || readInt(t, c, "bx") != 90 {
		t.Fatalf("next debit of bx: %v (%s), bx %v", h2.Status(), h2.Reason(), c.Read("bx"))
	}
	c.RunFor(time.Second) // past the holder's release
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestOneRoundCoordinatorCrashBeforeDecision: the paper's critical
// moment on the one-round path.  The participants are in doubt, install
// polyvalues at the wait timeout, and reduce them once the restarted
// coordinator presumes the abort.
func TestOneRoundCoordinatorCrashBeforeDecision(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 100)
	loadInt(t, c, "cx", 0)
	c.ArmCrashBeforeDecision("A")
	h, _ := c.Submit("A", "bx = bx - 40; cx = cx + 40")
	c.RunFor(2 * time.Second)
	if !c.IsDown("A") || h.Status() != StatusPending {
		t.Fatalf("coordinator down %v, handle %v: the failpoint did not fire", c.IsDown("A"), h.Status())
	}
	if n := sent(c, "read-req"); n != 0 {
		t.Errorf("%d read requests, want none", n)
	}
	if polys := c.PolyItems(); len(polys) != 2 {
		t.Fatalf("poly items = %v, want bx and cx in doubt", polys)
	}
	c.Restart("A")
	c.RunFor(10 * time.Second)
	if polys := c.PolyItems(); len(polys) != 0 {
		t.Fatalf("polyvalues survived recovery: %v", polys)
	}
	if b, x := readInt(t, c, "bx"), readInt(t, c, "cx"); b != 100 || x != 0 {
		t.Errorf("bx=%d cx=%d, want 100/0 (presumed abort)", b, x)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestPaxosPlaneOneRound: the paxos decision plane commits one-round
// transactions, with a single participant and with two.
func TestPaxosPlaneOneRound(t *testing.T) {
	c := newPaxosCluster(t, nil)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "bdst", 0)
	loadInt(t, c, "cdst", 0)
	for _, program := range []string{
		"bsrc = bsrc - 40 if bsrc >= 40; bdst = bdst + 40 if bsrc >= 40",
		"bsrc = bsrc - 10; cdst = cdst + 10",
	} {
		h, _ := c.Submit("A", program)
		c.RunFor(5 * time.Second)
		if h.Status() != StatusCommitted {
			t.Fatalf("%s: %v (%s)", program, h.Status(), h.Reason())
		}
	}
	if n := sent(c, "read-req"); n != 0 {
		t.Errorf("%d read requests, want none", n)
	}
	if b, d, x := readInt(t, c, "bsrc"), readInt(t, c, "bdst"), readInt(t, c, "cdst"); b != 50 || d != 40 || x != 10 {
		t.Errorf("bsrc=%d bdst=%d cdst=%d, want 50/40/10", b, d, x)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}

// TestOneRoundSoak mixes guarded two-site, unguarded two-site and
// single-site transfers from every coordinator, overlapping, on links
// that reorder messages.  Money is conserved, every site goes quiet and
// no polyvalue is left.
func TestOneRoundSoak(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runOneRoundSoak(t, seed, 0) })
	}
}

func runOneRoundSoak(t *testing.T, seed int64, dup float64) {
	sites := []protocol.SiteID{"A", "B", "C"}
	c, err := New(Config{
		Sites:     sites,
		Net:       network.Config{Latency: 5 * time.Millisecond, Jitter: 3 * time.Millisecond, Seed: seed},
		Placement: abcPlacement,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Faults().SetRule(fault.Rule{Kind: fault.KindDup, P: dup})
	const perSite, start = 3, 100
	var accounts []string
	for _, p := range []string{"a", "b", "c"} {
		for i := 0; i < perSite; i++ {
			accounts = append(accounts, fmt.Sprintf("%s%d", p, i))
			loadInt(t, c, accounts[len(accounts)-1], start)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var handles []*Handle
	for i := 0; i < 60; i++ {
		src := accounts[rng.Intn(len(accounts))]
		var dst string
		switch rng.Intn(3) {
		case 0: // single site
			dst = fmt.Sprintf("%c%d", src[0], (int(src[1]-'0')+1)%perSite)
		default: // another site
			dst = fmt.Sprintf("%c%d", "abc"[(int(src[0]-'a')+1+rng.Intn(2))%3], rng.Intn(perSite))
		}
		amt := 1 + rng.Intn(30)
		program := fmt.Sprintf("%s = %s - %d if %s >= %d; %s = %s + %d if %s >= %d",
			src, src, amt, src, amt, dst, dst, amt, src, amt)
		if rng.Intn(2) == 0 {
			program = fmt.Sprintf("%s = %s - %d; %s = %s + %d", src, src, amt, dst, dst, amt)
		}
		h, err := c.Submit(sites[rng.Intn(len(sites))], program)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		c.RunFor(time.Duration(rng.Intn(8)) * time.Millisecond)
	}
	c.RunFor(30 * time.Second)

	committed := 0
	for _, h := range handles {
		switch h.Status() {
		case StatusCommitted:
			committed++
		case StatusPending:
			t.Errorf("%s still pending", h.TID)
		}
	}
	if committed == 0 {
		t.Error("nothing committed")
	}
	total := int64(0)
	for _, a := range accounts {
		total += readInt(t, c, a)
	}
	if want := int64(len(accounts) * start); total != want {
		t.Errorf("total = %d, want %d", total, want)
	}
	for _, id := range sites {
		s := c.sites[id]
		var locks, parts, coords int
		s.do(func() { locks, parts, coords = len(s.locks), len(s.parts), len(s.coords) })
		info, _ := c.SiteInfo(id)
		if locks+parts+coords+info.Prepared+info.Awaits+info.PolyItems != 0 {
			t.Errorf("site %s not quiet: %d locks, %d participant and %d coordinator contexts, %d prepared, %d awaits, %d polyvalues",
				id, locks, parts, coords, info.Prepared, info.Awaits, info.PolyItems)
		}
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
}
