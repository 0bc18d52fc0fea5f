package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/value"
)

// TestOutcomeRecordsGarbageCollected: after a clean commit every site
// acknowledges the outcome, and once the TTL passes no site remembers it
// (§3.3: outcome bookkeeping "should be quickly deleted when no longer
// needed").
func TestOutcomeRecordsGarbageCollected(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 1)
	loadInt(t, c, "by", 1)
	h, _ := c.Submit("A", "ax = ax + by")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	// Immediately after commit the coordinator still remembers.
	if _, known := c.Store("A").Outcome(h.TID); !known {
		t.Fatal("outcome not recorded at coordinator")
	}
	// After the TTL (default 5s simulated) everyone has forgotten.
	c.RunFor(30 * time.Second)
	for _, id := range c.Sites() {
		if _, known := c.Store(id).Outcome(h.TID); known {
			t.Errorf("site %s still remembers %s", id, h.TID)
		}
	}
}

// TestOutcomeRetainedUntilInDoubtParticipantSettles: the coordinator
// must NOT forget a commit while some participant still needs it.
func TestOutcomeRetainedUntilInDoubtParticipantSettles(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	// Lose the complete messages to both participants: readies arrive at
	// 20ms, completes would arrive at 30ms.
	c.sched.After(25*time.Millisecond, func() {
		c.Partition("A", "B")
		c.Partition("A", "C")
	})
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	// Run far past the TTL with the partition still up.
	c.RunFor(60 * time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	if _, known := c.Store("A").Outcome(h.TID); !known {
		t.Fatal("coordinator forgot a commit that in-doubt participants still need")
	}
	// Heal: participants fetch the outcome, settle, ack; then GC runs.
	c.HealAll()
	c.RunFor(60 * time.Second)
	if got := readInt(t, c, "bsrc"); got != 60 {
		t.Errorf("bsrc = %d", got)
	}
	if _, known := c.Store("A").Outcome(h.TID); known {
		t.Error("outcome survived GC after all participants settled")
	}
}

// TestOutcomeGCDisabled: negative TTL keeps records forever.
func TestOutcomeGCDisabled(t *testing.T) {
	c, err := New(Config{
		Sites:      []protocol.SiteID{"A", "B"},
		Net:        network.Config{Latency: 10 * time.Millisecond},
		OutcomeTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Load("x", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "x = x + 1")
	c.RunFor(60 * time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	coord := c.Placement("x")
	_ = coord
	if _, known := c.Store("A").Outcome(h.TID); !known {
		t.Error("outcome forgotten with GC disabled")
	}
}

// TestNoTimerOutlivesItsTransaction: every timer a transaction arms is
// cancelled when it settles, and outcome-record GC is one expiry queue
// per site, so once a burst of commits has settled each site's timer
// heap holds the queue's one sweep entry and nothing else, and at most
// one clock timer per site is pending.  The heap keeps the per-timer
// crash rule — an entry due while its site is down is dropped, one due
// after the restart runs — and so does the expiry queue: a record that
// falls due while its site is down is kept, one that falls due after the
// restart is forgotten.
func TestNoTimerOutlivesItsTransaction(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		c := newTestCluster(t, PolicyPolyvalue)
		var hs []*Handle
		for i := 0; i < 100; i++ {
			a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
			loadInt(t, c, a, 10)
			loadInt(t, c, b, 0)
			h, err := c.Submit("C", fmt.Sprintf("%s = %s - 1; %s = %s + 1", a, a, b, b))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		c.RunFor(time.Second)
		for _, h := range hs {
			if h.Status() != StatusCommitted {
				t.Fatalf("%s: %v (%s)", h.TID, h.Status(), h.Reason())
			}
		}
		if n, limit := c.sched.Pending(), len(c.Sites()); n > limit {
			t.Errorf("%d timers pending after 100 settled transfers, want <= %d (one per site)", n, limit)
		}
		for _, id := range c.Sites() {
			if n, sweep := heapHolds(c.sites[id]); n != 1 || !sweep {
				t.Errorf("site %s: %d heap entries after 100 settled transfers, want only the outcome-GC sweep", id, n)
			}
		}
	})

	t.Run("wall", func(t *testing.T) {
		net := &tapNet{handlers: map[protocol.SiteID]transport.Handler{}, down: map[protocol.SiteID]bool{}}
		nodes := map[protocol.SiteID]*Cluster{}
		for _, id := range []protocol.SiteID{"A", "B", "C"} {
			node, err := NewNode(Config{
				Sites:        []protocol.SiteID{"A", "B", "C"},
				Placement:    abcPlacement,
				WaitTimeout:  time.Minute,
				ReadyTimeout: time.Minute,
			}, id, net)
			if err != nil {
				t.Fatalf("NewNode(%s): %v", id, err)
			}
			t.Cleanup(node.Close)
			nodes[id] = node
		}
		loadInt(t, nodes["A"], "ax", 1000)
		loadInt(t, nodes["B"], "by", 0)
		for i := 0; i < 200; i++ {
			h, err := nodes["C"].Submit("C", "ax = ax - 1; by = by + 1")
			if err != nil {
				t.Fatal(err)
			}
			if st, ok := h.Wait(10 * time.Second); !ok || st != StatusCommitted {
				t.Fatalf("transfer %d: %v (%s)", i, st, h.Reason())
			}
		}
		// The last acks are still in flight when the handle decides; well
		// inside OutcomeTTL every node must be down to its sweep timer.
		// A site whose sweep already emptied the queue holds nothing.
		deadline := time.Now().Add(2 * time.Second)
		for _, id := range []protocol.SiteID{"A", "B", "C"} {
			settled := func() bool {
				n, sweep := heapHolds(nodes[id].sites[id])
				return nodes[id].wall.Pending() <= 1 && (n == 0 || sweep)
			}
			for !settled() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := nodes[id].wall.Pending(); n > 1 {
				t.Errorf("node %s: %d timers pending after 200 settled transfers, want <= 1", id, n)
			}
			if n, sweep := heapHolds(nodes[id].sites[id]); n > 0 && !sweep {
				t.Errorf("node %s: %d heap entries after 200 settled transfers, want only the outcome-GC sweep", id, n)
			}
		}
	})

	t.Run("heap-crash", func(t *testing.T) {
		c := newTestCluster(t, PolicyPolyvalue)
		b := c.sites["B"]
		var dropped, ran bool
		b.do(func() {
			b.after(2*time.Second, func() { dropped = true })
			b.after(4*time.Second, func() { ran = true })
		})
		c.RunFor(time.Second)
		c.Crash("B")
		c.RunFor(2 * time.Second)
		c.Restart("B")
		c.RunFor(2 * time.Second)
		if dropped {
			t.Error("an entry that fell due while B was down ran")
		}
		if !ran {
			t.Error("an entry that fell due after B's restart never ran")
		}
	})

	t.Run("crash", func(t *testing.T) {
		c := newTestCluster(t, PolicyPolyvalue)
		transfer := func(a, b string) *Handle {
			t.Helper()
			loadInt(t, c, a, 10)
			loadInt(t, c, b, 0)
			h, err := c.Submit("C", fmt.Sprintf("%s = %s - 1; %s = %s + 1", a, a, b, b))
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(time.Second)
			if h.Status() != StatusCommitted {
				t.Fatalf("%s: %v (%s)", h.TID, h.Status(), h.Reason())
			}
			return h
		}
		// B is down from 4s to 7s.  downed is queued at ~0s and falls due
		// at ~5s, inside the outage; queued is queued at ~3s and falls due
		// at ~8s, after the restart; late is queued after the restart.
		downed := transfer("a1", "b1")
		c.RunFor(2 * time.Second)
		queued := transfer("a2", "b2")
		c.Crash("B")
		c.RunFor(3 * time.Second)
		c.Restart("B")
		late := transfer("a3", "b3")
		c.RunFor(10 * time.Second)
		b := c.Store("B")
		if _, known := b.Outcome(downed.TID); !known {
			t.Errorf("B forgot %s, which fell due while B was down", downed.TID)
		}
		if _, known := b.Outcome(queued.TID); known {
			t.Errorf("B kept %s, which fell due after the restart", queued.TID)
		}
		if _, known := b.Outcome(late.TID); known {
			t.Errorf("B kept %s past its TTL", late.TID)
		}
	})
}

// heapHolds reports how many entries a site's timer heap holds and
// whether they are exactly the outcome-GC sweep.
func heapHolds(s *Site) (n int, sweep bool) {
	s.do(func() {
		n = len(s.timers)
		sweep = n == 1 && timerID(s.timers[0]) == s.expTimer
	})
	return n, sweep
}

// TestWALAutoCheckpoint: a busy site's log stays bounded.
func TestWALAutoCheckpoint(t *testing.T) {
	c, err := New(Config{
		Sites:           []protocol.SiteID{"A", "B"},
		Net:             network.Config{Latency: time.Millisecond},
		CheckpointBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Load("x", polyvalue.Simple(value.Int(0))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		h, _ := c.Submit("A", "x = x + 1")
		c.RunFor(time.Second)
		if h.Status() != StatusCommitted {
			t.Fatalf("txn %d: %v", i, h.Status())
		}
	}
	owner := c.Placement("x")
	size := c.Store(owner).WALSize()
	if size > 64<<10 {
		t.Errorf("WAL grew to %d bytes despite 4KiB checkpoint threshold", size)
	}
	// And the data survives a crash/restart cycle post-checkpoint.
	c.Crash(owner)
	c.Restart(owner)
	c.RunFor(time.Second)
	if v, ok := c.Read("x").IsCertain(); !ok || !v.Equal(value.Int(300)) {
		t.Errorf("x after checkpointed recovery = %v", c.Read("x"))
	}
}
