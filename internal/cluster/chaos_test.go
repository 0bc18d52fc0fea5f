package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// chaosCluster builds a 4-site cluster on a jittery network with the
// given fault plan (lossy, duplicating).
func chaosCluster(t *testing.T, seed int64, plan string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Sites: []protocol.SiteID{"s0", "s1", "s2", "s3"},
		Net:   network.Config{Latency: 5 * time.Millisecond, Jitter: 3 * time.Millisecond, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Faults().ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDuplicateDeliveryIdempotent: with heavy message duplication every
// protocol step must be idempotent — results identical to a clean run.
func TestDuplicateDeliveryIdempotent(t *testing.T) {
	c := chaosCluster(t, 1, "dup p=0.8")
	for i := 0; i < 8; i++ {
		if err := c.Load(fmt.Sprintf("item%d", i), polyvalue.Simple(value.Int(100))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		a, b := i%8, (i+3)%8
		h, err := c.Submit(c.Sites()[i%4],
			fmt.Sprintf("item%d = item%d - 1; item%d = item%d + 1", a, a, b, b))
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(time.Second)
		if h.Status() != StatusCommitted {
			t.Fatalf("txn %d under duplication: %v (%s)", i, h.Status(), h.Reason())
		}
	}
	if c.Faults().Counts()[fault.KindDup] == 0 {
		t.Fatal("no duplicates injected — test is vacuous")
	}
	// Money conserved and every item certain.
	total := int64(0)
	for i := 0; i < 8; i++ {
		v, ok := c.Read(fmt.Sprintf("item%d", i)).IsCertain()
		if !ok {
			t.Fatalf("item%d uncertain", i)
		}
		n, _ := value.AsInt(v)
		total += n
	}
	if total != 800 {
		t.Errorf("total = %d, want 800", total)
	}
}

// TestLossyNetworkStaysConsistent: under random message loss some
// transactions abort and some go in doubt, but with all sites alive every
// outcome is eventually learned and the final state equals the serial
// execution of exactly the committed transactions.
func TestLossyNetworkStaysConsistent(t *testing.T) {
	c := chaosCluster(t, 2, "drop p=0.08; dup p=0.1")
	const items = 6
	state := map[string]value.V{}
	for i := 0; i < items; i++ {
		name := fmt.Sprintf("item%d", i)
		state[name] = value.Int(100)
		if err := c.Load(name, polyvalue.Simple(value.Int(100))); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	type sub struct {
		src string
		h   *Handle
	}
	var subs []sub
	for i := 0; i < 60; i++ {
		a := rng.Intn(items)
		b := (a + 1 + rng.Intn(items-1)) % items
		amt := 1 + rng.Intn(5)
		src := fmt.Sprintf("item%d = item%d - %d; item%d = item%d + %d", a, a, amt, b, b, amt)
		h, err := c.Submit(c.Sites()[rng.Intn(4)], src)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{src: src, h: h})
		// Serialize: let each transaction fully settle before the next,
		// so the serial oracle's order is the submission order.
		c.RunFor(3 * time.Second)
	}
	// Let all outcome propagation drain.
	c.RunFor(60 * time.Second)

	if polys := c.PolyItems(); len(polys) != 0 {
		t.Fatalf("unresolved polyvalues with all sites alive: %v", polys)
	}
	if c.Faults().Counts()[fault.KindDrop] == 0 {
		t.Fatal("no losses injected — test is vacuous")
	}
	// Serial oracle over committed transactions.
	committed := 0
	for _, s := range subs {
		switch s.h.Status() {
		case StatusCommitted:
			committed++
			prog := expr.MustParse(s.src)
			writes, err := prog.Eval(expr.MapEnv(state))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range writes {
				state[k] = v
			}
		case StatusPending:
			t.Fatalf("txn %s still pending with coordinator alive", s.h.TID)
		}
	}
	if committed == 0 {
		t.Fatal("nothing committed — loss rate too brutal for a meaningful check")
	}
	for i := 0; i < items; i++ {
		name := fmt.Sprintf("item%d", i)
		got, ok := c.Read(name).IsCertain()
		if !ok {
			t.Fatalf("%s uncertain", name)
		}
		if !got.Equal(state[name]) {
			t.Errorf("%s = %v, serial oracle says %v", name, got, state[name])
		}
	}
	t.Logf("chaos run: %d/%d committed, faults=%v", committed, len(subs), c.Faults().Counts())
	for _, v := range c.CheckInvariants() {
		t.Errorf("invariant violation: %s", v)
	}
}
