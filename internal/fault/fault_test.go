package fault

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// fakeTransport records sends; it stands in for the simulated network
// or TCP under the injector.
type fakeTransport struct {
	mu   sync.Mutex
	sent []protocol.Message
}

func (f *fakeTransport) Send(msg protocol.Message) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, msg)
}
func (f *fakeTransport) Register(protocol.SiteID, transport.Handler) {}
func (f *fakeTransport) SetDown(protocol.SiteID, bool)               {}
func (f *fakeTransport) IsDown(protocol.SiteID) bool                 { return false }
func (f *fakeTransport) Close() error                                { return nil }

func (f *fakeTransport) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sent)
}

func msg(from, to protocol.SiteID) protocol.Message {
	return protocol.Message{Kind: protocol.MsgReady, TID: "t1", From: from, To: to}
}

func TestPassThroughByDefault(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	for i := 0; i < 50; i++ {
		in.Send(msg("A", "B"))
	}
	if got := inner.count(); got != 50 {
		t.Fatalf("sent %d of 50 with an empty plan", got)
	}
}

func TestDropRuleProbabilityAndScope(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 42})
	in.SetRule(Rule{Kind: KindDrop, From: "A", To: "B", P: 1})
	in.Send(msg("A", "B"))
	in.Send(msg("B", "A")) // reverse direction unaffected
	in.Send(msg("A", "C")) // different destination unaffected
	if got := inner.count(); got != 2 {
		t.Fatalf("delivered %d, want 2 (only A->B dropped)", got)
	}
	if in.Counts()[KindDrop] != 1 {
		t.Fatalf("drop count = %v", in.Counts())
	}
	// p=0 removes the rule again.
	in.SetRule(Rule{Kind: KindDrop, From: "A", To: "B", P: 0})
	in.Send(msg("A", "B"))
	if got := inner.count(); got != 3 {
		t.Fatalf("delivered %d after rule removal, want 3", got)
	}
}

func TestDropIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		inner := &fakeTransport{}
		in := Wrap(inner, Config{Seed: seed})
		in.SetRule(Rule{Kind: KindDrop, From: Wildcard, To: Wildcard, P: 0.5})
		for i := 0; i < 200; i++ {
			in.Send(msg("A", "B"))
		}
		return inner.count()
	}
	if a, b := run(7), run(7); a != b {
		t.Fatalf("same seed, different delivery counts: %d vs %d", a, b)
	}
	if a, b := run(7), run(8); a == b {
		// Not impossible, but with 200 coin flips it means the seed is
		// ignored.
		t.Logf("warning: seeds 7 and 8 delivered the same count %d", a)
	}
}

func TestDuplicateRule(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	in.SetRule(Rule{Kind: KindDup, P: 1})
	in.Send(msg("A", "B"))
	if got := inner.count(); got != 2 {
		t.Fatalf("delivered %d copies, want 2", got)
	}
}

func TestDelayRuleHoldsThenForwards(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	in.SetRule(Rule{Kind: KindDelay, P: 1, MinDelay: 20 * time.Millisecond, MaxDelay: 30 * time.Millisecond})
	in.Send(msg("A", "B"))
	if got := inner.count(); got != 0 {
		t.Fatalf("delivered %d immediately, want 0 (delayed)", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for inner.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := inner.count(); got != 1 {
		t.Fatalf("delivered %d after delay, want 1", got)
	}
}

func TestCloseCancelsDelayedSends(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	in.SetRule(Rule{Kind: KindDelay, P: 1, MinDelay: 50 * time.Millisecond, MaxDelay: 60 * time.Millisecond})
	in.Send(msg("A", "B"))
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if got := inner.count(); got != 0 {
		t.Fatalf("delayed message delivered after Close: %d", got)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	in.Partition("A", "B", false, 0)
	in.Send(msg("A", "B"))
	in.Send(msg("B", "A"))
	in.Send(msg("A", "C"))
	if got := inner.count(); got != 1 {
		t.Fatalf("delivered %d, want 1 (A<->B cut)", got)
	}
	in.HealLink("A", "B")
	in.Send(msg("A", "B"))
	if got := inner.count(); got != 2 {
		t.Fatalf("delivered %d after heal, want 2", got)
	}
}

func TestOneWayPartition(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	in.Partition("A", "B", true, 0)
	in.Send(msg("A", "B"))
	in.Send(msg("B", "A"))
	if got := inner.count(); got != 1 {
		t.Fatalf("delivered %d, want 1 (only A->B cut)", got)
	}
}

func TestPartitionScheduledHeal(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	in.Partition("A", "B", false, 30*time.Millisecond)
	in.Send(msg("A", "B"))
	if got := inner.count(); got != 0 {
		t.Fatalf("delivered %d during partition, want 0", got)
	}
	time.Sleep(60 * time.Millisecond)
	in.Send(msg("A", "B"))
	if got := inner.count(); got != 1 {
		t.Fatalf("delivered %d after scheduled heal, want 1", got)
	}
}

func TestCorruptDegradesToDropWithoutTap(t *testing.T) {
	inner := &fakeTransport{} // no FrameTapper
	in := Wrap(inner, Config{Seed: 1})
	in.SetRule(Rule{Kind: KindCorrupt, P: 1})
	in.Send(msg("A", "B"))
	if got := inner.count(); got != 0 {
		t.Fatalf("delivered %d, want 0 (corrupt degrades to drop)", got)
	}
	if in.Counts()[KindCorrupt] != 1 {
		t.Fatalf("corrupt count = %v", in.Counts())
	}
}

func TestMetricsReported(t *testing.T) {
	reg := metrics.NewRegistry()
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1, Metrics: reg})
	in.SetRule(Rule{Kind: KindDrop, P: 1})
	in.Send(msg("A", "B"))
	if got := reg.Counter("transport.fault.injected", metrics.L("kind", "drop")).Value(); got != 1 {
		t.Fatalf("transport.fault.injected{kind=drop} = %d", got)
	}
	if got := reg.Counter("network.dropped", metrics.L("reason", "fault.drop")).Value(); got != 1 {
		t.Fatalf("network.dropped{reason=fault.drop} = %d", got)
	}
}

func TestApplyGrammar(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	cases := []string{
		"drop from=A to=B p=0.5",
		"dup p=0.1",
		"delay p=1 min=10ms max=20ms",
		"corrupt to=C p=0.25",
		"reset p=0.05",
		"partition a=A b=B heal=2s",
		"partition a=A b=C oneway",
		"heal a=A b=B",
		"heal",
		"seed n=99",
		"status",
		"clear",
	}
	for _, cmd := range cases {
		if _, err := in.Apply(cmd); err != nil {
			t.Errorf("Apply(%q): %v", cmd, err)
		}
	}
	bad := []string{
		"", "bogus p=1", "drop", "drop p=2", "drop p=x",
		"delay p=1", "delay p=1 min=20ms max=10ms",
		"partition a=A", "seed", "drop =x p=1",
	}
	for _, cmd := range bad {
		if _, err := in.Apply(cmd); err == nil {
			t.Errorf("Apply(%q) accepted, want error", cmd)
		}
	}
}

func TestApplyPlan(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	plan := "drop from=A p=1; # comment\n\n partition a=A b=B"
	if err := in.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	st := in.Status()
	if !strings.Contains(st, "rule drop from=A to=* p=1") {
		t.Errorf("status missing drop rule:\n%s", st)
	}
	if !strings.Contains(st, "partition A->B") || !strings.Contains(st, "partition B->A") {
		t.Errorf("status missing partition:\n%s", st)
	}
	if err := in.ApplyPlan("drop p=1; nonsense"); err == nil {
		t.Error("plan with a bad command accepted")
	}
}

func TestStatusEmpty(t *testing.T) {
	in := Wrap(&fakeTransport{}, Config{Seed: 1})
	if got := in.Status(); !strings.Contains(got, "no active faults") {
		t.Errorf("empty status = %q", got)
	}
}

// simFabric is the simulated cluster's stack: an injector on the
// scheduler over the simulated network, counting deliveries at B.
func simFabric(seed int64) (*vclock.Scheduler, *Injector, *int) {
	sched := vclock.NewScheduler()
	in := Wrap(network.New(sched, network.Config{Latency: time.Millisecond, Seed: seed}), Config{Seed: seed, Clock: sched})
	delivered := new(int)
	in.Register("B", func(protocol.Message) { *delivered++ })
	return sched, in, delivered
}

// TestSymmetricPartitionOverNetwork: a cut is symmetric whatever the
// argument order, counts each message it drops, and the reversed pair
// heals it.
func TestSymmetricPartitionOverNetwork(t *testing.T) {
	sched, in, delivered := simFabric(1)
	in.Partition("A", "B", false, 0)
	in.Send(msg("A", "B"))
	in.Send(msg("B", "A"))
	sched.Drain(0)
	if *delivered != 0 {
		t.Errorf("delivered %d across the cut, want 0", *delivered)
	}
	if got := in.Counts()["partition"]; got != 2 {
		t.Errorf("partition drops = %d, want 2", got)
	}
	in.HealLink("B", "A") // reversed order heals the same link
	in.Send(msg("A", "B"))
	sched.Drain(0)
	if *delivered != 1 {
		t.Errorf("post-heal delivered = %d, want 1", *delivered)
	}
}

func TestPartitionWhileInFlight(t *testing.T) {
	sched, in, delivered := simFabric(1)
	in.Send(msg("A", "B"))
	sched.After(time.Millisecond/2, func() { in.Partition("A", "B", false, 0) })
	sched.Drain(0)
	if *delivered != 0 {
		t.Error("message crossed a link cut while in flight")
	}
	if got := in.Counts()["partition"]; got != 1 {
		t.Errorf("partition drops = %d, want 1", got)
	}
}

func TestHealAll(t *testing.T) {
	sched, in, delivered := simFabric(1)
	in.Partition("A", "B", false, 0)
	in.Partition("C", "B", true, 0)
	in.HealAll()
	in.Send(msg("A", "B"))
	in.Send(msg("C", "B"))
	sched.Drain(0)
	if *delivered != 2 {
		t.Errorf("post-HealAll delivered = %d, want 2", *delivered)
	}
}

func TestDropAndDuplicateRates(t *testing.T) {
	const sent = 1000
	run := func() (counts map[string]int64, delivered int) {
		sched, in, n := simFabric(3)
		if err := in.ApplyPlan("drop p=0.3; dup p=0.3"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sent; i++ {
			in.Send(msg("A", "B"))
		}
		sched.Drain(0)
		return in.Counts(), *n
	}
	counts, delivered := run()
	dropped, dups := counts[KindDrop], counts[KindDup]
	if dropped < 200 || dropped > 400 {
		t.Errorf("dropped = %d of %d, want ≈ 30%%", dropped, sent)
	}
	// Only a surviving message can be duplicated.
	if survived := sent - dropped; dups < survived*2/10 || dups > survived*4/10 {
		t.Errorf("duplicated = %d of %d survivors, want ≈ 30%%", dups, survived)
	}
	// Every surviving send is delivered once, plus one per duplicate.
	if want := sent - int(dropped) + int(dups); delivered != want {
		t.Errorf("delivered = %d, want %d", delivered, want)
	}
	// Deterministic for the seed.
	if again, _ := run(); again[KindDrop] != dropped || again[KindDup] != dups {
		t.Error("faults not deterministic for seed")
	}
}

// TestDelayDeliversAtSimulatedInstant: on the scheduler a delayed copy
// arrives exactly the rule's delay after the network latency.
func TestDelayDeliversAtSimulatedInstant(t *testing.T) {
	sched, in, delivered := simFabric(1)
	if _, err := in.Apply("delay p=1 min=20ms max=20ms"); err != nil {
		t.Fatal(err)
	}
	in.Send(msg("A", "B"))
	sched.RunUntil(21*time.Millisecond - 1)
	if *delivered != 0 {
		t.Fatal("delayed copy arrived early")
	}
	sched.RunUntil(21 * time.Millisecond)
	if *delivered != 1 {
		t.Fatalf("delivered %d at 21ms, want 1", *delivered)
	}
}

// TestStatusDropsHealedPartitions: a timed partition leaves Status once
// its heal time passes, even if no send crossed the link since.
func TestStatusDropsHealedPartitions(t *testing.T) {
	sched, in, _ := simFabric(1)
	in.Partition("A", "B", false, 50*time.Millisecond)
	sched.RunUntil(10 * time.Millisecond)
	if st := in.Status(); !strings.Contains(st, "partition A->B heal_in=40ms") {
		t.Errorf("status before heal:\n%s", st)
	}
	sched.RunUntil(50 * time.Millisecond)
	if st := in.Status(); st != "no active faults\n" {
		t.Errorf("status after heal = %q, want only \"no active faults\"", st)
	}
}
