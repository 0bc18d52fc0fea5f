package network

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

func setup(cfg Config) (*vclock.Scheduler, *Network) {
	s := vclock.NewScheduler()
	n := New(s, cfg)
	n.Instrument(metrics.NewRegistry())
	return s, n
}

// total sums one network.* series over its labels.
func total(n *Network, name string) int64 { return n.reg.Snapshot().Total(name) }

func TestDelivery(t *testing.T) {
	sched, n := setup(Config{Latency: 5 * time.Millisecond})
	var got []protocol.Message
	n.Register("b", func(m protocol.Message) { got = append(got, m) })
	n.Send(protocol.Message{Kind: protocol.MsgReady, From: "a", To: "b", TID: "T1"})
	if len(got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	sched.Drain(0)
	if len(got) != 1 || got[0].TID != "T1" {
		t.Fatalf("got = %v", got)
	}
	if sched.Now() != 5*time.Millisecond {
		t.Errorf("delivery time = %v", sched.Now())
	}
	if sent, delivered := total(n, "network.sent"), total(n, "network.delivered"); sent != 1 || delivered != 1 {
		t.Errorf("sent=%d delivered=%d, want 1 and 1", sent, delivered)
	}
}

func TestUnregisteredTargetDropsQuietly(t *testing.T) {
	sched, n := setup(Config{})
	n.Send(protocol.Message{From: "a", To: "nowhere"})
	sched.Drain(0) // must not panic
	if got := total(n, "network.delivered"); got != 1 {
		// Delivery is counted even with no handler; the message reached
		// the (silent) site.
		t.Errorf("delivered = %d, want 1", got)
	}
}

func TestDownSiteDropsAtSend(t *testing.T) {
	sched, n := setup(Config{})
	delivered := 0
	n.Register("b", func(protocol.Message) { delivered++ })
	n.SetDown("b", true)
	if !n.IsDown("b") {
		t.Fatal("IsDown wrong")
	}
	n.Send(protocol.Message{From: "a", To: "b"})
	sched.Drain(0)
	if down := n.reg.Snapshot().Counter("network.dropped", metrics.L("reason", "down")); delivered != 0 || down != 1 {
		t.Errorf("delivered=%d dropped{down}=%d", delivered, down)
	}
	// Sender down drops too.
	n.SetDown("b", false)
	n.SetDown("a", true)
	n.Send(protocol.Message{From: "a", To: "b"})
	sched.Drain(0)
	if delivered != 0 {
		t.Error("message from down site delivered")
	}
}

func TestCrashWhileInFlight(t *testing.T) {
	sched, n := setup(Config{Latency: 10 * time.Millisecond})
	delivered := 0
	n.Register("b", func(protocol.Message) { delivered++ })
	n.Send(protocol.Message{From: "a", To: "b"})
	// Crash the target while the message is in flight.
	sched.After(5*time.Millisecond, func() { n.SetDown("b", true) })
	sched.Drain(0)
	if delivered != 0 {
		t.Error("message delivered to site that crashed mid-flight")
	}
	if down := n.reg.Snapshot().Counter("network.dropped", metrics.L("reason", "down")); down != 1 {
		t.Errorf("dropped{down} = %d, want 1", down)
	}
}

func TestJitterDeterministic(t *testing.T) {
	run := func(seed int64) []vclock.Time {
		sched, n := setup(Config{Latency: time.Millisecond, Jitter: 10 * time.Millisecond, Seed: seed})
		var times []vclock.Time
		n.Register("b", func(protocol.Message) { times = append(times, sched.Now()) })
		for i := 0; i < 5; i++ {
			n.Send(protocol.Message{From: "a", To: "b"})
		}
		sched.Drain(0)
		return times
	}
	a, b := run(7), run(7)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("deliveries: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

func TestDefaultLatency(t *testing.T) {
	sched, n := setup(Config{})
	n.Register("b", func(protocol.Message) {})
	n.Send(protocol.Message{From: "a", To: "b"})
	sched.Drain(0)
	if sched.Now() != 10*time.Millisecond {
		t.Errorf("default latency = %v", sched.Now())
	}
}
