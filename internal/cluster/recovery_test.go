package cluster

import (
	"fmt"
	"maps"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/value"
)

// queueFabric is a transport whose Register hands the queued messages
// to the new handler at once, on the caller's goroutine: a peer's frame
// that reaches a process the moment it starts listening.  Sends go
// nowhere.
type queueFabric struct{ queued []protocol.Message }

func (f *queueFabric) Send(protocol.Message) {}
func (f *queueFabric) Register(_ protocol.SiteID, h transport.Handler) {
	for _, msg := range f.queued {
		h(msg)
	}
	f.queued = nil
}
func (f *queueFabric) SetDown(protocol.SiteID, bool) {}
func (f *queueFabric) IsDown(protocol.SiteID) bool   { return false }
func (f *queueFabric) Close() error                  { return nil }

// TestRecoveryBeforeDelivery: a node restarts with T2 prepared, its
// write to x a polyvalue that depends on T1, and the coordinator's
// complete for T2 is the first frame to arrive.  The node recovers
// before it handles that frame, so the commit settles the transaction
// recovery resumed, and x's dependency on T1 stays in the dependency
// table.
func TestRecoveryBeforeDelivery(t *testing.T) {
	dir := t.TempDir()
	store, log, err := storage.OpenFileStore(filepath.Join(dir, "B.wal"))
	if err != nil {
		t.Fatal(err)
	}
	write := polyvalue.Uncertain("T1", polyvalue.Simple(value.Int(5)), polyvalue.Simple(value.Int(3)))
	if err := store.Put("x", polyvalue.Simple(value.Int(3))); err != nil {
		t.Fatal(err)
	}
	if err := store.MarkPrepared(storage.Prepared{
		TID: "T2", Coordinator: "A",
		Writes:   map[string]polyvalue.Poly{"x": write},
		Previous: map[string]polyvalue.Poly{"x": polyvalue.Simple(value.Int(3))},
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	fab := &queueFabric{queued: []protocol.Message{{
		Kind: protocol.MsgComplete, TID: "T2", From: "A", To: "B", Committed: true,
	}}}
	c, err := NewNode(Config{
		Sites:     []protocol.SiteID{"A", "B"},
		DataDir:   dir,
		Placement: func(string) protocol.SiteID { return "B" },
	}, "B", fab)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, v := range c.CheckInvariants() {
		t.Error(v)
	}
	if got := c.Read("x"); !got.Equal(write) {
		t.Errorf("x = %s, want %s", got, write)
	}
}

// TestRecoveryTakesTheLiveRule: a participant that crashes in its wait
// phase and restarts settles its transaction exactly as the same
// participant does when the wait times out live, under every policy.
// The coordinator dies before deciding, so nothing but the rule decides.
func TestRecoveryTakesTheLiveRule(t *testing.T) {
	type settled struct {
		bx       polyvalue.Poly
		locked   bool
		cause    string
		outcome  string
		counters map[string]int64
	}
	run := func(policy Policy, budget int, restart bool) settled {
		c, err := New(Config{
			Sites:         []protocol.SiteID{"A", "B", "C"},
			Net:           network.Config{Latency: 10 * time.Millisecond},
			Policy:        policy,
			MaxPolyBudget: budget,
			Placement: func(item string) protocol.SiteID {
				return protocol.SiteID(strings.ToUpper(item[1:]))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		load := map[string]polyvalue.Poly{"xa": polyvalue.Simple(value.Int(0)),
			"xb": polyvalue.Simple(value.Int(100)), "xc": polyvalue.Simple(value.Int(0))}
		if budget > 0 {
			// B already holds as many polyvalues as its budget allows.
			load["zb"] = polyvalue.Uncertain("t0", polyvalue.Simple(value.Int(1)), polyvalue.Simple(value.Int(2)))
		}
		for item, p := range load {
			if err := c.Load(item, p); err != nil {
				t.Fatal(err)
			}
		}
		c.ArmCrashBeforeDecision("A")
		h, err := c.Submit("A", "xb = xb - 40; xc = xc + 40")
		if err != nil {
			t.Fatal(err)
		}
		// Past the readies, short of the wait timeout: B waits in doubt.
		c.RunFor(60 * time.Millisecond)
		if restart {
			c.Crash("B")
			c.Restart("B")
		}
		c.RunFor(time.Second)
		var out settled
		b := c.sites["B"]
		b.do(func() {
			out.locked = len(b.locks) > 0
			if ctx, ok := b.parts[h.TID]; ok {
				out.cause = ctx.blockCause
			}
		})
		out.bx = c.Read("xb")
		if committed, known := c.Store("B").Outcome(h.TID); known {
			out.outcome = fmt.Sprint(committed)
		}
		out.counters = map[string]int64{}
		for _, p := range c.Metrics().Snapshot().Points {
			switch p.Name {
			case "txn.indoubt", "txn.degraded.blocking", "poly.installs", "poly.forks",
				"protocol.participant.transitions", "network.sent":
				if p.Value != 0 {
					out.counters[p.Key()] = p.Value
				}
			case "item.blocked.seconds":
				// Samples per cause: a recovered camp adds no zero-length
				// cause=lock sample to the one the crash closed.
				if p.Count != 0 {
					out.counters[p.Key()+"_count"] = p.Count
				}
			}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		policy Policy
		budget int
		cause  string
	}{
		{"polyvalue", PolicyPolyvalue, 0, ""},
		{"blocking", PolicyBlocking, 0, causeInDoubt},
		{"arbitrary", PolicyArbitrary, 0, ""},
		{"budget-at-cap", PolicyPolyvalue, 1, causeDegraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, rec := run(tc.policy, tc.budget, false), run(tc.policy, tc.budget, true)
			if !rec.bx.Equal(live.bx) {
				t.Errorf("xb = %s after recovery, %s after a live timeout", rec.bx, live.bx)
			}
			camping := tc.cause != ""
			if live.locked != camping || rec.locked != camping {
				t.Errorf("locks held: live %v, recovered %v; want %v", live.locked, rec.locked, camping)
			}
			if live.cause != tc.cause || rec.cause != tc.cause {
				t.Errorf("blocked cause: live %q, recovered %q; want %q", live.cause, rec.cause, tc.cause)
			}
			if rec.outcome != live.outcome {
				t.Errorf("outcome on record at B: recovered %q, live %q", rec.outcome, live.outcome)
			}
			if tc.policy == PolicyArbitrary {
				if want := fmt.Sprint(arbitraryChoice("B", "t1")); rec.outcome != want {
					t.Errorf("recovered guess recorded as %q, want %s", rec.outcome, want)
				}
			}
			if !maps.Equal(rec.counters, live.counters) {
				t.Errorf("counters differ:\n  live      %v\n  recovered %v", live.counters, rec.counters)
			}
			if tc.name == "polyvalue" {
				timeouts := rec.counters[`protocol.participant.transitions{action="install-poly",event="timeout"}`]
				if in := rec.counters["txn.indoubt"]; in != timeouts {
					t.Errorf("txn.indoubt = %d, timeout transitions = %d", in, timeouts)
				}
			}
		})
	}
}
