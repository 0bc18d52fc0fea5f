package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/condition"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// newTCPs builds one TCP transport per site on loopback :0 ports, all
// knowing each other's addresses.
func newTCPs(t *testing.T, ids ...protocol.SiteID) map[protocol.SiteID]*TCP {
	t.Helper()
	return newTCPsConfig(t, TCPConfig{}, ids...)
}

// newTCPsConfig is newTCPs with the given fields (registry, batch
// bounds) set on every transport.
func newTCPsConfig(t *testing.T, base TCPConfig, ids ...protocol.SiteID) map[protocol.SiteID]*TCP {
	t.Helper()
	lns := map[protocol.SiteID]net.Listener{}
	peers := map[protocol.SiteID]string{}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[id] = ln
		peers[id] = ln.Addr().String()
	}
	out := map[protocol.SiteID]*TCP{}
	for _, id := range ids {
		cfg := base
		cfg.Self, cfg.Peers = id, peers
		cfg.BackoffMin, cfg.BackoffMax = 5*time.Millisecond, 50*time.Millisecond
		cfg.Seed = 42
		tr := NewTCPWithListener(cfg, lns[id])
		out[id] = tr
		t.Cleanup(func() { tr.Close() })
	}
	return out
}

// tapGate parks a transport's writers inside the frame tap: each frame
// about to be written is handed to the test, then held until the test
// lets it go.  While a writer is parked nothing else consumes its
// peer's queues, so a test can fill and inspect them without racing
// the writer.
type tapGate struct {
	frames  chan []byte
	release chan struct{}
	done    chan struct{} // closed at cleanup: parked and later writes go straight through
}

// gateWrites installs a tapGate on tr.  Call it after the transport's
// own cleanup is registered (newTCPs), so the gate opens before Close
// waits for the writers.
func gateWrites(t *testing.T, tr *TCP) *tapGate {
	g := &tapGate{frames: make(chan []byte), release: make(chan struct{}), done: make(chan struct{})}
	tr.SetFrameTap(func(_ protocol.SiteID, frame []byte) []byte {
		select {
		case g.frames <- append([]byte(nil), frame...):
		case <-g.done:
			return frame
		}
		select {
		case <-g.release:
		case <-g.done:
		}
		return frame
	})
	t.Cleanup(func() { close(g.done) })
	return g
}

// parked waits until a writer sits inside the tap and returns the
// messages of the frame it is holding.
func (g *tapGate) parked(t *testing.T) []protocol.Message {
	t.Helper()
	select {
	case frame := <-g.frames:
		msgs, err := wire.ReadMessages(bytes.NewReader(frame), wire.MaxFrame)
		if err != nil {
			t.Fatalf("decoding the tapped frame: %v", err)
		}
		return msgs
	case <-time.After(10 * time.Second):
		t.Fatal("no writer reached the frame tap")
		return nil
	}
}

// pass lets the parked frame be written.
func (g *tapGate) pass() { g.release <- struct{}{} }

// collector is a thread-safe message sink.
type collector struct {
	mu   sync.Mutex
	msgs []protocol.Message
}

func (c *collector) handle(msg protocol.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, msg)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) waitFor(t *testing.T, n int, d time.Duration) []protocol.Message {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if c.count() >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]protocol.Message(nil), c.msgs...)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages (have %d)", n, c.count())
	return nil
}

func tid(i int) txn.ID { return txn.ID(fmt.Sprintf("t%04d", i)) }

func samplePoly(t *testing.T) polyvalue.Poly {
	t.Helper()
	return polyvalue.Uncertain(condition.TID("t1"),
		polyvalue.Simple(value.Int(50)),
		polyvalue.Simple(value.Int(100)))
}

func TestTCPRoundTrip(t *testing.T) {
	trs := newTCPs(t, "A", "B")
	var atB collector
	trs["B"].Register("B", atB.handle)

	msg := protocol.Message{
		Kind: protocol.MsgReadRep,
		TID:  "txn-7",
		From: "A", To: "B",
		Items:  []string{"acct1", "acct2"},
		Values: map[string]polyvalue.Poly{"acct1": samplePoly(t)},
	}
	trs["A"].Send(msg)
	got := atB.waitFor(t, 1, 5*time.Second)[0]
	if got.Kind != msg.Kind || got.TID != msg.TID || got.From != "A" || got.To != "B" {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Items) != 2 || got.Items[0] != "acct1" {
		t.Fatalf("items mismatch: %v", got.Items)
	}
	if !got.Values["acct1"].Equal(msg.Values["acct1"]) {
		t.Fatalf("poly mismatch:\n got %v\nwant %v", got.Values["acct1"], msg.Values["acct1"])
	}

	// And the reverse direction over a separate connection.
	var atA collector
	trs["A"].Register("A", atA.handle)
	trs["B"].Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "txn-7", From: "B", To: "A"})
	if got := atA.waitFor(t, 1, 5*time.Second)[0]; got.Kind != protocol.MsgOutcomeAck {
		t.Fatalf("kind = %v, want MsgOutcomeAck", got.Kind)
	}
}

func TestTCPSelfLoopback(t *testing.T) {
	trs := newTCPs(t, "A", "B")
	var atA collector
	trs["A"].Register("A", atA.handle)
	for i := 0; i < 5; i++ {
		trs["A"].Send(protocol.Message{Kind: protocol.MsgReadReq, TID: tid(i), From: "A", To: "A"})
	}
	msgs := atA.waitFor(t, 5, 5*time.Second)
	for i, m := range msgs {
		if m.TID != tid(i) {
			t.Fatalf("self message %d out of order: %s", i, m.TID)
		}
	}
}

func TestTCPOrderPreservedPerPeer(t *testing.T) {
	trs := newTCPs(t, "A", "B")
	var atB collector
	trs["B"].Register("B", atB.handle)
	const n = 200
	for i := 0; i < n; i++ {
		trs["A"].Send(protocol.Message{Kind: protocol.MsgReadReq, TID: tid(i), From: "A", To: "B"})
		// Pace sends so the bounded queue never backpressure-drops;
		// this test is about ordering, not loss.
		if i%50 == 49 {
			time.Sleep(time.Millisecond)
		}
	}
	msgs := atB.waitFor(t, n, 10*time.Second)
	for i, m := range msgs {
		if m.TID != tid(i) {
			t.Fatalf("message %d has TID %s, want %s", i, m.TID, tid(i))
		}
	}
}

func TestTCPSetDownDrops(t *testing.T) {
	reg := metrics.NewRegistry()
	trs := newTCPsConfig(t, TCPConfig{Metrics: reg}, "A", "B")
	var atB collector
	trs["B"].Register("B", atB.handle)

	// Sender-side down: A refuses to send to B.
	trs["A"].SetDown("B", true)
	trs["A"].Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "t", From: "A", To: "B"})
	if !trs["A"].IsDown("B") {
		t.Fatal("IsDown(B) = false after SetDown")
	}
	if got := reg.Snapshot().Total("network.dropped"); got != 1 {
		t.Fatalf("network.dropped = %d, want 1", got)
	}
	trs["A"].SetDown("B", false)

	// Receiver-side down: B drops on delivery.
	trs["B"].SetDown("B", true)
	trs["A"].Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "t", From: "A", To: "B"})
	time.Sleep(50 * time.Millisecond)
	if n := atB.count(); n != 0 {
		t.Fatalf("down receiver got %d messages", n)
	}
	trs["B"].SetDown("B", false)
	trs["A"].Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "t", From: "A", To: "B"})
	atB.waitFor(t, 1, 5*time.Second)
}

// TestTCPReconnect kills the receiving transport, watches the sender
// drop messages through the backoff window, restarts a transport on the
// same address, and verifies traffic resumes and the reconnect counter
// advances.
func TestTCPReconnect(t *testing.T) {
	reg := metrics.NewRegistry()
	lnA, _ := net.Listen("tcp", "127.0.0.1:0")
	lnB, _ := net.Listen("tcp", "127.0.0.1:0")
	peers := map[protocol.SiteID]string{"A": lnA.Addr().String(), "B": lnB.Addr().String()}
	a := NewTCPWithListener(TCPConfig{
		Self: "A", Peers: peers,
		BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		WriteTimeout: 200 * time.Millisecond, Seed: 1, Metrics: reg,
	}, lnA)
	defer a.Close()
	b1 := NewTCPWithListener(TCPConfig{Self: "B", Peers: peers, Seed: 2}, lnB)
	var atB1 collector
	b1.Register("B", atB1.handle)

	a.Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "warm", From: "A", To: "B"})
	atB1.waitFor(t, 1, 5*time.Second)

	if err := b1.Close(); err != nil {
		t.Fatalf("close b1: %v", err)
	}

	// Drive sends until A notices the dead link (broken write or failed
	// dial) and records at least one connection error.
	connErrors := reg.Counter("transport.conn.errors", metrics.L("peer", "B"))
	deadline := time.Now().Add(5 * time.Second)
	for connErrors.Value() == 0 && time.Now().Before(deadline) {
		a.Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "probe", From: "A", To: "B"})
		time.Sleep(5 * time.Millisecond)
	}
	if connErrors.Value() == 0 {
		t.Fatal("sender never observed the dead peer")
	}

	// Restart B on the same address; A must reconnect and deliver.
	lnB2, err := net.Listen("tcp", peers["B"])
	if err != nil {
		t.Fatalf("rebind %s: %v", peers["B"], err)
	}
	b2 := NewTCPWithListener(TCPConfig{Self: "B", Peers: peers, Seed: 3}, lnB2)
	defer b2.Close()
	var atB2 collector
	b2.Register("B", atB2.handle)

	deadline = time.Now().Add(10 * time.Second)
	for atB2.count() == 0 && time.Now().Before(deadline) {
		a.Send(protocol.Message{Kind: protocol.MsgComplete, TID: "resume", From: "A", To: "B"})
		time.Sleep(10 * time.Millisecond)
	}
	if atB2.count() == 0 {
		t.Fatal("no delivery after peer restart")
	}
	if reg.Counter("transport.reconnects", metrics.L("peer", "B")).Value() == 0 {
		t.Error("transport.reconnects metric not incremented")
	}
}

// TestTCPBatchCoalescing bursts traffic at one peer and verifies the
// writer coalesces it: every message arrives, in order, in fewer frames
// than messages, with the batch metrics recorded.
func TestTCPBatchCoalescing(t *testing.T) {
	reg := metrics.NewRegistry()
	lnA, _ := net.Listen("tcp", "127.0.0.1:0")
	lnB, _ := net.Listen("tcp", "127.0.0.1:0")
	peers := map[protocol.SiteID]string{"A": lnA.Addr().String(), "B": lnB.Addr().String()}
	a := NewTCPWithListener(TCPConfig{
		Self: "A", Peers: peers, Seed: 1, Metrics: reg,
		BatchMax: 16,
	}, lnA)
	defer a.Close()
	b := NewTCPWithListener(TCPConfig{Self: "B", Peers: peers, Seed: 2}, lnB)
	defer b.Close()
	var atB collector
	b.Register("B", atB.handle)

	const n = 50
	for i := 0; i < n; i++ {
		a.Send(protocol.Message{Kind: protocol.MsgReadReq, TID: tid(i), From: "A", To: "B"})
	}
	msgs := atB.waitFor(t, n, 10*time.Second)
	for i, m := range msgs {
		if m.TID != tid(i) {
			t.Fatalf("message %d has TID %s, want %s", i, m.TID, tid(i))
		}
	}
	// The first write dials first, so the burst queues behind it and
	// must coalesce into far fewer frames than messages.
	h := reg.Histogram("transport.batch.size")
	if frames := h.Count(); frames >= n {
		t.Errorf("sent %d frames for %d messages — no coalescing", frames, n)
	}
	if h.Count() == 0 || h.Max() <= 1 {
		t.Errorf("batch.size histogram: count=%d max=%v, want multi-message batches", h.Count(), h.Max())
	}
	var flushes int64
	for _, reason := range batchFlushReasons {
		flushes += reg.Counter("transport.batch.flushes", metrics.L("reason", reason)).Value()
	}
	if flushes == 0 {
		t.Error("no transport.batch.flushes recorded")
	}
}

// TestTCPBatchingDisabled: BatchMax=1 writes one frame per message.
func TestTCPBatchingDisabled(t *testing.T) {
	reg := metrics.NewRegistry()
	lnA, _ := net.Listen("tcp", "127.0.0.1:0")
	lnB, _ := net.Listen("tcp", "127.0.0.1:0")
	peers := map[protocol.SiteID]string{"A": lnA.Addr().String(), "B": lnB.Addr().String()}
	a := NewTCPWithListener(TCPConfig{Self: "A", Peers: peers, Seed: 1, BatchMax: 1, Metrics: reg}, lnA)
	defer a.Close()
	b := NewTCPWithListener(TCPConfig{Self: "B", Peers: peers, Seed: 2}, lnB)
	defer b.Close()
	var atB collector
	b.Register("B", atB.handle)

	const n = 20
	for i := 0; i < n; i++ {
		a.Send(protocol.Message{Kind: protocol.MsgReadReq, TID: tid(i), From: "A", To: "B"})
		time.Sleep(time.Millisecond)
	}
	atB.waitFor(t, n, 10*time.Second)
	a.Close() // the writer has exited: every frame is recorded
	if frames := reg.Histogram("transport.batch.size").Count(); frames != n {
		t.Errorf("sent %d frames for %d messages with batching disabled", frames, n)
	}
}

// TestTCPSelfClockingBatch: the writer does not wait for traffic, yet
// whatever queued while it was inside one write rides the next frame
// whole — critical class first — up to BatchMax.  The writer is parked
// in a gated frame tap, so the queue contents at each flush are exact.
func TestTCPSelfClockingBatch(t *testing.T) {
	const batchMax = 8
	for _, tc := range []struct {
		name       string
		bulk, crit int
		frames     []int // sizes of the frames after the parked one
		count      int64 // flushes{reason="count"}
	}{
		{name: "fits", bulk: 4, crit: 3, frames: []int{7}},
		{name: "splits", bulk: 7, crit: 4, frames: []int{batchMax, 3}, count: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			trs := newTCPsConfig(t, TCPConfig{Metrics: reg, BatchMax: batchMax}, "A", "B")
			a := trs["A"]
			trs["B"].Register("B", func(protocol.Message) {})
			gate := gateWrites(t, a)

			a.Send(protocol.Message{Kind: protocol.MsgReady, TID: "first", From: "A", To: "B"})
			if got := gate.parked(t); len(got) != 1 {
				t.Fatalf("first frame carries %d messages, want 1", len(got))
			}
			// Bulk first, then critical: the frame must still lead with
			// the critical class, each class in its own send order.
			var want []protocol.Message
			for i := 0; i < tc.crit; i++ {
				want = append(want, protocol.Message{Kind: protocol.MsgComplete, TID: tid(100 + i), From: "A", To: "B"})
			}
			for i := 0; i < tc.bulk; i++ {
				want = append(want, protocol.Message{Kind: protocol.MsgReady, TID: tid(i), From: "A", To: "B"})
			}
			for _, m := range want[tc.crit:] {
				a.Send(m)
			}
			for _, m := range want[:tc.crit] {
				a.Send(m)
			}
			gate.pass()
			for _, size := range tc.frames {
				got := gate.parked(t)
				if len(got) != size {
					t.Fatalf("frame carries %d messages, want %d", len(got), size)
				}
				for i, m := range got {
					if m.Kind != want[i].Kind || m.TID != want[i].TID {
						t.Fatalf("frame slot %d = %v %s, want %v %s", i, m.Kind, m.TID, want[i].Kind, want[i].TID)
					}
				}
				want = want[size:]
				gate.pass()
			}
			// One more frame reaching the tap means every earlier one has
			// been written and recorded: the writer is sequential.
			a.Send(protocol.Message{Kind: protocol.MsgReady, TID: "last", From: "A", To: "B"})
			gate.parked(t)

			h := reg.Histogram("transport.batch.size")
			if h.Count() != 1+len(tc.frames) || h.Sum() != float64(1+tc.bulk+tc.crit) || h.Max() != float64(tc.frames[0]) {
				t.Errorf("batch.size: count=%d sum=%v max=%v, want %d samples summing to %d with max %d",
					h.Count(), h.Sum(), h.Max(), 1+len(tc.frames), 1+tc.bulk+tc.crit, tc.frames[0])
			}
			flushes := func(reason string) int64 {
				return reg.Counter("transport.batch.flushes", metrics.L("reason", reason)).Value()
			}
			if got, want := flushes("drain"), int64(1+len(tc.frames))-tc.count; got != want {
				t.Errorf(`flushes{reason="drain"} = %d, want %d`, got, want)
			}
			if got := flushes("count"); got != tc.count {
				t.Errorf(`flushes{reason="count"} = %d, want %d`, got, tc.count)
			}
		})
	}
}

// TestTCPIdleLinkFlushesAtOnce: a message sent on an established link
// with nothing else queued is a frame of its own, flushed because the
// queue drained — no timer stands between it and the socket, whatever
// its kind.
func TestTCPIdleLinkFlushesAtOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	trs := newTCPsConfig(t, TCPConfig{Metrics: reg}, "A", "B")
	a := trs["A"]
	atB := make(chan protocol.Message, 1)
	trs["B"].Register("B", func(m protocol.Message) { atB <- m })

	// The first send establishes the link; each later one goes out only
	// after the one before has arrived, so the link is up and both
	// queues are empty.
	kinds := []protocol.MsgKind{
		protocol.MsgReady, protocol.MsgReadRep, protocol.MsgPrepare, protocol.MsgReady,
		protocol.MsgComplete, protocol.MsgReadReq,
	}
	for i, k := range kinds {
		a.Send(protocol.Message{Kind: k, TID: tid(i), From: "A", To: "B"})
		select {
		case m := <-atB:
			if m.TID != tid(i) {
				t.Fatalf("delivered %s, want %s", m.TID, tid(i))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v %s never arrived", k, tid(i))
		}
	}
	a.Close() // the writer has exited: every flush is recorded

	if got, want := reg.Counter("transport.batch.flushes", metrics.L("reason", "drain")).Value(), int64(len(kinds)); got != want {
		t.Errorf(`flushes{reason="drain"} = %d, want %d (every lone message)`, got, want)
	}
	if h := reg.Histogram("transport.batch.size"); h.Count() != len(kinds) || h.Max() != 1 {
		t.Errorf("batch.size: count=%d max=%v, want %d samples of 1", h.Count(), h.Max(), len(kinds))
	}
}

func TestTCPCloseIsIdempotentAndQuiet(t *testing.T) {
	trs := newTCPs(t, "A", "B")
	var atB collector
	trs["B"].Register("B", atB.handle)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			trs["A"].Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: tid(i), From: "A", To: "B"})
		}
	}()
	trs["A"].Close()
	trs["A"].Close() // idempotent
	<-done
	// Sends after close are silent no-ops.
	trs["A"].Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "late", From: "A", To: "B"})
}

// TestSimTransport checks the simulated network satisfies the same
// contract over the deterministic scheduler.
func TestSimTransport(t *testing.T) {
	sched := vclock.NewScheduler()
	var fab Transport = network.New(sched, network.Config{Seed: 7})

	var atB collector
	fab.Register("B", atB.handle)
	fab.Send(protocol.Message{Kind: protocol.MsgReadRep, TID: "t", From: "A", To: "B",
		Values: map[string]polyvalue.Poly{"x": samplePoly(t)}})
	sched.Drain(0)
	if atB.count() != 1 {
		t.Fatalf("sim delivered %d, want 1", atB.count())
	}
	fab.SetDown("B", true)
	if !fab.IsDown("B") {
		t.Fatal("IsDown after SetDown = false")
	}
	fab.Send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "t", From: "A", To: "B"})
	sched.Drain(0)
	if atB.count() != 1 {
		t.Fatal("message delivered to down site")
	}
	if err := fab.Close(); err != nil {
		t.Fatalf("sim Close: %v", err)
	}
}
