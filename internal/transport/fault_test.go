package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
)

// TestTCPCorruptFrameKeepsConnection proves the CRC reject path: a
// frame corrupted on the wire (via the frame tap) bumps the
// decode-error metric on the receiver and does NOT kill the connection
// — the next clean frame arrives on the same stream.
func TestTCPCorruptFrameKeepsConnection(t *testing.T) {
	reg := metrics.NewRegistry()
	trs := newTCPsConfig(t, TCPConfig{Metrics: reg}, "A", "B")
	sender, receiver := trs["A"], trs["B"]

	var atB collector
	receiver.Register("B", atB.handle)

	// Corrupt exactly the first frame's payload.
	var corrupted atomic.Int64
	sender.SetFrameTap(func(to protocol.SiteID, frame []byte) []byte {
		if corrupted.CompareAndSwap(0, 1) {
			frame[len(frame)-1] ^= 0xFF // payload byte, length prefix intact
		}
		return frame
	})

	// The first two sends may coalesce into one batch frame; either way
	// the first frame (always carrying tid(1)) is corrupted and every
	// message riding it is lost whole.  The later clean frame arrives on
	// the SAME connection (no reconnect — the first dial is not counted
	// as one).
	sender.Send(protocol.Message{Kind: protocol.MsgReady, TID: tid(1), From: "A", To: "B"})
	sender.Send(protocol.Message{Kind: protocol.MsgReady, TID: tid(2), From: "A", To: "B"})
	time.Sleep(50 * time.Millisecond) // let the corrupted frame flush
	sender.Send(protocol.Message{Kind: protocol.MsgReady, TID: tid(3), From: "A", To: "B"})

	got := atB.waitFor(t, 1, 5*time.Second)
	for _, m := range got {
		if m.TID == tid(1) {
			t.Fatal("tid(1) delivered despite riding the corrupted frame")
		}
	}
	if last := got[len(got)-1].TID; last != tid(2) && last != tid(3) {
		t.Fatalf("delivered %s, want a clean later frame", last)
	}
	if got := reg.Counter("transport.decode.errors").Value(); got != 1 {
		t.Fatalf("transport.decode.errors = %d, want 1", got)
	}
	if got := reg.Counter("transport.reconnects", metrics.L("peer", "B")).Value(); got != 0 {
		t.Fatalf("sender reconnected (%d): corrupt frame killed the connection", got)
	}
}

// TestTCPQueueOverflowDropsOldest: when the per-peer queue is full the
// OLDEST frame is evicted (counted in transport.queue.dropped) and the
// newest is kept.  The writer is parked inside one write for the whole
// test, so the counts are exact.
func TestTCPQueueOverflowDropsOldest(t *testing.T) {
	reg := metrics.NewRegistry()
	pair := newTCPsConfig(t, TCPConfig{Metrics: reg}, "C", "D")
	src := pair["C"]
	gate := gateWrites(t, src)

	depth := src.cfg.QueueDepth
	total := depth + 5
	send := func(i int) {
		src.Send(protocol.Message{Kind: protocol.MsgReady, TID: tid(i), From: "C", To: "D"})
	}
	send(0)
	if got := gate.parked(t); len(got) != 1 || got[0].TID != tid(0) {
		t.Fatalf("writer holds %v, want only %s", got, tid(0))
	}
	const inFlight = 1
	for i := inFlight; i < total; i++ {
		send(i)
	}

	want := int64(total - depth - inFlight)
	if got := reg.Counter("transport.queue.dropped", metrics.L("peer", "D")).Value(); got != want {
		t.Fatalf("transport.queue.dropped = %d after %d sends into a depth-%d queue with %d in flight, want %d",
			got, total, depth, inFlight, want)
	}
	if n := len(src.peers["D"].crit); n != 0 {
		t.Fatalf("critical queue holds %d messages; bulk overflow must not touch it", n)
	}
	// The queue holds exactly the newest depth messages, oldest first.
	q := src.peers["D"].out
	if len(q) != depth {
		t.Fatalf("queue holds %d messages, want %d", len(q), depth)
	}
	for i := total - depth; i < total; i++ {
		if m := <-q; m.TID != tid(i) {
			t.Fatalf("queue slot %d holds %s, want %s: drop-oldest policy not in effect", i-(total-depth), m.TID, tid(i))
		}
	}
}

// TestTCPResetPeerForcesReconnect: severing the live connection makes
// the writer redial, and traffic resumes.
func TestTCPResetPeerForcesReconnect(t *testing.T) {
	trs := newTCPs(t, "A", "B")
	var atB collector
	trs["B"].Register("B", atB.handle)

	trs["A"].Send(protocol.Message{Kind: protocol.MsgReady, TID: tid(1), From: "A", To: "B"})
	atB.waitFor(t, 1, 5*time.Second)

	if !trs["A"].ResetPeer("B") {
		t.Fatal("ResetPeer found no live connection")
	}
	if trs["A"].ResetPeer("nosuch") {
		t.Fatal("ResetPeer invented a peer")
	}

	// Sends keep flowing: the first may be lost to the dead socket, but
	// the writer reconnects and later frames arrive.
	deadline := time.Now().Add(5 * time.Second)
	for i := 2; atB.count() < 2 && time.Now().Before(deadline); i++ {
		trs["A"].Send(protocol.Message{Kind: protocol.MsgReady, TID: tid(i), From: "A", To: "B"})
		time.Sleep(10 * time.Millisecond)
	}
	if atB.count() < 2 {
		t.Fatal("no delivery after ResetPeer; writer did not reconnect")
	}
}
