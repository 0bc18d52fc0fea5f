package transport

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// newBatcher builds a Batcher over a deterministic simulated fabric.
func newBatcher(p BatchParams) (*Batcher, *vclock.Scheduler, *collector) {
	sched := vclock.NewScheduler()
	inner := NewSim(network.New(sched, network.Config{Seed: 9}))
	b := NewBatcher(inner, sched, p)
	var sink collector
	b.Register("B", sink.handle)
	return b, sched, &sink
}

func batchMsg(i int) protocol.Message {
	return protocol.Message{Kind: protocol.MsgReadReq, TID: tid(i), From: "A", To: "B"}
}

func TestBatcherCountFlush(t *testing.T) {
	reg := metrics.NewRegistry()
	b, sched, sink := newBatcher(BatchParams{MaxCount: 3, Metrics: reg})
	defer b.Close()

	// The count bound flushes inside Send: no scheduler turn is needed,
	// and the flush disarms the queue's pending drain.
	for i := 0; i < 3; i++ {
		b.Send(batchMsg(i))
	}
	if got := reg.Counter("transport.batch.flushes", metrics.L("reason", "count")).Value(); got != 1 {
		t.Fatalf("flushes{reason=count} = %d before any scheduler turn, want 1", got)
	}
	sched.Drain(0)
	msgs := sink.msgs
	if len(msgs) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.TID != tid(i) {
			t.Fatalf("message %d out of order: %s", i, m.TID)
		}
	}
	if got := reg.Counter("transport.batch.flushes", metrics.L("reason", "drain")).Value(); got != 0 {
		t.Errorf("flushes{reason=drain} = %d, want 0 (count flush left a drain armed)", got)
	}
	if h := reg.Histogram("transport.batch.size"); h.Count() != 1 || h.Max() != 3 {
		t.Errorf("batch.size: count=%d max=%v, want one sample of 3", h.Count(), h.Max())
	}
}

// TestBatcherDrainFlush: a partial batch leaves at the simulated instant
// it was first written — after the emitting event returns, so messages
// sent in one turn coalesce — and never later: the Batcher models a
// writer on the hops where it does not linger.
func TestBatcherDrainFlush(t *testing.T) {
	reg := metrics.NewRegistry()
	b, sched, sink := newBatcher(BatchParams{MaxCount: 100, Metrics: reg})
	defer b.Close()

	sched.RunUntil(3 * time.Millisecond)
	b.Send(batchMsg(0))
	b.Send(batchMsg(1))
	drains := reg.Counter("transport.batch.flushes", metrics.L("reason", "drain"))
	if got := drains.Value(); got != 0 {
		t.Fatalf("flushes{reason=drain} = %d inside the emitting turn, want 0", got)
	}
	if !sched.Step() {
		t.Fatal("no drain scheduled for a partial batch")
	}
	if got := drains.Value(); got != 1 {
		t.Fatalf("flushes{reason=drain} = %d after one scheduler step, want 1", got)
	}
	if now := sched.Now(); now != 3*time.Millisecond {
		t.Fatalf("drain fired at %v, want the instant of the first send (3ms)", now)
	}
	if h := reg.Histogram("transport.batch.size"); h.Count() != 1 || h.Max() != 2 {
		t.Errorf("batch.size: count=%d max=%v, want one sample of 2", h.Count(), h.Max())
	}
	sched.Drain(0)
	if n := sink.count(); n != 2 {
		t.Fatalf("delivered %d messages after the drain flush, want 2", n)
	}
	if _, ok := reg.Snapshot().Get("transport.batch.flushes", metrics.L("reason", "delay")); ok {
		t.Error(`a Batcher registered transport.batch.flushes{reason="delay"}: it has nothing that lingers`)
	}
}

func TestBatcherSizeFlush(t *testing.T) {
	reg := metrics.NewRegistry()
	b, sched, sink := newBatcher(BatchParams{MaxCount: 1000, MaxBytes: 64, Metrics: reg})
	defer b.Close()

	// Bulky values push past 64 encoded bytes within a few sends.
	for i := 0; i < 4; i++ {
		m := batchMsg(i)
		m.Values = map[string]polyvalue.Poly{"acct": samplePoly(t)}
		b.Send(m)
	}
	sched.Drain(0)
	if sink.count() == 0 {
		t.Fatal("size bound never flushed")
	}
	if got := reg.Counter("transport.batch.flushes", metrics.L("reason", "size")).Value(); got == 0 {
		t.Error("flushes{reason=size} = 0")
	}
}

// TestBatcherFlushClose: explicit Flush drains pending queues, Close
// flushes the remainder before shutting the inner fabric, and sends
// after Close are silent no-ops.
func TestBatcherFlushClose(t *testing.T) {
	b, sched, sink := newBatcher(BatchParams{MaxCount: 100})

	b.Send(batchMsg(0))
	b.Flush()
	if p := sched.Pending(); p != 1 { // the message in flight, not a drain timer
		t.Fatalf("%d events pending after Flush, want 1", p)
	}
	sched.Drain(0)
	if n := sink.count(); n != 1 {
		t.Fatalf("Flush delivered %d, want 1", n)
	}

	b.Send(batchMsg(1))
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sched.Drain(0)
	if n := sink.count(); n != 2 {
		t.Fatalf("Close flushed to %d messages, want 2", n)
	}
	b.Send(batchMsg(2))
	sched.Drain(0)
	if n := sink.count(); n != 2 {
		t.Fatalf("send after Close delivered (%d messages)", n)
	}
}

// TestBatcherSingleMessageMode: MaxCount=1 degenerates to pass-through
// with no timers pending.
func TestBatcherSingleMessageMode(t *testing.T) {
	b, sched, sink := newBatcher(BatchParams{MaxCount: 1})
	defer b.Close()
	for i := 0; i < 5; i++ {
		b.Send(batchMsg(i))
	}
	sched.Drain(0)
	if n := sink.count(); n != 5 {
		t.Fatalf("delivered %d, want 5", n)
	}
	if p := sched.Pending(); p != 0 {
		t.Fatalf("%d timers left pending in pass-through mode", p)
	}
}
