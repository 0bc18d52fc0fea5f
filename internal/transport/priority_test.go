package transport

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/txn"
)

// newQueueOnlyTCP builds a TCP with one peer and NO goroutines: nothing
// drains the queues, so Send's routing and same-class eviction can be
// observed deterministically.
func newQueueOnlyTCP(depth int) (*TCP, *peer) {
	reg := metrics.NewRegistry()
	p := &peer{
		id: "B", addr: "127.0.0.1:1",
		out:          make(chan protocol.Message, depth),
		crit:         make(chan protocol.Message, depth),
		queueDropped: reg.Counter("transport.queue.dropped", metrics.L("peer", "B")),
	}
	t := &TCP{
		cfg:      TCPConfig{Self: "A", QueueDepth: depth, Metrics: reg},
		series:   newTCPSeries(reg),
		peers:    map[protocol.SiteID]*peer{"B": p},
		handlers: map[protocol.SiteID]Handler{},
		bhandler: map[protocol.SiteID]BatchHandler{},
		down:     map[protocol.SiteID]bool{},
		quit:     make(chan struct{}),
	}
	return t, p
}

func drainQueue(ch chan protocol.Message) []protocol.Message {
	var out []protocol.Message
	for {
		select {
		case m := <-ch:
			out = append(out, m)
		default:
			return out
		}
	}
}

func TestCriticalClassification(t *testing.T) {
	want := map[protocol.MsgKind]bool{
		protocol.MsgComplete:    true,
		protocol.MsgAbort:       true,
		protocol.MsgOutcomeReq:  true,
		protocol.MsgOutcomeInfo: true,
		protocol.MsgOutcomeAck:  true,
		protocol.MsgReadReq:     false,
		protocol.MsgReadRep:     false,
		protocol.MsgPrepare:     false,
		protocol.MsgReady:       false,
		protocol.MsgRefuse:      false,
		protocol.MsgHeartbeat:   false,
	}
	for k, w := range want {
		if got := critical(k); got != w {
			t.Errorf("critical(%v) = %v, want %v", k, got, w)
		}
	}
}

// TestPriorityQueueEvictionIsPerClass: a bulk flood fills and churns the
// bulk queue without ever displacing queued decision traffic, and each
// class keeps its NEWEST window when over capacity.
func TestPriorityQueueEvictionIsPerClass(t *testing.T) {
	const depth = 4
	tr, p := newQueueOnlyTCP(depth)

	// 7 bulk prepares into a depth-4 queue: 3 oldest evicted.
	for i := 0; i < 7; i++ {
		tr.Send(protocol.Message{
			Kind: protocol.MsgPrepare, TID: bulkTID(i), From: "A", To: "B",
		})
	}
	// 5 critical completes into the other queue: 1 oldest evicted.
	for i := 0; i < 5; i++ {
		tr.Send(protocol.Message{
			Kind: protocol.MsgComplete, TID: critTID(i), From: "A", To: "B",
		})
	}

	if got := p.queueDropped.Value(); got != 4 {
		t.Errorf("transport.queue.dropped = %d, want 4 (3 bulk + 1 crit)", got)
	}

	bulk := drainQueue(p.out)
	if len(bulk) != depth {
		t.Fatalf("bulk queue holds %d, want %d", len(bulk), depth)
	}
	for i, m := range bulk {
		if m.Kind != protocol.MsgPrepare || m.TID != bulkTID(i+3) {
			t.Errorf("bulk[%d] = %v %s, want prepare %s (newest window)", i, m.Kind, m.TID, bulkTID(i+3))
		}
	}
	crit := drainQueue(p.crit)
	if len(crit) != depth {
		t.Fatalf("crit queue holds %d, want %d", len(crit), depth)
	}
	for i, m := range crit {
		if m.Kind != protocol.MsgComplete || m.TID != critTID(i+1) {
			t.Errorf("crit[%d] = %v %s, want complete %s (bulk flood must not evict)", i, m.Kind, m.TID, critTID(i+1))
		}
	}
}

func bulkTID(i int) txn.ID { return txn.ID(fmt.Sprintf("bulk-%02d", i)) }
func critTID(i int) txn.ID { return txn.ID(fmt.Sprintf("crit-%02d", i)) }
