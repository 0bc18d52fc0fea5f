package trace

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestSpanLogBasics(t *testing.T) {
	l := NewSpanLog(10)
	id := l.Record(Span{TID: "t1", Site: "A", Kind: "txn", Start: 1, End: 5})
	if id == 0 {
		t.Fatal("Record assigned zero ID")
	}
	if l.Len() != 1 || l.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 1, 0", l.Len(), l.Dropped())
	}
	spans := l.Spans()
	if len(spans) != 1 || spans[0].TID != "t1" || spans[0].ID != id {
		t.Fatalf("Spans() = %+v", spans)
	}
}

func TestSpanLogWrapAround(t *testing.T) {
	l := NewSpanLog(4)
	for i := 0; i < 10; i++ {
		l.Record(Span{TID: fmt.Sprintf("t%d", i), Site: "A", Kind: "txn"})
	}
	if l.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", l.Dropped())
	}
	spans := l.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		want := fmt.Sprintf("t%d", 6+i)
		if s.TID != want {
			t.Fatalf("span %d = %s, want %s (oldest-first order)", i, s.TID, want)
		}
	}
}

func TestSpanLogByTID(t *testing.T) {
	l := NewSpanLog(16)
	l.Record(Span{TID: "a", Site: "A", Kind: "txn"})
	l.Record(Span{TID: "b", Site: "A", Kind: "txn"})
	l.Record(Span{TID: "a", Site: "B", Kind: "part.compute"})
	got := l.ByTID("a")
	if len(got) != 2 || got[0].Site != "A" || got[1].Site != "B" {
		t.Fatalf("ByTID(a) = %+v", got)
	}
	if len(l.ByTID("missing")) != 0 {
		t.Fatal("ByTID(missing) should be empty")
	}
}

func TestSpanLogSiteSaltedIDs(t *testing.T) {
	a, b := NewSpanLogFor("A", 8), NewSpanLogFor("B", 8)
	seen := map[SpanID]bool{}
	for i := 0; i < 8; i++ {
		for _, l := range []*SpanLog{a, b} {
			id := l.NextID()
			if id == 0 || seen[id] {
				t.Fatalf("ID %d zero or colliding across sites", id)
			}
			seen[id] = true
		}
	}
}

// TestSpanLogConcurrent hammers Record/Spans/Dropped from many
// goroutines; run with -race to catch unsynchronized access.
func TestSpanLogConcurrent(t *testing.T) {
	l := NewSpanLogFor("X", 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(Span{TID: fmt.Sprintf("g%d-%d", g, i), Site: "X", Kind: "txn"})
				if i%16 == 0 {
					l.Spans()
					l.Dropped()
					l.ByTID("g0-0")
				}
			}
		}(g)
	}
	wg.Wait()
	if got := l.Len() + l.Dropped(); got != 8*200 {
		t.Fatalf("retained+dropped = %d, want 1600", got)
	}
}

func TestSpanLogInstrument(t *testing.T) {
	reg := metrics.NewRegistry()
	l := NewSpanLog(2)
	for i := 0; i < 5; i++ {
		l.Record(Span{TID: "t", Site: "A", Kind: "txn"})
	}
	l.Instrument(reg, metrics.L("site", "A"))
	snap := reg.Snapshot()
	if v := snap.Counter("trace.spans.dropped", metrics.L("site", "A")); v != 3 {
		t.Fatalf("trace.spans.dropped = %d, want 3", v)
	}
	if v := snap.Counter("trace.spans.retained", metrics.L("site", "A")); v != 2 {
		t.Fatalf("trace.spans.retained = %d, want 2", v)
	}
}
