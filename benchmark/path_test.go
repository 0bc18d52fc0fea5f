package main

import (
	"math"
	"testing"

	"repro/internal/protocol"
)

// synthetic builds the send/deliver log of one two-participant commit
// coordinated by s0 (which owns no item), all times in nanoseconds:
//
//	submit 0 ── s0 sends read-req 100 ─→ s1 300, s2 350
//	s1 replies 400 → s0 600;  s2 replies 500 → s0 900      (s2 is slower)
//	s0 sends prepare 1000 ─→ s1 1200, s2 1300
//	s1 ready 2200 → s0 2400;  s2 ready 3300 → s0 3600      (s2 synced 1400–3200)
//	s0 sends complete 3700; client wakes 3800
//
// The critical path runs through s2 both times.
func synthetic() (clientEvent, []msgEvent) {
	send := func(at int64, k protocol.MsgKind, from, to protocol.SiteID) msgEvent {
		return msgEvent{at: at, end: at + 10, kind: k, tid: "t1", from: from, to: to}
	}
	recv := func(at int64, k protocol.MsgKind, from, to protocol.SiteID) msgEvent {
		return msgEvent{at: at, deliver: true, kind: k, tid: "t1", from: from, to: to}
	}
	evs := []msgEvent{
		send(100, protocol.MsgReadReq, "s0", "s1"), send(110, protocol.MsgReadReq, "s0", "s2"),
		recv(300, protocol.MsgReadReq, "s0", "s1"), recv(350, protocol.MsgReadReq, "s0", "s2"),
		send(400, protocol.MsgReadRep, "s1", "s0"), send(500, protocol.MsgReadRep, "s2", "s0"),
		recv(600, protocol.MsgReadRep, "s1", "s0"), recv(900, protocol.MsgReadRep, "s2", "s0"),
		send(1000, protocol.MsgPrepare, "s0", "s1"), send(1010, protocol.MsgPrepare, "s0", "s2"),
		recv(1200, protocol.MsgPrepare, "s0", "s1"), recv(1300, protocol.MsgPrepare, "s0", "s2"),
		send(2200, protocol.MsgReady, "s1", "s0"), send(3300, protocol.MsgReady, "s2", "s0"),
		recv(2400, protocol.MsgReady, "s1", "s0"), recv(3600, protocol.MsgReady, "s2", "s0"),
		send(3700, protocol.MsgComplete, "s0", "s1"), send(3710, protocol.MsgComplete, "s0", "s2"),
		// Delivered after the client already has its answer: never on the path.
		recv(3900, protocol.MsgComplete, "s0", "s1"), recv(3950, protocol.MsgComplete, "s0", "s2"),
		send(4000, protocol.MsgOutcomeAck, "s1", "s0"),
	}
	return clientEvent{tid: "t1", coord: "s0", start: 0, submitEnd: 150, done: 3800, committed: true}, evs
}

func TestCriticalPathOnASyntheticLog(t *testing.T) {
	c, evs := synthetic()
	hops := matchHops(evs)
	if len(hops) != 11 {
		t.Fatalf("matched %d hops, want 11 sends", len(hops))
	}
	syncs := map[protocol.SiteID][]interval{"s2": {{1400, 3200}}, "s1": {{1250, 2150}}}
	p := criticalPath(c, hops, syncs)
	want := pathParts{
		client:   100 + 110,             // wake-up 3700→3800, submit 0→110 (the read-req that s2, on the path, answered)
		transit:  240 + 400 + 290 + 300, // read-req→s2, read-rep←s2, prepare→s2, ready←s2
		syncWait: 1800,                  // s2's sync inside its prepare→ready turn
		site:     150 + 110 + 200 + 100, // s2 read turn, s0 read-rep→prepare, s2 prepare→ready minus the sync, s0 ready→complete
		total:    3800,
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"client", p.client, want.client}, {"transit", p.transit, want.transit},
		{"sync", p.syncWait, want.syncWait}, {"site", p.site, want.site},
		{"unaccounted", p.unaccounted, 0}, {"total", p.total, want.total},
	} {
		if f.got != f.want {
			t.Errorf("%s = %v ns, want %v", f.name, f.got, f.want)
		}
	}
	if sum := p.client + p.transit + p.site + p.syncWait + p.unaccounted; sum != p.total {
		t.Errorf("parts sum to %v, total is %v", sum, p.total)
	}
}

// A delivery the wrappers never saw breaks the chain; the remainder
// must surface as unaccounted, not vanish, and the parts still add up.
func TestCriticalPathReportsWhatItCannotSee(t *testing.T) {
	c, evs := synthetic()
	var cut []msgEvent
	for _, e := range evs {
		if e.deliver && e.kind == protocol.MsgPrepare && e.to == "s2" {
			continue
		}
		cut = append(cut, e)
	}
	p := criticalPath(c, matchHops(cut), nil)
	if p.unaccounted <= 0 {
		t.Errorf("unaccounted = %v with a delivery missing, want > 0", p.unaccounted)
	}
	if sum := p.client + p.transit + p.site + p.syncWait + p.unaccounted; math.Abs(sum-p.total) > 1e-6 {
		t.Errorf("parts sum to %v, total is %v", sum, p.total)
	}
}

func TestMatchHopsPairsRetransmissionsInOrder(t *testing.T) {
	evs := []msgEvent{
		{at: 10, end: 11, kind: protocol.MsgComplete, tid: "t", from: "s0", to: "s1"},
		{at: 20, end: 21, kind: protocol.MsgComplete, tid: "t", from: "s0", to: "s1"}, // resend
		{at: 30, deliver: true, kind: protocol.MsgComplete, tid: "t", from: "s0", to: "s1"},
	}
	hops := matchHops(evs)
	if len(hops) != 2 || !hops[0].delivered || hops[0].deliverAt != 30 || hops[1].delivered {
		t.Errorf("hops = %+v, want the first send delivered at 30 and the resend undelivered", hops)
	}
}

func TestSiteTurnsChargeTheLastDelivery(t *testing.T) {
	_, evs := synthetic()
	var s0 []turn
	for _, tn := range siteTurns(matchHops(evs)) {
		if tn.site == "s0" {
			s0 = append(s0, tn)
		}
	}
	// s0 turns: last read-rep 900 → prepare 1000; last ready 3600 → complete 3700.
	if len(s0) != 2 || s0[0] != (turn{"s0", 900, 1000}) || s0[1] != (turn{"s0", 3600, 3700}) {
		t.Errorf("s0 turns = %+v", s0)
	}
}

func TestOverlap(t *testing.T) {
	ivs := []interval{{10, 20}, {30, 40}, {50, 60}}
	for _, c := range []struct{ from, to, want int64 }{
		{0, 5, 0}, {0, 15, 5}, {15, 35, 10}, {0, 100, 30}, {20, 30, 0}, {55, 56, 1},
	} {
		if got := overlap(ivs, c.from, c.to); got != c.want {
			t.Errorf("overlap(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestMedianTransactionPartsAddUp(t *testing.T) {
	var parts []pathParts
	for i := 1; i <= 50; i++ {
		f := float64(i)
		parts = append(parts, pathParts{client: f, transit: 2 * f, site: 3 * f, syncWait: 4 * f, total: 10 * f})
	}
	m := medianTransaction(parts)
	if sum := m.client + m.transit + m.site + m.syncWait + m.unaccounted; math.Abs(sum-m.total) > 1e-9 {
		t.Errorf("median transaction's parts sum to %v, total %v", sum, m.total)
	}
	if m.total < 200 || m.total > 310 { // the 40th–60th percentile band of 10…500
		t.Errorf("median transaction total = %v, want the middle of the distribution", m.total)
	}
}
