package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/txn"
)

// Tracing from outside the program.  A traced run hands every node a
// tracedTransport in place of its *transport.TCP; the wrapper counts
// every message by kind and, for one transaction in sampleEvery (chosen
// by a hash of the transaction ID, so all of a transaction's messages
// are kept or dropped together on every site), timestamps each Send and
// each delivery.  Clients add their own submit/done timestamps for the
// same sample.  Everything is kept in memory and turned into spans and
// per-layer numbers after the window closes.

const sampleEvery = 16

// captureMsgs bounds how many real messages a traced run keeps as the
// input of the wire codec kernels.
const captureMsgs = 512

// capturePolys bounds how many polyvalues the chaser keeps as the input
// of the polyvalue kernels.
const capturePolys = 64

func sampled(tid txn.ID) bool {
	return tid != "" && fnv32(string(tid))%sampleEvery == 0
}

func fnv32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// msgEvent is one Send or one delivery of a sampled transaction's
// message.  at is when the call started; for a send, end is when the
// inner transport's Send returned.
type msgEvent struct {
	at, end  int64
	deliver  bool
	kind     protocol.MsgKind
	tid      txn.ID
	from, to protocol.SiteID
}

// clientEvent is the client boundary of one sampled transaction.
type clientEvent struct {
	tid       txn.ID
	coord     protocol.SiteID
	start     int64 // submit call begins (closed loop) or the request was due (open loop)
	submitEnd int64 // SubmitProgram returned
	done      int64 // Handle.Wait returned
	committed bool
}

// recorder collects one traced run's raw observations.  armed gates
// recording to the measured window, so warm-up traffic is not in the
// numbers.
type recorder struct {
	armed     atomic.Bool
	sent      [32]atomic.Int64 // messages sent, by kind, sampled or not
	wireBytes atomic.Int64     // encoded frame bytes seen by the TCP frame tap

	mu       sync.Mutex
	msgs     []msgEvent
	clients  []clientEvent
	captured []protocol.Message
}

func (r *recorder) client(ev clientEvent) {
	r.mu.Lock()
	r.clients = append(r.clients, ev)
	r.mu.Unlock()
}

// tracedTransport wraps one node's transport.  It implements
// transport.BatchReceiver so the cluster keeps its whole-frame delivery
// path exactly as in the untraced run.
type tracedTransport struct {
	inner *transport.TCP
	rec   *recorder
}

func newTracedTransport(inner *transport.TCP, rec *recorder) *tracedTransport {
	inner.SetFrameTap(func(_ protocol.SiteID, frame []byte) []byte {
		if rec.armed.Load() {
			rec.wireBytes.Add(int64(len(frame)))
		}
		return frame
	})
	return &tracedTransport{inner: inner, rec: rec}
}

func (t *tracedTransport) Send(msg protocol.Message) {
	r := t.rec
	if !r.armed.Load() {
		t.inner.Send(msg)
		return
	}
	if int(msg.Kind) < len(r.sent) {
		r.sent[msg.Kind].Add(1)
	}
	if !sampled(msg.TID) {
		t.inner.Send(msg)
		return
	}
	t0 := nowNS()
	t.inner.Send(msg)
	t1 := nowNS()
	r.mu.Lock()
	r.msgs = append(r.msgs, msgEvent{at: t0, end: t1, kind: msg.Kind, tid: msg.TID, from: msg.From, to: msg.To})
	if len(r.captured) < captureMsgs {
		r.captured = append(r.captured, msg)
	}
	r.mu.Unlock()
}

func (t *tracedTransport) delivered(msg protocol.Message) {
	if !t.rec.armed.Load() || !sampled(msg.TID) {
		return
	}
	now := nowNS()
	t.rec.mu.Lock()
	t.rec.msgs = append(t.rec.msgs, msgEvent{at: now, deliver: true, kind: msg.Kind, tid: msg.TID, from: msg.From, to: msg.To})
	t.rec.mu.Unlock()
}

func (t *tracedTransport) Register(site protocol.SiteID, h transport.Handler) {
	t.inner.Register(site, func(msg protocol.Message) {
		t.delivered(msg)
		h(msg)
	})
}

func (t *tracedTransport) RegisterBatch(site protocol.SiteID, h transport.BatchHandler) {
	t.inner.RegisterBatch(site, func(msgs []protocol.Message) {
		for i := range msgs {
			t.delivered(msgs[i])
		}
		h(msgs)
	})
}

func (t *tracedTransport) SetDown(site protocol.SiteID, down bool) { t.inner.SetDown(site, down) }
func (t *tracedTransport) IsDown(site protocol.SiteID) bool        { return t.inner.IsDown(site) }
func (t *tracedTransport) Close() error                            { return t.inner.Close() }

var (
	_ transport.Transport     = (*tracedTransport)(nil)
	_ transport.BatchReceiver = (*tracedTransport)(nil)
)

// ---------------------------------------------------------------------
// Reconstruction
// ---------------------------------------------------------------------

// hop is one message matched send → delivery.
type hop struct {
	kind             protocol.MsgKind
	from, to         protocol.SiteID
	sendAt, sendEnd  int64
	deliverAt        int64
	delivered, local bool // local: from == to (loopback, no socket)
}

// matchHops pairs each delivery of one transaction with the earliest
// unmatched send of the same (kind, from, to); retransmissions pair in
// order.  Sends never delivered come back with delivered=false.
func matchHops(evs []msgEvent) []hop {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var hops []hop
	for _, e := range evs {
		if !e.deliver {
			hops = append(hops, hop{kind: e.kind, from: e.from, to: e.to,
				sendAt: e.at, sendEnd: e.end, local: e.from == e.to})
			continue
		}
		for i := range hops {
			h := &hops[i]
			if !h.delivered && h.kind == e.kind && h.from == e.from && h.to == e.to {
				h.delivered, h.deliverAt = true, e.at
				break
			}
		}
	}
	return hops
}

// pathParts splits one committed transaction's client-observed latency
// (nanoseconds) along its critical path.  The parts always sum to
// total: whatever the walk cannot attribute lands in unaccounted.
type pathParts struct {
	client, transit, site, syncWait, unaccounted, total float64
}

// causedBy is the commit path read backwards: the delivery a site must
// have seen before it could send a message of kind k (0: none — the
// coordinator sends it on the client's submit).  Decisions, acks and
// outcome traffic leave after the client has its answer and are never
// on its path.
func causedBy(k protocol.MsgKind) protocol.MsgKind {
	switch k {
	case protocol.MsgReady:
		return protocol.MsgPrepare
	case protocol.MsgPrepare:
		return protocol.MsgReadRep
	case protocol.MsgReadRep:
		return protocol.MsgReadReq
	}
	return 0
}

// criticalPath walks one committed transaction backwards from the
// moment the client's Wait returned.  The coordinator decided on its
// last ready; at each step the walk finds, at the current site, the
// last delivery of the kind that must have caused the send it is
// standing on: the stretch from that delivery to the current point is
// time the site held the transaction (split into the part overlapping
// one of that site's WAL syncs, and the rest), the stretch from the
// message's send to its delivery is transit, and the walk continues at
// the sender.  It ends at the coordinator's first send; from the submit
// to there is the client's (less any sync the submit call waited out).
// The coordinator's first decision message, when it left before the
// client woke, marks where site time ends and client wake-up begins.  A
// transaction with no messages at all (both accounts on the
// coordinator: one-phase local commit) is all client time — the
// boundary cannot see inside it.  If the chain breaks — a delivery the
// wrappers never saw — everything before the break is unaccounted.
func criticalPath(c clientEvent, hops []hop, syncs map[protocol.SiteID][]interval) pathParts {
	p := pathParts{total: float64(c.done - c.start)}
	if len(hops) == 0 {
		p.client = p.total
		return p
	}
	cur, site := c.done, c.coord
	for _, h := range hops {
		decision := h.kind == protocol.MsgComplete || h.kind == protocol.MsgAbort
		if decision && h.from == c.coord && h.sendAt >= c.start && h.sendAt < cur {
			cur = h.sendAt
		}
	}
	p.client = float64(c.done - cur)
	need := protocol.MsgReady
	for need != 0 {
		var last *hop
		for i := range hops {
			h := &hops[i]
			if h.delivered && h.to == site && h.kind == need && h.deliverAt <= cur && h.sendAt >= c.start &&
				(last == nil || h.deliverAt > last.deliverAt) {
				last = h
			}
		}
		if last == nil {
			break
		}
		held := float64(cur - last.deliverAt)
		wait := float64(overlap(syncs[site], last.deliverAt, cur))
		p.syncWait += wait
		p.site += held - wait
		p.transit += float64(last.deliverAt - last.sendAt)
		cur, site, need = last.sendAt, last.from, causedBy(last.kind)
	}
	// need == MsgReadRep here means a transaction that read nothing and
	// went straight to prepare.
	if site == c.coord && cur >= c.start && (need == 0 || need == protocol.MsgReadRep) {
		// Submit → the coordinator's first send.  On a durable site the
		// submit call itself waits out syncs (output commit holds the
		// first sends back); that part is the log's, the rest the
		// client's.
		wait := float64(overlap(syncs[site], c.start, cur))
		p.syncWait += wait
		p.client += float64(cur-c.start) - wait
	}
	p.unaccounted = p.total - p.client - p.transit - p.site - p.syncWait
	return p
}

// overlap is how much of [from,to) is covered by the (non-overlapping,
// ascending) intervals.
func overlap(ivs []interval, from, to int64) int64 {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].end > from })
	var sum int64
	for ; i < len(ivs) && ivs[i].start < to; i++ {
		s, e := ivs[i].start, ivs[i].end
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			sum += e - s
		}
	}
	return sum
}

// turn is one site turn-around: a delivery and the first send the same
// site makes for the transaction afterwards.
type turn struct {
	site       protocol.SiteID
	start, end int64
}

// siteTurns returns one transaction's turn-arounds.  A send preceded by
// several deliveries (the coordinator collecting replies) is charged to
// the last of them, the one it was waiting for.
func siteTurns(hops []hop) []turn {
	type ev struct {
		at      int64
		deliver bool
		site    protocol.SiteID
	}
	var evs []ev
	for _, h := range hops {
		evs = append(evs, ev{h.sendAt, false, h.from})
		if h.delivered {
			evs = append(evs, ev{h.deliverAt, true, h.to})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	lastDeliver := map[protocol.SiteID]int64{}
	var turns []turn
	for _, e := range evs {
		if e.deliver {
			lastDeliver[e.site] = e.at
		} else if at, ok := lastDeliver[e.site]; ok {
			turns = append(turns, turn{e.site, at, e.at})
			delete(lastDeliver, e.site)
		}
	}
	return turns
}

// ---------------------------------------------------------------------
// Span file
// ---------------------------------------------------------------------

// span is one line of benchmark/out/trace-<workload>.jsonl.  Times are
// nanoseconds since process start; spans of one transaction share tid.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	TID    string `json:"tid,omitempty"`
	Name   string `json:"name"`
	Site   string `json:"site,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// writeSpans renders the sampled transactions as span trees: a root
// "txn" span per client event, a "submit" child for the SubmitProgram
// call, a "transit:<kind>" child per delivered message and a "turn"
// child per site turn-around; WAL syncs are parentless "sync" spans.
func writeSpans(path string, clients []clientEvent, hopsByTID map[txn.ID][]hop, syncs map[protocol.SiteID][]interval) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	emit := func(s span) {
		id++
		s.ID = id
		if err == nil {
			err = enc.Encode(s)
		}
	}
	for _, c := range clients {
		emit(span{TID: string(c.tid), Name: "txn", Site: string(c.coord), Start: c.start, End: c.done})
		root := id
		emit(span{Parent: root, TID: string(c.tid), Name: "submit", Site: string(c.coord), Start: c.start, End: c.submitEnd})
		for _, h := range hopsByTID[c.tid] {
			if h.delivered {
				emit(span{Parent: root, TID: string(c.tid), Name: "transit:" + h.kind.String(),
					Site: string(h.to), Start: h.sendAt, End: h.deliverAt})
			}
		}
		for _, t := range siteTurns(hopsByTID[c.tid]) {
			emit(span{Parent: root, TID: string(c.tid), Name: "turn", Site: string(t.site), Start: t.start, End: t.end})
		}
	}
	for site, ivs := range syncs {
		for _, iv := range ivs {
			emit(span{Name: "sync", Site: string(site), Start: iv.start, End: iv.end})
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
