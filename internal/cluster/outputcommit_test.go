package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/value"
)

// gateFS is a storage.FS whose Sync the test holds: once shut, every
// sync blocks until the test lets one through (pass), fails one (fail),
// or opens the gate for good.
type gateFS struct {
	storage.FS
	mu     sync.Mutex
	closed bool
	tokens chan error // nil: the sync succeeds
}

func newGateFS() *gateFS { return &gateFS{FS: storage.OSFS} }

func (g *gateFS) OpenAppend(path string) (storage.File, error) {
	f, err := g.FS.OpenAppend(path)
	return &gateFile{File: f, g: g}, err
}

type gateFile struct {
	storage.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.mu.Lock()
	tokens := f.g.tokens
	f.g.mu.Unlock()
	if tokens != nil {
		if err := <-tokens; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

func (g *gateFS) shut() {
	g.mu.Lock()
	g.tokens = make(chan error)
	g.mu.Unlock()
}

// pass lets exactly one sync through; it returns once a sync took it.
func (g *gateFS) pass() { g.tokens <- nil }

// fail makes exactly one sync return err.
func (g *gateFS) fail(err error) { g.tokens <- err }

// open lets every sync through from here on.  Idempotent.
func (g *gateFS) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tokens != nil && !g.closed {
		g.closed = true
		close(g.tokens)
	}
}

// tapNet is an in-memory fabric for wall-clock nodes that records every
// message leaving a site, in order.
type tapNet struct {
	mu       sync.Mutex
	handlers map[protocol.SiteID]transport.Handler
	down     map[protocol.SiteID]bool
	sent     []protocol.Message
}

func (n *tapNet) Send(msg protocol.Message) {
	n.mu.Lock()
	h := n.handlers[msg.To]
	if n.down[msg.From] || n.down[msg.To] {
		h = nil
	} else {
		n.sent = append(n.sent, msg)
	}
	n.mu.Unlock()
	if h != nil {
		h(msg)
	}
}

func (n *tapNet) Register(site protocol.SiteID, h transport.Handler) {
	n.mu.Lock()
	n.handlers[site] = h
	n.mu.Unlock()
}

func (n *tapNet) SetDown(site protocol.SiteID, down bool) {
	n.mu.Lock()
	n.down[site] = down
	n.mu.Unlock()
}

func (n *tapNet) IsDown(site protocol.SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[site]
}

func (n *tapNet) Close() error { return nil }

// left counts the messages of one kind and transaction that have left
// site from.
func (n *tapNet) left(from protocol.SiteID, kind protocol.MsgKind, tid txn.ID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, m := range n.sent {
		if m.From == from && m.Kind == kind && m.TID == tid {
			c++
		}
	}
	return c
}

// queryID finds the ID of the query reading item from the read request
// that left site from (a QueryHandle does not carry it).
func (n *tapNet) queryID(from protocol.SiteID, item string) (txn.ID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, m := range n.sent {
		if m.From == from && m.Kind == protocol.MsgReadReq && !m.Update && len(m.Items) == 1 && m.Items[0] == item {
			return m.TID, true
		}
	}
	return "", false
}

// gateRig is sites A, B and C as wall-clock nodes on a tapNet, each on
// its own gated disk.  Protocol timeouts are far beyond the test so a
// shut gate parks outputs without any timer resolving the transaction
// around them.  lanes goes to Config.Lanes, which the engine ignores.
type gateRig struct {
	t     *testing.T
	net   *tapNet
	nodes map[protocol.SiteID]*Cluster
	disks map[protocol.SiteID]*gateFS
}

func newGateRig(t *testing.T, lanes int) *gateRig {
	t.Helper()
	r := &gateRig{
		t:     t,
		net:   &tapNet{handlers: map[protocol.SiteID]transport.Handler{}, down: map[protocol.SiteID]bool{}},
		nodes: map[protocol.SiteID]*Cluster{},
		disks: map[protocol.SiteID]*gateFS{},
	}
	dir := t.TempDir()
	for _, id := range []protocol.SiteID{"A", "B", "C"} {
		r.disks[id] = newGateFS()
		node, err := NewNode(Config{
			Sites:          []protocol.SiteID{"A", "B", "C"},
			Placement:      abcPlacement,
			WaitTimeout:    time.Minute,
			ReadyTimeout:   time.Minute,
			AdmissionLimit: 8,
			DataDir:        dir,
			SyncWAL:        true,
			Lanes:          lanes,
			DiskFS:         r.disks[id],
		}, id, r.net)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		r.nodes[id] = node
	}
	t.Cleanup(func() {
		for id, n := range r.nodes {
			r.disks[id].open()
			n.Close()
		}
	})
	return r
}

// eventually polls cond; the rig's positive assertions all wait on it.
func (r *gateRig) eventually(what string, cond func() bool) {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("never happened: %s", what)
		}
	}
}

// drained returns once site's queue has finished every event queued so
// far: whatever those events staged has by then left or is parked, so
// "has not left" can be asserted without a sleep.  With the queue
// goroutine asleep on the disk this would not return.
func (r *gateRig) drained(site protocol.SiteID) {
	r.t.Helper()
	s := r.nodes[site].sites[site]
	done := make(chan struct{})
	go func() {
		s.enqueue(siteEvent{fn: func() {}}, wait)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		r.t.Fatalf("site %s: the queue is stuck behind a parked batch", site)
	}
}

// TestOutputCommitGate holds every site's disk shut and watches what
// leaves: messages that externalize nothing the site logged go at once,
// everything else exactly when the sync it depends on completes.  The
// cases run with Config.Lanes at 1 and at 4: the benchmark harness still
// sets the knob, and it must change nothing.
func TestOutputCommitGate(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d/two-forces", lanes), func(t *testing.T) { gateTwoForces(t, lanes) })
		t.Run(fmt.Sprintf("lanes=%d/read-rep", lanes), func(t *testing.T) { gateReadRep(t, lanes) })
		t.Run(fmt.Sprintf("lanes=%d/head-of-line", lanes), func(t *testing.T) { gateHeadOfLine(t, lanes) })
		t.Run(fmt.Sprintf("lanes=%d/sync-failure", lanes), func(t *testing.T) { gateSyncFailure(t, lanes) })
		t.Run(fmt.Sprintf("lanes=%d/crash-while-parked", lanes), func(t *testing.T) { gateCrashWhileParked(t, lanes) })
	}
	t.Run("frame-parks-per-message", func(t *testing.T) { gateFrameParksPerMessage(t, 0) })
	t.Run("source-values-leave-early", func(t *testing.T) { gateSourceValues(t, 0) })
	t.Run("send-before-write-waits", func(t *testing.T) { gateSendBeforeWrite(t, 0) })
}

// gateTwoForces: a transfer's read and prepare rounds cross three shut
// disks; the participants' readies need one sync each, the decision one
// more, and nothing else waits.
func gateTwoForces(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	a, net := r.nodes["A"], r.net
	loadInt(t, r.nodes["B"], "bsrc", 100)
	loadInt(t, r.nodes["C"], "cdst", 0)
	for _, d := range r.disks {
		d.shut()
	}
	// Submit waits for its event's effects to leave: returning at all
	// says the read requests did not wait for a disk.  Each share reads
	// the other site's item, so the read round runs.
	h, err := a.Submit("A", "bsrc = bsrc - 40 if cdst >= 0; cdst = cdst + 40 if bsrc >= 40")
	if err != nil {
		t.Fatal(err)
	}
	tid := h.TID
	r.eventually("prepares leave A with every gate shut", func() bool {
		return net.left("A", protocol.MsgPrepare, tid) == 2
	})
	if n := net.left("A", protocol.MsgReadReq, tid); n != 2 {
		t.Fatalf("%d read-reqs left A, want 2", n)
	}
	if b, c := net.left("B", protocol.MsgReadRep, tid), net.left("C", protocol.MsgReadRep, tid); b != 1 || c != 1 {
		t.Fatalf("read-reps left B/C: %d/%d, want 1/1", b, c)
	}
	parts := []protocol.SiteID{"B", "C"}
	for _, p := range parts {
		r.eventually("prepared record written at "+string(p), func() bool {
			info, _ := r.nodes[p].SiteInfo(p)
			return info.Prepared == 1
		})
		r.drained(p)
		if n := net.left(p, protocol.MsgReady, tid); n != 0 {
			t.Fatalf("%s declared ready before its prepared record was synced", p)
		}
	}
	if h.Status() != StatusPending {
		t.Fatalf("client decision %v with no ready out", h.Status())
	}

	// First force: the prepared records.
	for _, p := range parts {
		r.disks[p].pass()
		r.eventually("ready leaves "+string(p)+" after one sync", func() bool {
			return net.left(p, protocol.MsgReady, tid) == 1
		})
	}
	r.eventually("decision logged at A", func() bool {
		_, known := a.Store("A").Outcome(tid)
		return known
	})
	r.drained("A")
	if n := net.left("A", protocol.MsgComplete, tid); n != 0 || h.Status() != StatusPending {
		t.Fatalf("before the decision record is synced: %d completes out, client sees %v", n, h.Status())
	}

	// Second force: the decision record.
	r.disks["A"].pass()
	if st, done := h.Wait(10 * time.Second); !done || st != StatusCommitted {
		t.Fatalf("after the decision sync: %v done=%v (%s)", st, done, h.Reason())
	}
	r.eventually("completes leave A", func() bool { return net.left("A", protocol.MsgComplete, tid) == 2 })
	for _, p := range parts {
		r.eventually("outcome installed at "+string(p), func() bool {
			_, known := r.nodes[p].Store(p).Outcome(tid)
			return known
		})
		r.drained(p)
		if n := net.left(p, protocol.MsgOutcomeAck, tid); n != 0 {
			t.Fatalf("%s acknowledged an outcome it has not synced", p)
		}
		r.disks[p].open()
		r.eventually("outcome-ack leaves "+string(p), func() bool {
			return net.left(p, protocol.MsgOutcomeAck, tid) == 1
		})
	}
	if b, c := readInt(t, r.nodes["B"], "bsrc"), readInt(t, r.nodes["C"], "cdst"); b != 60 || c != 40 {
		t.Fatalf("bsrc=%d cdst=%d, want 60/40", b, c)
	}
}

// gateReadRep: a read reply waits for the install of the items it
// returns and for nothing else.
func gateReadRep(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	a, b := r.nodes["A"], r.nodes["B"]
	loadInt(t, b, "bfresh", 1)
	loadInt(t, b, "bquiet", 7)
	r.disks["B"].shut()
	// An install whose frame the disk has not taken: Load itself waits
	// for it, so it runs beside the test.
	loaded := make(chan error, 1)
	go func() { loaded <- b.Load("bfresh", polyvalue.Simple(value.Int(2))) }()
	r.eventually("bfresh installed in memory", func() bool {
		v, _ := b.Read("bfresh").IsCertain()
		return v == value.Int(2)
	})

	quiet, err := a.Query("A", "bquiet")
	if err != nil {
		t.Fatal(err)
	}
	if p, qerr, done := quiet.Wait(10 * time.Second); !done || qerr != nil || !p.Equal(polyvalue.Simple(value.Int(7))) {
		t.Fatalf("query on an untouched item behind a shut gate: %v err=%v done=%v", p, qerr, done)
	}

	fresh, err := a.Query("A", "bfresh")
	if err != nil {
		t.Fatal(err)
	}
	var qid txn.ID
	r.eventually("read-req for bfresh reaches B", func() (ok bool) {
		qid, ok = r.net.queryID("A", "bfresh")
		return ok
	})
	r.drained("B")
	if n := r.net.left("B", protocol.MsgReadRep, qid); n != 0 {
		t.Fatal("B revealed a value whose install frame is not synced")
	}
	r.disks["B"].pass()
	if p, qerr, done := fresh.Wait(10 * time.Second); !done || qerr != nil || !p.Equal(polyvalue.Simple(value.Int(2))) {
		t.Fatalf("query after the install synced: %v err=%v done=%v", p, qerr, done)
	}
	if err := <-loaded; err != nil {
		t.Fatalf("load: %v", err)
	}
}

// gateHeadOfLine: the queue whose event is parked keeps serving other
// transactions.
func gateHeadOfLine(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	loadInt(t, r.nodes["B"], "bsrc", 100)
	loadInt(t, r.nodes["B"], "bquiet", 7)
	loadInt(t, r.nodes["C"], "cdst", 0)
	r.disks["B"].shut()
	h, err := r.nodes["A"].Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	if err != nil {
		t.Fatal(err)
	}
	r.eventually("prepared record written at B", func() bool {
		info, _ := r.nodes["B"].SiteInfo("B")
		return info.Prepared == 1
	})
	// Another transaction on the queue that parked the ready.
	other := txn.ID("other")
	r.net.Send(protocol.Message{Kind: protocol.MsgReadReq, TID: other, From: "A", To: "B",
		Items: []string{"bquiet"}, Coordinator: "A"})
	r.eventually("B answers another transaction on the parked queue", func() bool {
		return r.net.left("B", protocol.MsgReadRep, other) == 1
	})
	if n := r.net.left("B", protocol.MsgReady, h.TID); n != 0 {
		t.Fatal("the parked ready left with B's gate shut")
	}
	r.disks["B"].open()
	if st, done := h.Wait(10 * time.Second); !done || st != StatusCommitted {
		t.Fatalf("after opening the gate: %v done=%v (%s)", st, done, h.Reason())
	}
}

// gateFrameParksPerMessage: one frame, two messages.  The first must
// wait for the disk — an abort for a transaction B has never seen logs
// its outcome, and the outcome-ack depends on that record.  The second
// depends on nothing unsynced — an update's read of an item B loaded
// before the gate shut — so its reply leaves at once instead of behind
// its frame-mate.
func gateFrameParksPerMessage(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	loadInt(t, r.nodes["B"], "bquiet", 7)
	r.disks["B"].shut()
	aborted, reader := txn.ID("aborted"), txn.ID("reader")
	r.nodes["B"].sites["B"].onMessageBatch([]protocol.Message{
		{Kind: protocol.MsgAbort, TID: aborted, From: "A", To: "B"},
		{Kind: protocol.MsgReadReq, TID: reader, From: "A", To: "B",
			Items: []string{"bquiet"}, Coordinator: "A", Update: true},
	})
	r.eventually("the read-rep leaves B with its gate shut", func() bool {
		return r.net.left("B", protocol.MsgReadRep, reader) == 1
	})
	r.drained("B")
	if n := r.net.left("B", protocol.MsgOutcomeAck, aborted); n != 0 {
		t.Fatal("B acknowledged an abort whose outcome record is not synced")
	}
	r.disks["B"].open()
	r.eventually("the outcome-ack leaves B after the sync", func() bool {
		return r.net.left("B", protocol.MsgOutcomeAck, aborted) == 1
	})
}

// gateSourceValues: a chain's source stages the values its sink reads
// before it logs its prepared record, so they leave with its gate shut
// and the sink is prepared; its ready waits for the sync.
func gateSourceValues(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	net := r.net
	loadInt(t, r.nodes["B"], "bsrc", 100)
	loadInt(t, r.nodes["C"], "cdst", 0)
	r.disks["B"].shut()
	h, err := r.nodes["A"].Submit("A", "bsrc = bsrc - 40 if bsrc >= 40; cdst = cdst + 40 if bsrc >= 40")
	if err != nil {
		t.Fatal(err)
	}
	tid := h.TID
	r.eventually("B's values leave with its gate shut", func() bool {
		return net.left("B", protocol.MsgReadRep, tid) == 1
	})
	r.eventually("the sink's prepare leaves A", func() bool {
		return net.left("A", protocol.MsgPrepare, tid) == 2
	})
	if info, _ := r.nodes["B"].SiteInfo("B"); info.Prepared != 1 {
		t.Fatalf("B holds %d prepared records, want its own", info.Prepared)
	}
	r.drained("B")
	if n := net.left("B", protocol.MsgReady, tid); n != 0 {
		t.Fatal("B declared ready before its prepared record was synced")
	}
	r.disks["B"].open()
	if st, done := h.Wait(10 * time.Second); !done || st != StatusCommitted {
		t.Fatalf("after opening the gate: %v done=%v (%s)", st, done, h.Reason())
	}
	r.eventually("B installs the debit", func() bool {
		v, ok := r.nodes["B"].Read("bsrc").IsCertain()
		return ok && v == value.Int(60)
	})
	r.eventually("C installs the credit", func() bool {
		v, ok := r.nodes["C"].Read("cdst").IsCertain()
		return ok && v == value.Int(40)
	})
}

// gateSendBeforeWrite: only a read reply may leave ahead of its message's
// frames.  An outcome-ack staged before the outcome record it
// acknowledges is written still waits for that record's sync.
func gateSendBeforeWrite(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	r.disks["B"].shut()
	b, tid := r.nodes["B"].sites["B"], txn.ID("acked")
	b.enqueue(siteEvent{fn: func() {
		b.send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: tid, To: "A"})
		_ = b.store.SetOutcome(tid, false)
	}}, async)
	r.drained("B")
	if n := r.net.left("B", protocol.MsgOutcomeAck, tid); n != 0 {
		t.Fatal("B acknowledged an outcome whose record is not synced")
	}
	r.disks["B"].open()
	r.eventually("the outcome-ack leaves B after the sync", func() bool {
		return r.net.left("B", protocol.MsgOutcomeAck, tid) == 1
	})
}

// gateSyncFailure: the sync fails with several events parked.  None of
// what they staged may leave, and the site dies once.
func gateSyncFailure(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	a := r.nodes["A"]
	loadInt(t, a, "alocal", 10)
	loadInt(t, a, "asrc", 100)
	loadInt(t, r.nodes["B"], "bdst", 0)
	r.disks["A"].shut()

	// Parked decision: a one-phase local transaction.  Submit waits for
	// it, so it runs beside the test.
	var local *Handle
	submitted := make(chan struct{})
	go func() {
		local, _ = a.Submit("A", "alocal = alocal + 1")
		close(submitted)
	}()
	r.eventually("local transaction installed in memory", func() bool {
		v, _ := a.Read("alocal").IsCertain()
		return v == value.Int(11)
	})
	// Parked send: A's ready for a transfer B coordinates.
	remote, err := r.nodes["B"].Submit("B", "asrc = asrc - 40; bdst = bdst + 40")
	if err != nil {
		t.Fatal(err)
	}
	r.eventually("prepared record written at A", func() bool {
		return len(a.Store("A").PreparedTxns()) == 1
	})
	// Parked query answer: its read is served by B, its completion is
	// staged at A behind A's unsynced frames.
	q, err := a.Query("A", "bdst")
	if err != nil {
		t.Fatal(err)
	}
	r.eventually("B answers the query's read", func() bool {
		qid, ok := r.net.queryID("A", "bdst")
		return ok && r.net.left("B", protocol.MsgReadRep, qid) == 1
	})
	r.drained("A")

	r.disks["A"].fail(errors.New("injected fsync failure"))
	r.eventually("A takes a durability panic and is marked down", func() bool { return r.net.IsDown("A") })
	<-submitted
	if _, qerr, done := q.Wait(10 * time.Second); !done || !errors.Is(qerr, errSiteDown) {
		t.Fatalf("parked query: err=%v done=%v, want errSiteDown", qerr, done)
	}
	if n := r.net.left("A", protocol.MsgReady, remote.TID); n != 0 {
		t.Fatal("A's ready left although its prepared record never reached the disk")
	}
	if local.Status() != StatusPending {
		t.Fatalf("local transaction decided %v on a dead disk", local.Status())
	}
	s := a.sites["A"]
	if n := s.admission.Inflight(); n != 0 {
		t.Fatalf("%d admission credits still held at A", n)
	}
	if n := a.Metrics().Counter("site.durability.panics", metrics.L("site", "A")).Value(); n != 1 {
		t.Fatalf("site.durability.panics{site=A} = %d, want exactly 1", n)
	}
	if !a.DurabilityLost("A") {
		t.Fatal("A not marked durability-lost")
	}
}

// gateCrashWhileParked: a site is crashed with its ready parked.  The
// prepared record is in the log, so — exactly as a queue goroutine woken
// from the disk wait would have done — the ready leaves when the sync
// completes, and only then is the site marked down: the after-ready
// window.
func gateCrashWhileParked(t *testing.T, lanes int) {
	r := newGateRig(t, lanes)
	b := r.nodes["B"]
	loadInt(t, b, "bsrc", 100)
	loadInt(t, r.nodes["C"], "cdst", 0)
	r.disks["B"].shut()
	h, err := r.nodes["A"].Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	if err != nil {
		t.Fatal(err)
	}
	r.eventually("prepared record written at B", func() bool {
		info, _ := b.SiteInfo("B")
		return info.Prepared == 1
	})
	crashed := make(chan struct{})
	go func() {
		b.Crash("B") // waits for the down-marking to be published
		close(crashed)
	}()
	r.eventually("B crashed in memory", func() bool {
		s := b.sites["B"]
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		return s.down
	})
	r.drained("B")
	if r.net.IsDown("B") || r.net.left("B", protocol.MsgReady, h.TID) != 0 {
		t.Fatal("with B's gate shut neither its ready nor its down-marking may have left")
	}
	r.disks["B"].open()
	<-crashed
	if n := r.net.left("B", protocol.MsgReady, h.TID); n != 1 || !r.net.IsDown("B") {
		t.Fatalf("after the sync: %d readies out, down=%v; want the ready out, then the site down", n, r.net.IsDown("B"))
	}
	if st, done := h.Wait(10 * time.Second); !done || st != StatusCommitted {
		t.Fatalf("coordinator with every ready in hand: %v done=%v (%s)", st, done, h.Reason())
	}
	b.Restart("B")
	r.eventually("B recovers the committed transfer", func() bool {
		v, ok := b.Read("bsrc").IsCertain()
		return ok && v == value.Int(60)
	})
	r.eventually("C installs it", func() bool {
		v, ok := r.nodes["C"].Read("cdst").IsCertain()
		return ok && v == value.Int(40)
	})
}
