package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/value"
)

// nodeHarness is a 3-site cluster where each site is its own Cluster
// instance over its own TCP transport — in-process stand-ins for three
// polynode OS processes, sharing nothing but sockets and WAL files.
type nodeHarness struct {
	t     *testing.T
	dir   string
	peers map[protocol.SiteID]string
	nodes map[protocol.SiteID]*Cluster
	// tune, when set, adjusts each node's Config before boot (placement,
	// durability).
	tune func(*Config)
}

var nodeSites = []protocol.SiteID{"A", "B", "C"}

// nodePlacement pins the bank accounts away from the coordinator: A
// coordinates, B owns acct1, C owns acct2.
func nodePlacement(item string) protocol.SiteID {
	switch item {
	case "acct1":
		return "B"
	case "acct2":
		return "C"
	}
	return "A"
}

func newNodeHarness(t *testing.T) *nodeHarness { return newTunedNodeHarness(t, nil) }

func newTunedNodeHarness(t *testing.T, tune func(*Config)) *nodeHarness {
	t.Helper()
	h := &nodeHarness{
		t:     t,
		tune:  tune,
		dir:   t.TempDir(),
		peers: map[protocol.SiteID]string{},
		nodes: map[protocol.SiteID]*Cluster{},
	}
	lns := map[protocol.SiteID]net.Listener{}
	for _, id := range nodeSites {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[id] = ln
		h.peers[id] = ln.Addr().String()
	}
	for _, id := range nodeSites {
		h.start(id, lns[id])
	}
	t.Cleanup(func() {
		for _, n := range h.nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	return h
}

// start boots (or re-boots) one site's node over the given listener, or
// over a fresh bind of its known address when ln is nil.
func (h *nodeHarness) start(id protocol.SiteID, ln net.Listener) *Cluster {
	h.t.Helper()
	if ln == nil {
		var err error
		// The previous process's socket may still be tearing down.
		for i := 0; i < 50; i++ {
			ln, err = net.Listen("tcp", h.peers[id])
			if err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			h.t.Fatalf("rebind %s: %v", h.peers[id], err)
		}
	}
	fab := transport.NewTCPWithListener(transport.TCPConfig{
		Self:       id,
		Peers:      h.peers,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
		Seed:       int64(len(id)),
	}, ln)
	cfg := Config{
		Sites:         nodeSites,
		WaitTimeout:   100 * time.Millisecond,
		ReadyTimeout:  500 * time.Millisecond,
		RetryInterval: 100 * time.Millisecond,
		Placement:     nodePlacement,
		DataDir:       h.dir,
	}
	if h.tune != nil {
		h.tune(&cfg)
	}
	node, err := NewNode(cfg, id, fab)
	if err != nil {
		h.t.Fatalf("NewNode(%s): %v", id, err)
	}
	h.nodes[id] = node
	return node
}

// kill simulates an abrupt process death for a site: its node (sites,
// wall clock, transport, WAL handle) is torn down.
func (h *nodeHarness) kill(id protocol.SiteID) {
	h.nodes[id].Close()
	h.nodes[id] = nil
}

// read fetches an item from its owning site's store.
func (h *nodeHarness) read(item string) polyvalue.Poly {
	return h.nodes[nodePlacement(item)].Read(item)
}

// certainInt polls until item holds a certain value, and returns it.
func (h *nodeHarness) certainInt(item string, within time.Duration) (int64, bool) {
	h.t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if v, ok := h.read(item).IsCertain(); ok {
			if iv, ok := v.(value.Int); ok {
				return int64(iv), true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, false
}

// waitValue polls until item settles at the wanted certain value.
func (h *nodeHarness) waitValue(item string, want int64, within time.Duration) {
	h.t.Helper()
	deadline := time.Now().Add(within)
	var last polyvalue.Poly
	for time.Now().Before(deadline) {
		last = h.read(item)
		if v, ok := last.IsCertain(); ok {
			if iv, ok := v.(value.Int); ok && int64(iv) == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("%s never settled at %d; last value %v", item, want, last)
}

func transferSrc(amount int) string {
	return fmt.Sprintf("acct1 = acct1 - %d if acct1 >= %d; acct2 = acct2 + %d if acct1 >= %d",
		amount, amount, amount, amount)
}

// TestNodeClusterCommit runs a bank transfer end-to-end across three
// TCP-connected nodes: coordinator A, participants B and C.
func TestNodeClusterCommit(t *testing.T) {
	h := newNodeHarness(t)
	if err := h.nodes["B"].Load("acct1", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatalf("load acct1: %v", err)
	}
	if err := h.nodes["C"].Load("acct2", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatalf("load acct2: %v", err)
	}

	hd, err := h.nodes["A"].Submit("A", transferSrc(30))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, done := hd.Wait(10 * time.Second)
	if !done || st != StatusCommitted {
		t.Fatalf("status = %v (done=%v, reason=%q)", st, done, hd.Reason())
	}
	// The decision reaches the handle before the Complete messages reach
	// the participants, so poll for the updated values.
	h.waitValue("acct1", 70, 5*time.Second)
	h.waitValue("acct2", 130, 5*time.Second)
}

// TestNodeClusterKillCoordinatorMidCommit is the paper's critical
// scenario over real sockets: the coordinator dies after collecting
// every ready but before the decision leaves it.  The participants'
// wait phases time out and they install polyvalues — items stay
// readable, uncertainty explicit — then the coordinator restarts from
// its WAL, answers the participants' outcome requests (presumed abort),
// and the polyvalues reduce to certain values conserving the total.
func TestNodeClusterKillCoordinatorMidCommit(t *testing.T) {
	h := newNodeHarness(t)
	if err := h.nodes["B"].Load("acct1", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatalf("load acct1: %v", err)
	}
	if err := h.nodes["C"].Load("acct2", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatalf("load acct2: %v", err)
	}

	// Arm the failpoint and submit; the coordinator will crash at the
	// moment it would decide COMMIT.
	h.nodes["A"].ArmCrashBeforeDecision("A")
	if _, err := h.nodes["A"].Submit("A", transferSrc(30)); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Participants' wait phases must time out and install polyvalues.
	waitPoly := func(site protocol.SiteID, item string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if _, certain := h.read(item).IsCertain(); !certain {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("%s never went polyvalued at %s", item, site)
	}
	waitPoly("B", "acct1")
	waitPoly("C", "acct2")

	// Both alternatives of the polyvalue must conserve the total.
	for _, item := range []string{"acct1", "acct2"} {
		p := h.read(item)
		if got := p.NumPairs(); got < 2 {
			t.Fatalf("%s polyvalue has %d alternatives, want >= 2: %v", item, got, p)
		}
	}

	// Kill the dead coordinator's process remains and restart it over
	// the same WAL directory.
	h.kill("A")
	h.start("A", nil)

	// The participants' outcome-request loops now reach the restarted
	// coordinator, which never logged an outcome: presumed abort.  Both
	// polyvalues must reduce to their pre-transfer values.
	v1, ok1 := h.certainInt("acct1", 15*time.Second)
	v2, ok2 := h.certainInt("acct2", 15*time.Second)
	if !ok1 || !ok2 {
		t.Fatalf("polyvalues never reduced (acct1 certain=%v, acct2 certain=%v)", ok1, ok2)
	}
	if v1 != 100 || v2 != 100 {
		t.Errorf("after presumed abort: acct1=%d acct2=%d, want 100/100", v1, v2)
	}
	if v1+v2 != 200 {
		t.Errorf("conservation violated: %d + %d != 200", v1, v2)
	}
}

// TestNodeClusterQuery runs a read-only query through a node, including
// the polyvalued-answer path while a transaction is in doubt.
func TestNodeClusterQuery(t *testing.T) {
	h := newNodeHarness(t)
	if err := h.nodes["B"].Load("acct1", polyvalue.Simple(value.Int(40))); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := h.nodes["C"].Load("acct2", polyvalue.Simple(value.Int(60))); err != nil {
		t.Fatalf("load: %v", err)
	}
	qh, err := h.nodes["A"].Query("A", "acct1 + acct2")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	p, qerr, done := qh.Wait(10 * time.Second)
	if !done || qerr != nil {
		t.Fatalf("query done=%v err=%v", done, qerr)
	}
	v, certain := p.IsCertain()
	if !certain || v != value.Int(100) {
		t.Fatalf("query answer = %v (certain=%v), want 100", p, certain)
	}
}

// TestNodeRejectsBadConfig covers constructor validation.
func TestNodeRejectsBadConfig(t *testing.T) {
	if _, err := NewNode(Config{Sites: nodeSites}, "A", nil); err == nil {
		t.Error("nil transport accepted")
	}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	fab := transport.NewTCPWithListener(transport.TCPConfig{
		Self:  "Z",
		Peers: map[protocol.SiteID]string{"Z": ln.Addr().String()},
	}, ln)
	defer fab.Close()
	if _, err := NewNode(Config{Sites: nodeSites}, "Z", fab); err == nil {
		t.Error("self outside membership accepted")
	}
	if _, err := NewNode(Config{}, "A", fab); err == nil {
		t.Error("empty membership accepted")
	}
}
