package cluster

import (
	"net"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/value"
)

// durHarness is a 3-site TCP node cluster running durable WAL mode
// (SyncWAL) with a per-site fault.Disk underneath every log.
type durHarness struct {
	t     *testing.T
	dir   string
	peers map[protocol.SiteID]string
	nodes map[protocol.SiteID]*Cluster
	disks map[protocol.SiteID]*fault.Disk
}

func newDurHarness(t *testing.T) *durHarness {
	t.Helper()
	h := &durHarness{
		t:     t,
		dir:   t.TempDir(),
		peers: map[protocol.SiteID]string{},
		nodes: map[protocol.SiteID]*Cluster{},
		disks: map[protocol.SiteID]*fault.Disk{},
	}
	lns := map[protocol.SiteID]net.Listener{}
	for _, id := range nodeSites {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[id] = ln
		h.peers[id] = ln.Addr().String()
		// The injector persists across node rebuilds, like the disk it
		// models.
		h.disks[id] = fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: int64(len(id))})
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

func (h *durHarness) start(id protocol.SiteID, ln net.Listener) *Cluster {
	h.t.Helper()
	if ln == nil {
		var err error
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
	node, err := NewNode(Config{
		Sites:         nodeSites,
		WaitTimeout:   100 * time.Millisecond,
		ReadyTimeout:  500 * time.Millisecond,
		RetryInterval: 100 * time.Millisecond,
		Placement:     nodePlacement,
		DataDir:       h.dir,
		SyncWAL:       true,
		DiskFS:        h.disks[id],
	}, id, fab)
	if err != nil {
		h.t.Fatalf("NewNode(%s): %v", id, err)
	}
	h.nodes[id] = node
	return node
}

func (h *durHarness) certainInt(item string, within time.Duration) (int64, bool) {
	h.t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if v, ok := h.nodes[nodePlacement(item)].Read(item).IsCertain(); ok {
			if iv, ok := v.(value.Int); ok {
				return int64(iv), true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, false
}

// TestFsyncFailureDurabilityPanic is the fsyncgate scenario end to end:
// a participant whose WAL fsync fails must crash itself before acking
// Prepared (the coordinator aborts on timeout), must refuse Restart for
// that incarnation, and must recover cleanly — conserving the bank
// total — once the node is rebuilt from the on-disk bytes.
func TestFsyncFailureDurabilityPanic(t *testing.T) {
	h := newDurHarness(t)
	if err := h.nodes["B"].Load("acct1", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatalf("load acct1: %v", err)
	}
	if err := h.nodes["C"].Load("acct2", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatalf("load acct2: %v", err)
	}

	// Warm transfer: durable mode commits normally while the disk is
	// healthy.
	hd, err := h.nodes["A"].Submit("A", transferSrc(30))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, done := hd.Wait(10 * time.Second); !done || st != StatusCommitted {
		t.Fatalf("warm transfer: status=%v done=%v reason=%q", st, done, hd.Reason())
	}

	// B's disk dies: every fsync fails from here on.
	h.disks["B"].SetRule(fault.Rule{Kind: fault.DiskFsync, P: 1, Sticky: true})

	// The next transfer's prepare at B cannot become durable.  B must
	// take a durability panic instead of sending ready, and the
	// coordinator must abort — never commit — the transaction.
	hd2, err := h.nodes["A"].Submit("A", transferSrc(10))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, done := hd2.Wait(10 * time.Second); done && st == StatusCommitted {
		t.Fatal("transaction committed although participant B could not fsync its prepare")
	}

	deadline := time.Now().Add(10 * time.Second)
	for !h.nodes["B"].DurabilityLost("B") {
		if time.Now().After(deadline) {
			t.Fatal("B never took a durability panic")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := h.nodes["B"].Metrics().Counter("site.durability.panics", metrics.L("site", "B")).Value(); got < 1 {
		t.Fatalf("site.durability.panics{site=B} = %d, want >= 1", got)
	}
	if !h.nodes["B"].IsDown("B") {
		t.Fatal("B should be down after its durability panic")
	}

	// Restart is refused: the incarnation's memory may run ahead of its
	// disk.
	h.nodes["B"].Restart("B")
	if !h.nodes["B"].IsDown("B") {
		t.Fatal("restart of a durability-lost site must be refused")
	}

	// Rebuild the node from disk (the disk is healthy again): state
	// re-reads from the WAL and the bank total is conserved.
	h.disks["B"].Clear()
	h.nodes["B"].Close()
	h.start("B", nil)

	v1, ok1 := h.certainInt("acct1", 15*time.Second)
	v2, ok2 := h.certainInt("acct2", 15*time.Second)
	if !ok1 || !ok2 {
		t.Fatalf("accounts never settled (acct1 certain=%v, acct2 certain=%v)", ok1, ok2)
	}
	if v1+v2 != 200 {
		t.Fatalf("conservation violated after durability panic + rebuild: %d + %d != 200", v1, v2)
	}

	// The rebuilt incarnation serves transfers again (retry while A's
	// transport reconnects to the new process).
	committed := false
	for attempt := 0; attempt < 20 && !committed; attempt++ {
		hd3, err := h.nodes["A"].Submit("A", transferSrc(5))
		if err != nil {
			t.Fatalf("submit after rebuild: %v", err)
		}
		st, done := hd3.Wait(10 * time.Second)
		committed = done && st == StatusCommitted
		if !committed {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if !committed {
		t.Fatal("no transfer committed after rebuilding B from disk")
	}
}
