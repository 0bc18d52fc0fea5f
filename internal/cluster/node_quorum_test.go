package cluster

import (
	"net"
	"testing"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/value"
)

// newQuorumNodeHarness boots a 3-site node cluster (separate Cluster
// instances over TCP, as polybench/polynode run them) with k=3/W=2/R=2
// replication and the default hashed placement, which is what spreads
// the physical replica names across sites.
func newQuorumNodeHarness(t *testing.T) *nodeHarness {
	t.Helper()
	h := &nodeHarness{
		t:     t,
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
		ln := lns[id]
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
			DataDir:       h.dir,
			Replication:   &ReplicationConfig{K: 3, W: 2, R: 2},
		}, id, fab)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", id, err)
		}
		h.nodes[id] = node
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

// TestNodeQuorumCommit drives a replicated transfer across real TCP
// nodes — the exact configuration polybench's inproc replication mode
// runs — and requires back-to-back transactions on the same items to
// commit without tripping over residual probe locks.
func TestNodeQuorumCommit(t *testing.T) {
	h := newQuorumNodeHarness(t)
	for item, v := range map[string]int64{"acct1": 100, "acct2": 100} {
		for _, id := range nodeSites {
			if err := h.nodes[id].LoadReplicated(item, polyvalue.Simple(value.Int(v))); err != nil {
				t.Fatalf("load %s at %s: %v", item, id, err)
			}
		}
	}

	// Several sequential transfers: each one probes all three replicas
	// of both accounts and locks the ones it prepares, so any lock residue
	// from txn N aborts txn N+1.
	want := int64(100)
	for i := 0; i < 5; i++ {
		hd, err := h.nodes["A"].Submit("A", transferSrc(10))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		st, done := hd.Wait(10 * time.Second)
		if !done || st != StatusCommitted {
			t.Fatalf("txn %d: status=%v done=%v reason=%q", i, st, done, hd.Reason())
		}
		want -= 10
	}

	// Every replica of acct1 must converge on the final balance.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 3; i++ {
		phys := replica.Name("acct1", i)
		var got polyvalue.Poly
		for time.Now().Before(deadline) {
			var holder *Cluster
			for _, id := range nodeSites {
				if h.nodes[id].Local(phys) {
					holder = h.nodes[id]
					break
				}
			}
			if holder == nil {
				t.Fatalf("no node hosts %s", phys)
			}
			got = holder.Read(phys)
			if v, ok := got.IsCertain(); ok {
				if iv, ok := v.(value.Int); ok && int64(iv) == want {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		if v, ok := got.IsCertain(); !ok {
			t.Errorf("%s still uncertain: %v", phys, got)
		} else if iv, _ := v.(value.Int); int64(iv) != want {
			t.Errorf("%s = %v, want %d", phys, v, want)
		}
	}
}
