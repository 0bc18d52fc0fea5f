package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// TestPipelinedNonConflictingTransactions: many transactions submitted
// without waiting for each other, over disjoint items, all commit
// concurrently — the protocol handles interleaved coordinator contexts.
func TestPipelinedNonConflictingTransactions(t *testing.T) {
	c, err := New(Config{
		Sites: []protocol.SiteID{"s0", "s1", "s2", "s3"},
		Net:   network.Config{Latency: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const n = 40
	for i := 0; i < n; i++ {
		if err := c.Load(fmt.Sprintf("a%d", i), polyvalue.Simple(value.Int(10))); err != nil {
			t.Fatal(err)
		}
		if err := c.Load(fmt.Sprintf("b%d", i), polyvalue.Simple(value.Int(0))); err != nil {
			t.Fatal(err)
		}
	}
	handles := make([]*Handle, n)
	for i := 0; i < n; i++ {
		h, err := c.Submit(c.Sites()[i%4],
			fmt.Sprintf("a%d = a%d - 1; b%d = b%d + 1", i, i, i, i))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
		// No RunFor between submissions: all in flight simultaneously.
	}
	c.RunFor(5 * time.Second)
	for i, h := range handles {
		if h.Status() != StatusCommitted {
			t.Errorf("txn %d: %v (%s)", i, h.Status(), h.Reason())
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := c.Read(fmt.Sprintf("a%d", i)).IsCertain(); !ok || !v.Equal(value.Int(9)) {
			t.Errorf("a%d = %v", i, c.Read(fmt.Sprintf("a%d", i)))
		}
		if v, ok := c.Read(fmt.Sprintf("b%d", i)).IsCertain(); !ok || !v.Equal(value.Int(1)) {
			t.Errorf("b%d = %v", i, c.Read(fmt.Sprintf("b%d", i)))
		}
	}
}

// TestPipelinedConflictingTransactions: a pile of transfers over a small
// hot set, all in flight at once, under no-wait locking: some commit,
// some abort, nothing is lost or double-applied.
func TestPipelinedConflictingTransactions(t *testing.T) {
	c, err := New(Config{
		Sites: []protocol.SiteID{"s0", "s1", "s2"},
		Net:   network.Config{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	const items = 4
	for i := 0; i < items; i++ {
		if err := c.Load(fmt.Sprintf("x%d", i), polyvalue.Simple(value.Int(100))); err != nil {
			t.Fatal(err)
		}
	}
	type sub struct {
		a, b int
		h    *Handle
	}
	var subs []sub
	for i := 0; i < 24; i++ {
		a, b := i%items, (i+1)%items
		h, err := c.Submit(c.Sites()[i%3],
			fmt.Sprintf("x%d = x%d - 5; x%d = x%d + 5", a, a, b, b))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{a: a, b: b, h: h})
	}
	c.RunFor(10 * time.Second)
	committed := 0
	for _, s := range subs {
		switch s.h.Status() {
		case StatusCommitted:
			committed++
		case StatusPending:
			t.Fatalf("txn pending with no failures")
		}
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	// Conservation: total unchanged regardless of which subset committed.
	total := int64(0)
	for i := 0; i < items; i++ {
		v, ok := c.Read(fmt.Sprintf("x%d", i)).IsCertain()
		if !ok {
			t.Fatalf("x%d uncertain", i)
		}
		n, _ := value.AsInt(v)
		total += n
	}
	if total != items*100 {
		t.Errorf("total = %d, want %d (committed=%d)", total, items*100, committed)
	}
	t.Logf("pipelined conflicts: %d/%d committed", committed, len(subs))
}

// codecFabric round-trips every simulated send through the wire codec
// — encoded as a frame of one, decoded again — and hands the decoded
// message to the inner fabric, so the deterministic suite runs on
// exactly what a TCP peer would receive.  It counts the frames it
// carried per message kind.
type codecFabric struct {
	transport.Transport
	t *testing.T

	mu     sync.Mutex
	frames map[protocol.MsgKind]int
}

// wrapCodec installs a codecFabric on c's fabric.  Sites registered on
// the inner fabric at New, so deliveries need no rewiring.
func wrapCodec(t *testing.T, c *Cluster) *codecFabric {
	f := &codecFabric{Transport: c.fab, t: t, frames: map[protocol.MsgKind]int{}}
	c.fab = f
	return f
}

func (f *codecFabric) Send(msg protocol.Message) {
	got, _, err := wire.DecodeFrame(wire.EncodeFrame(msg))
	if err != nil {
		f.t.Errorf("%s does not survive the wire: %v", msg, err)
		return
	}
	f.mu.Lock()
	f.frames[msg.Kind]++
	f.mu.Unlock()
	f.Transport.Send(got)
}

// TestSimBatchingPreservesOutcomes: the same conflicting-transfer
// workload (fixed seed), with every message crossing the wire codec, run
// twice is bit-for-bit deterministic, conserves money, and settles with
// zero residual polyvalues even through a coordinator crash.  It runs on
// the default decision plane, on the Paxos plane, and under K=3/W=2/R=2
// quorum replication, so Paxos and gossip kinds cross the codec too.
func TestSimBatchingPreservesOutcomes(t *testing.T) {
	const items = 4
	run := func(mut func(*Config)) (map[string]int64, Stats, map[protocol.MsgKind]int) {
		cfg := Config{
			Sites: []protocol.SiteID{"s0", "s1", "s2"},
			Net:   network.Config{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 11},
		}
		if mut != nil {
			mut(&cfg)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		codec := wrapCodec(t, c)
		for i := 0; i < items; i++ {
			if err := c.LoadReplicated(fmt.Sprintf("y%d", i), polyvalue.Simple(value.Int(100))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 24; i++ {
			if i == 10 {
				// One coordinator dies after logging its decision: the
				// outcome must still reach participants through
				// retransmissions and recovery.
				c.ArmCrashBeforeDecision("s1")
			}
			a, b := i%items, (i+1)%items
			if _, err := c.Submit(c.Sites()[i%3],
				fmt.Sprintf("y%d = y%d - 5; y%d = y%d + 5", a, a, b, b)); err != nil {
				t.Fatal(err)
			}
			c.RunFor(50 * time.Millisecond)
		}
		c.RunFor(5 * time.Second)
		for _, s := range c.Sites() {
			if c.IsDown(s) {
				c.Restart(s)
			}
		}
		c.RunFor(60 * time.Second)

		// Without replication an item is its own only copy; with it,
		// every replica must have converged on one value.
		copies := []func(string) string{func(name string) string { return name }}
		if rep := cfg.Replication; rep != nil {
			copies = nil
			for r := 0; r < rep.K; r++ {
				copies = append(copies, func(name string) string { return replica.Name(name, r) })
			}
		}
		state := map[string]int64{}
		var total int64
		for i := 0; i < items; i++ {
			name := fmt.Sprintf("y%d", i)
			for r, phys := range copies {
				v, ok := c.Read(phys(name)).IsCertain()
				if !ok {
					t.Fatalf("%s uncertain at quiescence", phys(name))
				}
				n, _ := value.AsInt(v)
				if r > 0 && n != state[name] {
					t.Errorf("%s = %d, but replica 0 holds %d", phys(name), n, state[name])
				}
				state[name] = n
			}
			total += state[name]
		}
		if total != items*100 {
			t.Errorf("total = %d, want %d", total, items*100)
		}
		if polys := c.PolyItems(); len(polys) != 0 {
			t.Errorf("residual polyvalues: %v", polys)
		}
		for _, v := range c.CheckInvariants() {
			t.Errorf("invariant violation: %s", v)
		}
		return state, c.Stats(), codec.frames
	}

	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want []protocol.MsgKind // kinds that must have crossed the codec
	}{
		{"wal", nil, []protocol.MsgKind{protocol.MsgPrepare, protocol.MsgComplete}},
		{"paxos", func(cfg *Config) { cfg.DecisionPlane = PlanePaxos },
			[]protocol.MsgKind{protocol.MsgPaxosBegin, protocol.MsgPaxosAccept, protocol.MsgPaxosAccepted}},
		{"quorum", func(cfg *Config) { cfg.Replication = &ReplicationConfig{K: 3, W: 2, R: 2} },
			[]protocol.MsgKind{protocol.MsgReadRep, protocol.MsgAntiEntropyDigest, protocol.MsgAntiEntropyReply}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state1, stats1, frames1 := run(tc.mut)
			state2, stats2, frames2 := run(tc.mut)
			t.Logf("committed=%d aborted=%d frames=%v", stats1.Committed, stats1.Aborted, frames1)
			for _, k := range tc.want {
				if frames1[k] == 0 {
					t.Errorf("no %s crossed the codec", k)
				}
			}
			if !reflect.DeepEqual(frames1, frames2) || stats1 != stats2 {
				t.Errorf("runs diverged: frames %v vs %v, stats %+v vs %+v",
					frames1, frames2, stats1, stats2)
			}
			for k, v := range state1 {
				if state2[k] != v {
					t.Errorf("state diverged at %s: %d vs %d", k, v, state2[k])
				}
			}
		})
	}
}

// TestQueriesConcurrentWithUpdates: read-only queries interleaved with a
// stream of updates never error and always return well-formed values.
func TestQueriesConcurrentWithUpdates(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 100)
	var queries []*QueryHandle
	for i := 0; i < 10; i++ {
		if _, err := c.Submit("A", "bx = bx + 1"); err != nil {
			t.Fatal(err)
		}
		q, err := c.Query("C", "bx * 2")
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
		c.RunFor(200 * time.Millisecond)
	}
	c.RunFor(5 * time.Second)
	for i, q := range queries {
		p, err, done := q.Result()
		if !done || err != nil {
			t.Fatalf("query %d: done=%v err=%v", i, done, err)
		}
		if _, ok := p.IsCertain(); !ok {
			t.Errorf("query %d returned uncertainty with no failures: %v", i, p)
		}
	}
}
