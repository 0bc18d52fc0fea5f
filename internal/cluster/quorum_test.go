package cluster

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/value"
)

// newQuorumCluster builds a 5-site simulated cluster running k=3
// replication with a 2/2 write/read quorum.
func newQuorumCluster(t *testing.T, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Sites:       []protocol.SiteID{"A", "B", "C", "D", "E"},
		Net:         network.Config{Latency: 10 * time.Millisecond, Seed: 7},
		Replication: &ReplicationConfig{K: 3, W: 2, R: 2},
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// replicaVals reads every replica of a logical item directly from the
// hosting stores: (value, version) per replica index.
func replicaVals(c *Cluster, logical string) (vals []polyvalue.Poly, vers []uint64) {
	k := c.cfg.Replication.K
	for i := 0; i < k; i++ {
		phys := replica.Name(logical, i)
		st := c.Store(c.Placement(phys))
		vals = append(vals, st.Get(phys))
		vers = append(vers, st.Version(phys))
	}
	return vals, vers
}

func TestQuorumConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Sites: []protocol.SiteID{"A", "B", "C"}}
	}
	for _, tc := range []struct {
		rep  ReplicationConfig
		want string
	}{
		{ReplicationConfig{K: 0, W: 1, R: 1}, "K ≥ 1"},
		{ReplicationConfig{K: 4, W: 2, R: 3}, "exceeds"},
		{ReplicationConfig{K: 3, W: 0, R: 3}, "write quorum"},
		{ReplicationConfig{K: 3, W: 4, R: 3}, "write quorum"},
		{ReplicationConfig{K: 3, W: 3, R: 0}, "read quorum"},
		{ReplicationConfig{K: 3, W: 1, R: 1}, "must exceed"},
	} {
		cfg := base()
		rep := tc.rep
		cfg.Replication = &rep
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("K=%d W=%d R=%d: err = %v, want %q", rep.K, rep.W, rep.R, err, tc.want)
		}
	}
	cfg := base()
	cfg.Replication = &ReplicationConfig{K: 3, W: 2, R: 2}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c.Close()
}

// TestQuorumCommitAndConverge: a healthy cluster commits onto a write
// quorum, and anti-entropy converges the replica the commit skipped.
// freshest reads a logical item's value: the highest-version replica's
// under replication, the item itself otherwise.
func freshest(c *Cluster, logical string) polyvalue.Poly {
	if c.cfg.Replication == nil {
		return c.Read(logical)
	}
	vals, vers := replicaVals(c, logical)
	best := 0
	for i := range vers {
		if vers[i] > vers[best] {
			best = i
		}
	}
	return vals[best]
}

func TestQuorumCommitAndConverge(t *testing.T) {
	c := newQuorumCluster(t, nil)
	if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit("A", "bal = bal - 30")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	// A write quorum (2 of 3) must hold the new value at version 2
	// immediately; all 3 replicas must converge once gossip runs.
	vals, vers := replicaVals(c, "bal")
	fresh := 0
	for i := range vals {
		if v, ok := vals[i].IsCertain(); ok {
			if n, _ := value.AsInt(v); n == 70 && vers[i] == 2 {
				fresh++
			}
		}
	}
	if fresh < 2 {
		t.Fatalf("write quorum not satisfied: %d fresh replicas (vals=%v vers=%v)", fresh, vals, vers)
	}
	c.RunFor(10 * time.Second)
	vals, vers = replicaVals(c, "bal")
	for i := range vals {
		v, ok := vals[i].IsCertain()
		if !ok {
			t.Fatalf("replica %d uncertain after convergence window: %v", i, vals[i])
		}
		if n, _ := value.AsInt(v); n != 70 || vers[i] != 2 {
			t.Errorf("replica %d = %v v%d, want 70 v2", i, v, vers[i])
		}
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
	if c.aeItemsCopied.Value() == 0 {
		t.Error("no anti-entropy value copies recorded")
	}
}

// TestQuorumQueryFreshest: a read quorum returns the freshest committed
// value even when one replica is stale.
func TestQuorumQueryFreshest(t *testing.T) {
	c := newQuorumCluster(t, nil)
	if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("B", "bal = bal + 11")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("setup commit failed: %s", h.Reason())
	}
	qh, err := c.Query("C", "bal")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	p, qerr, done := qh.Result()
	if qerr != nil || !done {
		t.Fatalf("query err=%v done=%v", qerr, done)
	}
	v, ok := p.IsCertain()
	if !ok {
		t.Fatalf("query uncertain: %v", p)
	}
	if n, _ := value.AsInt(v); n != 111 {
		t.Errorf("query = %v, want 111", v)
	}
}

// TestQuorumCommitDuringPartition: with one replica-hosting site cut
// off, a 2-of-3 write quorum still commits; write-all (W=K) on the same
// topology aborts.  After the heal, gossip converges the cut replica.
func TestQuorumCommitDuringPartition(t *testing.T) {
	c := newQuorumCluster(t, nil)
	if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatal(err)
	}
	owners := replica.Sites(c.Placement, "bal", 3)
	victim := owners[2]
	// Pick a coordinator that is not the victim.
	coord := protocol.SiteID("")
	for _, id := range c.Sites() {
		if id != victim {
			coord = id
			break
		}
	}
	for _, id := range c.Sites() {
		if id != victim {
			c.Partition(victim, id)
		}
	}
	h, err := c.Submit(coord, "bal = bal - 25")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("quorum write during partition: %v (%s)", h.Status(), h.Reason())
	}
	// The victim's replica is stale until the heal.
	st := c.Store(victim)
	stalePhys := ""
	for i := 0; i < 3; i++ {
		phys := replica.Name("bal", i)
		if c.Placement(phys) == victim {
			stalePhys = phys
		}
	}
	if stalePhys != "" {
		if v, _ := st.Get(stalePhys).IsCertain(); true {
			if n, _ := value.AsInt(v); n != 100 {
				t.Fatalf("victim replica changed during partition: %v", v)
			}
		}
	}
	c.HealAll()
	c.RunFor(15 * time.Second)
	vals, vers := replicaVals(c, "bal")
	for i := range vals {
		v, ok := vals[i].IsCertain()
		if !ok {
			t.Fatalf("replica %d uncertain after heal: %v", i, vals[i])
		}
		if n, _ := value.AsInt(v); n != 75 || vers[i] != 2 {
			t.Errorf("replica %d = %v v%d, want 75 v2", i, v, vers[i])
		}
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestWriteAllBlocksDuringPartition: with W = K = 3 a write cannot
// assemble its write set while one replica's site is cut off or down —
// the transaction aborts instead of committing (the availability gap
// quorum replication closes) — while an R = 1 read still answers, with
// no failover by the client.  Once the site is back, writes commit and
// the replicas converge.
func TestWriteAllBlocksDuringPartition(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(c *Cluster, victim protocol.SiteID)
		mend func(c *Cluster, victim protocol.SiteID)
	}{
		{"partition", func(c *Cluster, victim protocol.SiteID) {
			for _, id := range c.Sites() {
				if id != victim {
					c.Partition(victim, id)
				}
			}
		}, func(c *Cluster, _ protocol.SiteID) { c.HealAll() }},
		{"crash", (*Cluster).Crash, (*Cluster).Restart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newQuorumCluster(t, func(cfg *Config) {
				cfg.Replication = &ReplicationConfig{K: 3, W: 3, R: 1}
			})
			if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
				t.Fatal(err)
			}
			owners := replica.Sites(c.Placement, "bal", 3)
			victim := owners[0]
			coord := protocol.SiteID("")
			for _, id := range c.Sites() {
				if id != victim {
					coord = id
					break
				}
			}
			tc.cut(c, victim)
			qh, err := c.Query(coord, "bal")
			if err != nil {
				t.Fatal(err)
			}
			h, err := c.Submit(coord, "bal = bal - 25")
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(2 * time.Second)
			if p, qerr, done := qh.Result(); !done || qerr != nil || !p.Equal(polyvalue.Simple(value.Int(100))) {
				t.Errorf("read with replica 0's site cut off: %v done=%v err=%v", p, done, qerr)
			}
			if h.Status() != StatusAborted {
				t.Fatalf("write-all with replica 0's site cut off: %v, want abort", h.Status())
			}
			tc.mend(c, victim)
			c.RunFor(5 * time.Second)
			h, err = c.Submit(coord, "bal = bal - 25")
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(2 * time.Second)
			if h.Status() != StatusCommitted {
				t.Fatalf("write-all after repair: %v (%s)", h.Status(), h.Reason())
			}
			vals, vers := replicaVals(c, "bal")
			for i := range vals {
				if !vals[i].Equal(polyvalue.Simple(value.Int(75))) || vers[i] != 2 {
					t.Errorf("replica %d = %v v%d, want 75 v2", i, vals[i], vers[i])
				}
			}
		})
	}
}

// TestQuorumInDoubtReplicasAgree: a write-all interrupted at the
// critical moment leaves the same polyvalue on every replica — the
// replicated item is in doubt coherently — and the coordinator's
// restart reduces them all to the same value.
func TestQuorumInDoubtReplicasAgree(t *testing.T) {
	c := newQuorumCluster(t, func(cfg *Config) {
		cfg.Replication = &ReplicationConfig{K: 3, W: 3, R: 1}
	})
	if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatal(err)
	}
	// A coordinator hosting no replica, crashed once every ready is in.
	owners := replica.Sites(c.Placement, "bal", 3)
	coord := protocol.SiteID("")
	for _, id := range c.Sites() {
		if !slices.Contains(owners, id) {
			coord = id
			break
		}
	}
	c.ArmCrashBeforeDecision(coord)
	if _, err := c.Submit(coord, "bal = bal - 10"); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	vals, _ := replicaVals(c, "bal")
	for i := range vals {
		if _, certain := vals[i].IsCertain(); certain || !vals[i].Equal(vals[0]) {
			t.Fatalf("replica %d = %v, want the polyvalue every replica holds (%v)", i, vals[i], vals[0])
		}
	}
	c.Restart(coord)
	c.RunFor(10 * time.Second)
	vals, _ = replicaVals(c, "bal")
	for i := range vals {
		if !vals[i].Equal(polyvalue.Simple(value.Int(100))) {
			t.Errorf("replica %d after repair = %v, want 100", i, vals[i])
		}
	}
}

// TestQuorumGossipReducesStrandedPolyvalue: a participant left in doubt
// by a dead coordinator learns the outcome from a third site's gossip —
// no coordinator involvement, no direct inquiry success — and reduces
// its polyvalue.
func TestQuorumGossipReducesStrandedPolyvalue(t *testing.T) {
	c := newQuorumCluster(t, func(cfg *Config) {
		cfg.OutcomeTTL = -1 // keep outcomes alive for gossip
	})
	if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatal(err)
	}
	owners := replica.Sites(c.Placement, "bal", 3)
	// Coordinate from a non-owner so the coordinator's crash does not
	// take a replica down with it.
	coord := protocol.SiteID("")
	for _, id := range c.Sites() {
		isOwner := false
		for _, o := range owners {
			if id == o {
				isOwner = true
			}
		}
		if !isOwner {
			coord = id
			break
		}
	}
	if coord == "" {
		t.Fatal("no non-owner coordinator available")
	}
	// Cut one owner off mid-protocol: it votes ready (probe+prepare get
	// through) but never hears the outcome, times out, installs
	// polyvalues.  The coordinator decides with the remaining quorum,
	// then dies before any retransmission can reach the victim.
	victim := owners[0]
	h, err := c.Submit(coord, "bal = bal - 40")
	if err != nil {
		t.Fatal(err)
	}
	// Let read probes, prepares and readies land (t≈40ms at 10ms fixed
	// latency), then cut the victim off from EVERY other site before the
	// complete arrives at t≈50ms: it is in doubt with no outcome source —
	// not the coordinator, not gossip.
	c.RunFor(45 * time.Millisecond)
	for _, id := range c.Sites() {
		if id != victim {
			c.Partition(victim, id)
		}
	}
	c.RunFor(2 * time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("commit with W quorum: %v (%s)", h.Status(), h.Reason())
	}
	// The victim's wait phase timed out: it holds a polyvalue.  Crash
	// the coordinator (wiping its retransmission state), then heal: the
	// ONLY remaining channel to the outcome is gossip from the other
	// participants.
	if n := len(c.Store(victim).PolyItems()); n == 0 {
		t.Fatal("victim holds no polyvalue while cut off from the outcome")
	}
	c.Crash(coord)
	c.HealAll()
	c.RunFor(20 * time.Second)
	if n := len(c.Store(victim).PolyItems()); n != 0 {
		t.Fatalf("victim still holds %d polyvalues after gossip window", n)
	}
	if c.aeOutcomesLearned.Value() == 0 {
		t.Error("outcome was not learned via gossip")
	}
	c.HealAll()
	c.Restart(coord)
	c.RunFor(10 * time.Second)
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestQuorumRejectsReplicaNames: programs must use logical names.
func TestQuorumRejectsReplicaNames(t *testing.T) {
	c := newQuorumCluster(t, nil)
	h, err := c.Submit("A", "bal_r0 = bal_r0 + 1")
	if err != nil {
		t.Fatal(err)
	}
	qh, err := c.Query("A", "bal_r0 + 1")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if h.Status() != StatusAborted || !strings.Contains(h.Reason(), "replica namespace") {
		t.Fatalf("status = %v (%s), want replica-namespace abort", h.Status(), h.Reason())
	}
	if _, qerr, done := qh.Result(); !done || qerr == nil || !strings.Contains(qerr.Error(), "replica namespace") {
		t.Fatalf("query done=%v err=%v, want the replica-namespace error", done, qerr)
	}
}

// recorder is a transport that keeps every message sent through it.
type recorder struct {
	transport.Transport
	sent []protocol.Message
}

func (r *recorder) Send(msg protocol.Message) {
	r.sent = append(r.sent, msg)
	r.Transport.Send(msg)
}

// TestProbeLeavesLockHoldersVersionOut: a replica locked by a prepared
// writer still holds its value from before that prepare, so a probe
// reports it with the committed version, not the writer's pending one.
// Paired with the pending version, the old value could win the
// freshest-value pick over a replica holding a newer commit.  Once the
// lock is gone, the probe reports the pending version again.
func TestProbeLeavesLockHoldersVersionOut(t *testing.T) {
	c := newQuorumCluster(t, nil)
	if err := c.LoadReplicated("bal", polyvalue.Simple(value.Int(100))); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{Transport: c.fab}
	c.fab = rec
	const phys = "bal_r0"
	x := c.sites[c.Placement(phys)]
	from := c.Sites()[0]
	if from == x.id {
		from = c.Sites()[1]
	}
	probe := func(tid txn.ID) uint64 {
		t.Helper()
		c.fab.Send(protocol.Message{Kind: protocol.MsgReadReq, TID: tid, From: from, To: x.id,
			Items: []string{phys}, Update: true, Coordinator: from})
		c.RunFor(50 * time.Millisecond)
		for _, m := range rec.sent {
			if m.Kind == protocol.MsgReadRep && m.TID == tid {
				return m.Versions[phys]
			}
		}
		t.Fatalf("no read reply for %s", tid)
		return 0
	}
	x.do(func() {
		x.lockAll("t-writer", []string{phys})
		_ = x.store.SetVerPending("t-writer", map[string]uint64{phys: 2})
	})
	if v := probe("t-probe1"); v != 1 {
		t.Errorf("probe of a locked replica reports version %d, want the committed 1", v)
	}
	x.do(func() { x.releaseLocks("t-writer") })
	if v := probe("t-probe2"); v != 2 {
		t.Errorf("probe of the unlocked replica reports version %d, want the pending 2", v)
	}
}

// suspectingFabric is a fabric whose failure detector suspects one peer.
type suspectingFabric struct {
	transport.Transport
	suspect protocol.SiteID
}

func (f suspectingFabric) Suspected(id protocol.SiteID) bool { return id == f.suspect }

// TestGossipSkipsSuspectedPeers: gossip asks the node's fabric which
// peers are suspected, as Paxos takeover does, and spends no round on
// one.
func TestGossipSkipsSuspectedPeers(t *testing.T) {
	c := newQuorumCluster(t, nil)
	s := c.sites["A"]
	picks := func() map[protocol.SiteID]int {
		seen := map[protocol.SiteID]int{}
		for round := 0; round < 64; round++ {
			s.aeRound = round
			for _, id := range s.gossipPeers() {
				seen[id]++
			}
		}
		return seen
	}
	if seen := picks(); seen["B"] == 0 {
		t.Fatalf("B never picked with no detector: %v", seen)
	}
	c.fab = suspectingFabric{Transport: c.fab, suspect: "B"}
	seen := picks()
	if seen["B"] != 0 {
		t.Fatalf("suspected B picked %d times", seen["B"])
	}
	for _, id := range []protocol.SiteID{"C", "D", "E"} {
		if seen[id] == 0 {
			t.Fatalf("unsuspected %s never picked: %v", id, seen)
		}
	}
}
