package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// contended runs the contended transfer workload: 3 sites over a 5 ms
// link with 3 ms of jitter, 64 accounts of 1,000, and 400 rounds of 16
// guarded transfers, worker w submitting at site w mod 3, each round
// followed by 0–7 ms of quiet; then 60 s to settle.  readRound picks the
// form in which each share reads the other's item, so neither site is a
// source and every transfer runs the read round; otherwise the debit
// site is a source and the transfer is chained.  rep, when set,
// replicates every account.  It returns the commits and the sum of the
// accounts, each read from its freshest replica, and fails the test on
// any account left uncertain.
func contended(t *testing.T, seed int64, rep *ReplicationConfig, readRound bool) (commits, total int64) {
	t.Helper()
	sites := []protocol.SiteID{"s0", "s1", "s2"}
	c, err := New(Config{
		Sites:       sites,
		Net:         network.Config{Latency: 5 * time.Millisecond, Jitter: 3 * time.Millisecond, Seed: seed},
		Replication: rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const accounts = 64
	for i := 0; i < accounts; i++ {
		if err := c.LoadReplicated(fmt.Sprintf("acct%d", i), polyvalue.Simple(value.Int(1000))); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var hs []*Handle
	for round := 0; round < 400; round++ {
		for w := 0; w < 16; w++ {
			a := rng.Intn(accounts)
			b := (a + 1 + rng.Intn(accounts-1)) % accounts
			amt := 1 + rng.Intn(100)
			guard := fmt.Sprintf("acct%d >= %d", a, amt)
			if readRound {
				guard += fmt.Sprintf(" && acct%d >= 0", b)
			}
			h, err := c.Submit(sites[w%len(sites)], fmt.Sprintf("acct%d = acct%d - %d if %s; acct%d = acct%d + %d if %s",
				a, a, amt, guard, b, b, amt, guard))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		c.RunFor(time.Duration(rng.Intn(8)) * time.Millisecond)
	}
	c.RunFor(60 * time.Second)
	for _, h := range hs {
		if h.Status() == StatusCommitted {
			commits++
		}
	}
	for i := 0; i < accounts; i++ {
		item := fmt.Sprintf("acct%d", i)
		p := freshest(c, item)
		v, ok := p.IsCertain()
		if !ok {
			t.Errorf("seed %d: %s uncertain after settle: %v", seed, item, p)
			continue
		}
		n, _ := value.AsInt(v)
		total += n
	}
	return commits, total
}

// TestContendedReadRound: the contended workload in the read-round form,
// unreplicated.  Every transfer reads without a lock and is certified by
// stamp at prepare; money is conserved and every account settles.
func TestContendedReadRound(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		commits, total := contended(t, seed, nil, true)
		t.Logf("seed %d: %d of 6400 committed", seed, commits)
		if total != 64*1000 {
			t.Errorf("seed %d: total %d, want %d", seed, total, 64*1000)
		}
	}
}

// TestContendedQuorum: the same workload, chained, over K=3/W=2/R=2
// replicas; money is conserved on the freshest replicas.  A probe that
// paired a replica's old value with the pending version of the writer
// locking it let that stale value win the freshest-value pick, and lost
// or minted money on every seed.
func TestContendedQuorum(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		commits, total := contended(t, seed, &ReplicationConfig{K: 3, W: 2, R: 2}, false)
		t.Logf("seed %d: %d of 6400 committed", seed, commits)
		if total != 64*1000 {
			t.Errorf("seed %d: total %d, want %d", seed, total, 64*1000)
		}
	}
}
