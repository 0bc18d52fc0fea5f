// Replication (§3): "an item that is replicated at several sites can be
// viewed as a set of individual items, one for each site."
//
// A balance is replicated on three sites, write-all / read-one: quorum
// replication with W = K = 3 and R = 1.  Programs and queries name the
// logical item; the cluster reads and writes its replicas.  A read
// survives the crash of a replica's site with no failover by the client.
// Then a replicated write is interrupted at the critical 2PC moment:
// every replica goes in doubt *coherently* — the same condition on
// every copy — and when the failure is repaired all replicas reduce to
// the same certain value.  Replication and polyvalues compose.
//
//	go run ./examples/replicated
package main

import (
	"fmt"
	"time"

	polyvalues "repro"
)

const k = 3 // replication factor

func main() {
	sites := []polyvalues.SiteID{"s0", "s1", "s2", "s3"}
	cluster, err := polyvalues.NewCluster(polyvalues.ClusterConfig{
		Sites:       sites,
		Net:         polyvalues.NetConfig{Latency: 10 * time.Millisecond},
		Replication: &polyvalues.ReplicationConfig{K: k, W: k, R: 1},
	})
	must(err)
	defer cluster.Close()

	must(cluster.LoadReplicated("bal", polyvalues.Simple(polyvalues.Int(1000))))
	fmt.Println("bal replicated 3 ways:")
	replicaSites := map[polyvalues.SiteID]bool{}
	for i := 0; i < k; i++ {
		name := polyvalues.ReplicaName("bal", i)
		replicaSites[cluster.Placement(name)] = true
		fmt.Printf("  %s on %s = %s\n", name, cluster.Placement(name), cluster.Read(name))
	}

	// A replicated debit: one logical statement, written to all three
	// replicas atomically.
	const debit = "bal = bal - 100 if bal >= 100"
	h, err := cluster.Submit("s0", debit)
	must(err)
	cluster.RunFor(time.Second)
	fmt.Println("\nreplicated debit:", h.Status())

	// Crash replica 0's site; a read of bal needs only one replica.
	primary := cluster.Placement(polyvalues.ReplicaName("bal", 0))
	cluster.Crash(primary)
	fmt.Printf("\n%s (replica 0's site) crashed\n", primary)
	var coordinator polyvalues.SiteID
	for _, s := range sites {
		if s != primary {
			coordinator = s
			break
		}
	}
	q, err := cluster.Query(coordinator, "bal")
	must(err)
	cluster.RunFor(time.Second)
	if p, qerr, done := q.Result(); done && qerr == nil {
		fmt.Println("read of bal:", p)
	}
	cluster.Restart(primary)
	cluster.RunFor(2 * time.Second)

	// Now interrupt a replicated write at the critical moment: the
	// coordinator crashes after collecting every ready.  All THREE
	// replicas become polyvalues with the SAME condition.
	var outsider polyvalues.SiteID
	for _, s := range sites {
		if !replicaSites[s] {
			outsider = s
			break
		}
	}
	cluster.ArmCrashBeforeDecision(outsider)
	h2, err := cluster.Submit(outsider, debit)
	must(err)
	cluster.RunFor(2 * time.Second)
	fmt.Printf("\ninterrupted replicated debit (coordinator %s crashed): %v\n", outsider, h2.Status())
	for i := 0; i < k; i++ {
		fmt.Printf("  replica %d: %s\n", i, cluster.Read(polyvalues.ReplicaName("bal", i)))
	}

	// Repair: presumed abort; every replica reduces to the same value.
	cluster.Restart(outsider)
	cluster.RunFor(10 * time.Second)
	fmt.Println("\nafter repair:")
	for i := 0; i < k; i++ {
		fmt.Printf("  replica %d: %s\n", i, cluster.Read(polyvalues.ReplicaName("bal", i)))
	}
	fmt.Println("polyvalued items remaining:", len(cluster.PolyItems()))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
