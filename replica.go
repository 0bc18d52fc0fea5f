package polyvalues

import (
	"repro/internal/cluster"
	"repro/internal/replica"
)

// ---------------------------------------------------------------------
// Replication (§3: "an item that is replicated at several sites can be
// viewed as a set of individual items, one for each site")
// ---------------------------------------------------------------------

// ReplicationConfig turns on quorum replication as
// ClusterConfig.Replication: each logical item has K replicas on
// distinct sites, a write installs on W of them and a read hears from
// R.  Programs and queries name logical items; Cluster.LoadReplicated
// loads every replica.  W = K, R = 1 is write-all / read-one.
type ReplicationConfig = cluster.ReplicationConfig

// ReplicaName returns the physical name of a logical item's i-th
// replica, the name Cluster.Read and Cluster.Placement take.
func ReplicaName(logical string, i int) string { return replica.Name(logical, i) }
