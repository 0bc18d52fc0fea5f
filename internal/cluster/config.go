// Package cluster is the distributed-database runtime: one goroutine per
// site, a simulated network, and the paper's update protocol end to end —
// read collection, two-phase commit, wait-phase timeout with polyvalue
// installation (§3.1), polytransaction execution (§3.2), and distributed
// outcome propagation (§3.3).
//
// Determinism: although each site runs as its own goroutine, every
// message delivery and timer fires from the cluster's single
// discrete-event scheduler, and the dispatching event blocks until the
// target site finishes processing.  At most one goroutine is ever active,
// so a run is a pure function of (configuration, seed, submitted work) —
// which is what lets the failure-injection tests assert exact outcomes.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Policy selects the participant's behaviour when the wait phase times
// out.
type Policy uint8

const (
	// PolicyPolyvalue is the paper's mechanism: install polyvalues for
	// the transaction's updates and return to idle, keeping the items
	// available (§3.1).
	PolicyPolyvalue Policy = iota
	// PolicyBlocking is the classic 2PC baseline: hold the items locked
	// until the outcome is learned.  Used by the A1 ablation benchmark.
	PolicyBlocking
	// PolicyArbitrary is the paper's §2.3 "relaxed consistency" baseline:
	// the in-doubt site makes an arbitrary local decision to complete or
	// abort.  Processing continues (like polyvalues) but atomicity can be
	// violated — some sites may apply a transaction others discarded.
	// Used by the A3 ablation benchmark.
	PolicyArbitrary
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyBlocking:
		return "blocking"
	case PolicyArbitrary:
		return "arbitrary"
	default:
		return "polyvalue"
	}
}

// DecisionPlane selects where the commit/abort decision lives.
type DecisionPlane string

const (
	// PlaneWAL is the classic plane (and the default): the decision is
	// a single record in the coordinator's WAL, and a dead coordinator
	// leaves in-doubt participants waiting (polyvalues keep the data
	// available meanwhile).
	PlaneWAL DecisionPlane = "wal"
	// PlanePaxos replicates the decision with Paxos Commit (Gray &
	// Lamport): one Paxos instance per participant-vote across 2F+1
	// acceptor sites.  Any site can drive an in-doubt transaction to a
	// durable decision after up to F acceptor failures plus the
	// coordinator — presumed abort is replaced by consensus takeover.
	PlanePaxos DecisionPlane = "paxos"
)

// ReplicationConfig turns on k-way quorum replication.  Transactions
// and queries are written against LOGICAL item names; the coordinator
// probes all K physical replicas (<logical>_r<i>), proceeds once any W
// (writes) / R (reads) respond, picks the freshest value by version,
// and stamps every replica write with a new version.
// W+R > K guarantees every read quorum overlaps every write quorum, so
// the freshest committed value is always seen.  Replicas missed by a
// commit converge later through the anti-entropy gossip plane.
type ReplicationConfig struct {
	// K is the number of replicas per logical item (1 ≤ K ≤ len(Sites)).
	K int
	// W is the write quorum: a transaction commits onto the first W
	// replicas whose sites answered the read probe.
	W int
	// R is the read quorum: how many replica responses a read needs
	// before the freshest version is trusted.
	R int
}

// Config parameterizes a cluster.
type Config struct {
	// Sites lists the site identifiers; at least one.
	Sites []protocol.SiteID
	// Net configures latency/jitter/seed of the simulated network.
	Net network.Config
	// WaitTimeout is how long a participant waits for complete/abort
	// before installing polyvalues (or blocking, per Policy).
	// Default 250ms (simulated).
	WaitTimeout time.Duration
	// ReadyTimeout is how long the coordinator collects ready messages
	// before aborting.  Default 250ms (simulated).
	ReadyTimeout time.Duration
	// RetryInterval paces outcome-request retries from in-doubt sites.
	// Default 500ms (simulated).
	RetryInterval time.Duration
	// OutcomeTTL is how long an outcome record is at least retained once
	// its dependency entry is empty (every listed site has acknowledged
	// it, and every local item is reduced), before being garbage-collected
	// per §3.3; each site's one expiry sweep forgets it within
	// OutcomeTTL/16 after that.  0 means the default 5s (simulated);
	// negative disables GC entirely.
	OutcomeTTL time.Duration
	// CheckpointBytes triggers a WAL compaction whenever a site's log
	// exceeds this size (and twice its post-compaction size, so stores
	// whose live state alone exceeds the threshold are not compacted on
	// every message).  0 means the default 256 KiB; negative disables
	// auto-checkpointing.
	CheckpointBytes int
	// Policy selects wait-phase timeout behaviour.  Default
	// PolicyPolyvalue.
	Policy Policy
	// DecisionPlane selects where the commit/abort decision lives:
	// PlaneWAL (default) logs it on the coordinator only; PlanePaxos
	// replicates it across an acceptor group with Paxos Commit, making
	// the decision reachable after coordinator loss.
	DecisionPlane DecisionPlane
	// AdmissionLimit caps in-flight coordinated transactions per site;
	// over the cap, SubmitProgram sheds with ErrOverload (counted as
	// site.admission.shed) instead of queueing without bound.  0 or
	// negative means unlimited.
	AdmissionLimit int
	// TxnDeadline is the end-to-end time budget attached to every
	// submitted transaction.  The coordinator aborts expired work; the
	// remaining budget rides prepare messages, and a participant whose
	// deadline expires in the wait phase resolves per Policy (polyvalues,
	// blocking, or arbitrary) without waiting out the full WaitTimeout.
	// 0 or negative disables deadlines.
	TxnDeadline time.Duration
	// MaxPolyBudget caps the per-site polyvalue population.  At the cap
	// an in-doubt participant degrades to classic blocking 2PC — locks
	// held, nothing installed — until reductions free budget (the paper
	// presents polyvalues as an optional overlay on two-phase commit, so
	// plain 2PC is the principled fallback).  0 or negative means
	// unlimited.
	MaxPolyBudget int
	// MaxDepBudget caps the per-site §3.3 dependency-table size, with
	// the same degradation as MaxPolyBudget.  0 or negative means
	// unlimited.
	MaxDepBudget int
	// Spans, when set, receives structured per-transaction spans from
	// every site of this cluster: coordinator phases, participant
	// compute/wait/blocked intervals, polyvalue installs and reductions,
	// lock hold windows, and budget transitions.  Nil (the default)
	// disables span tracing entirely — no span is recorded and no trace
	// context is stamped on the wire, so the canonical payload encoding
	// is unchanged.  Harnesses keep the log outside the cluster so spans
	// survive crash/restart cycles.
	Spans *trace.SpanLog
	// Metrics, when set, is the registry all cluster/network/protocol/
	// storage series are registered against — share one registry across
	// clusters to aggregate, or leave nil for a private registry
	// (retrievable via Cluster.Metrics).
	Metrics *metrics.Registry
	// Placement maps an item to its owning site; nil means
	// replica.Placement over Sites: FNV-hash, with each logical item's
	// replicas on distinct sites.  Must be deterministic.
	Placement func(item string) protocol.SiteID
	// DataDir, when set, backs every site's store with a file WAL
	// (<DataDir>/<site>.wal).  A cluster re-created over the same
	// directory recovers each site's durable state — including in-doubt
	// transactions, which convert to polyvalues exactly as a site restart
	// would.  Close flushes and closes the logs.
	DataDir string
	// Replication, when set, turns on quorum replication over logical
	// item names (see ReplicationConfig).  Nil (the default) keeps the
	// classic single-copy protocol.
	Replication *ReplicationConfig
	// Lanes is accepted and ignored: every site runs one event queue
	// (see engine.go).  Deprecated; it goes once nothing sets it.
	Lanes int
	// SyncWAL, with DataDir set, makes every site event durable before
	// its outputs (protocol sends, client decisions) leave the site:
	// WAL frames route through a group-commit stage and an event's
	// outputs park until the flush that covers the records they depend
	// on.  One fsync retires every batch parked at that moment, so the
	// cost per event falls as load rises.  Simulated clusters (New)
	// ignore it: simulated time does not pass during an fsync.
	SyncWAL bool
	// DiskFS, with DataDir set, is the filesystem the site's WAL lives
	// on.  Nil means the real filesystem (storage.OSFS); tests and
	// torture harnesses pass a *fault.Disk to inject fsync
	// failures, torn writes, ENOSPC, read corruption and slow-disk
	// delays underneath the durability path.
	DiskFS storage.FS
}

func (c *Config) fillDefaults() {
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 250 * time.Millisecond
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 250 * time.Millisecond
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.OutcomeTTL == 0 {
		c.OutcomeTTL = 5 * time.Second
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 256 << 10
	}
	if c.DecisionPlane == "" {
		c.DecisionPlane = PlaneWAL
	}
}

func validDecisionPlane(p DecisionPlane) error {
	switch p {
	case "", PlaneWAL, PlanePaxos:
		return nil
	}
	return fmt.Errorf("cluster: unknown decision plane %q (have %q, %q)", p, PlaneWAL, PlanePaxos)
}

func validReplication(cfg *Config) error {
	r := cfg.Replication
	if r == nil {
		return nil
	}
	if r.K < 1 {
		return fmt.Errorf("cluster: replication needs K ≥ 1, got %d", r.K)
	}
	if r.K > len(cfg.Sites) {
		return fmt.Errorf("cluster: replication K=%d exceeds the %d configured sites", r.K, len(cfg.Sites))
	}
	if r.W < 1 || r.W > r.K {
		return fmt.Errorf("cluster: write quorum W=%d outside [1, K=%d]", r.W, r.K)
	}
	if r.R < 1 || r.R > r.K {
		return fmt.Errorf("cluster: read quorum R=%d outside [1, K=%d]", r.R, r.K)
	}
	if r.W+r.R <= r.K {
		return fmt.Errorf("cluster: quorums must overlap: W+R=%d must exceed K=%d", r.W+r.R, r.K)
	}
	return nil
}
