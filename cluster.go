package polyvalues

import (
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Distributed cluster runtime
// ---------------------------------------------------------------------

// SiteID names a database site.
type SiteID = protocol.SiteID

// Cluster is a deterministic goroutine-per-site distributed database
// running the paper's update protocol over a simulated network.
type Cluster = cluster.Cluster

// ClusterConfig parameterizes a cluster.
type ClusterConfig = cluster.Config

// NetConfig parameterizes the simulated network (latency, jitter, seed).
type NetConfig = network.Config

// Policy selects wait-phase timeout behaviour.
type Policy = cluster.Policy

// Wait-phase timeout policies.
const (
	// PolicyPolyvalue installs polyvalues and keeps the items available
	// (the paper's mechanism).
	PolicyPolyvalue = cluster.PolicyPolyvalue
	// PolicyBlocking holds the items locked until the outcome is known
	// (classic 2PC baseline).
	PolicyBlocking = cluster.PolicyBlocking
	// PolicyArbitrary makes an arbitrary local decision (the paper's
	// §2.3 relaxed-consistency baseline; can violate atomicity).
	PolicyArbitrary = cluster.PolicyArbitrary
)

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// SiteInfo is an observability snapshot of one site.
type SiteInfo = cluster.SiteInfo

// ErrStillUncertain reports a QueryCertain whose answer was still a
// polyvalue at its deadline (§3.4 withhold mode).
var ErrStillUncertain = cluster.ErrStillUncertain

// Handle tracks a submitted transaction.
type Handle = cluster.Handle

// QueryHandle tracks a read-only query.
type QueryHandle = cluster.QueryHandle

// Status is a transaction's client-visible state.
type Status = cluster.Status

// Client-visible transaction statuses.
const (
	StatusPending   = cluster.StatusPending
	StatusCommitted = cluster.StatusCommitted
	StatusAborted   = cluster.StatusAborted
)

// ClusterStats aggregates cluster-wide counters.
type ClusterStats = cluster.Stats

// ---------------------------------------------------------------------
// Observability (metrics registry, snapshots, text export)
// ---------------------------------------------------------------------

// MetricsRegistry is a named collection of counters, gauges and
// histograms.  Every cluster (and, when Params.Metrics is set, every sim
// run) reports into one; pass the same registry to several components to
// aggregate, or read a cluster's private registry via Cluster.Metrics.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry, sorted and
// deterministic; Diff computes the window between two snapshots and
// Export renders the Prometheus-style text form.
type MetricsSnapshot = metrics.Snapshot

// MetricsPoint is one series inside a snapshot.
type MetricsPoint = metrics.Point

// MetricsLabel attaches a dimension (site, phase, message type) to a
// series.
type MetricsLabel = metrics.Label

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// ---------------------------------------------------------------------
// Workload generators (§5 application domains)
// ---------------------------------------------------------------------

// Workload generates transaction mixes for the §5 application domains.
type Workload = workload.Generator

// WorkloadConfig parameterizes a workload generator.
type WorkloadConfig = workload.Config

// WorkloadKind selects the application domain.
type WorkloadKind = workload.Kind

// Workload kinds.
const (
	WorkloadBank         = workload.Bank
	WorkloadReservations = workload.Reservations
	WorkloadInventory    = workload.Inventory
)

// NewWorkload builds a workload generator.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.New(cfg) }

// ---------------------------------------------------------------------
// Experiment harness (cluster-level evaluation)
// ---------------------------------------------------------------------

// Experiment configures a cluster-level evaluation run: a workload under
// a coordinator-crash schedule, measuring availability and polyvalue
// population against the live protocol implementation.
type Experiment = harness.Experiment

// ExperimentReport is the outcome of one experiment.
type ExperimentReport = harness.Report

// ExperimentSample is one point of an experiment's population series.
type ExperimentSample = harness.Sample

// RunExperiment executes a cluster-level experiment.
func RunExperiment(e Experiment) (ExperimentReport, error) { return harness.Run(e) }

// ---------------------------------------------------------------------
// Multi-process runtime (wire codec + TCP transport + node)
// ---------------------------------------------------------------------

// Transport is the message fabric a cluster site sends protocol
// messages through: the simulated network NewCluster builds, or real TCP
// sockets between processes (NewTCPTransport).
type Transport = transport.Transport

// TCPTransport carries protocol messages between OS processes over TCP
// using the versioned binary wire codec, with per-peer reconnect
// (capped exponential backoff + jitter) and write deadlines.
type TCPTransport = transport.TCP

// TCPTransportConfig parameterizes a TCP transport for one site.
type TCPTransportConfig = transport.TCPConfig

// NewTCPTransport opens the listener and starts per-peer writers.
func NewTCPTransport(cfg TCPTransportConfig) (*TCPTransport, error) {
	return transport.NewTCP(cfg)
}

// NewNode builds a single-site cluster over a caller-supplied transport
// on wall-clock time — one process of a multi-process cluster (see
// cmd/polynode).  Every process must pass the identical cfg.Sites list.
func NewNode(cfg ClusterConfig, self SiteID, fab Transport) (*Cluster, error) {
	return cluster.NewNode(cfg, self, fab)
}
