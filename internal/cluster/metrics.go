package cluster

import (
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Metric series maintained by the cluster runtime:
//
//	txn.submitted / txn.committed / txn.aborted / txn.indoubt /
//	txn.refused                      — outcome counters (the Stats view)
//	txn.latency.seconds              — committed-transaction latency
//	protocol.phase.seconds{phase=}   — read, prepare, wait, settle
//	poly.installs / poly.reductions  — per-item lifecycle counters
//	poly.forks                       — polytransaction outputs that were
//	                                   themselves uncertain (§3.2 spread)
//	poly.population                  — live polyvalued-item gauge
//	poly.lifetime.seconds            — install→reduction per item, the
//	                                   paper's §4 figure-level quantity
//	txn.decision.resends             — coordinator complete/abort
//	                                   retransmissions to unacked sites
//	txn.outcome.retries              — participant outcome-inquiry
//	                                   retries (backoff-paced)
//	txn.deadline.exceeded{role=}     — end-to-end deadline expiries seen
//	                                   by coordinators / participants
//	txn.outcome.conflicts{site}      — outcome reports contradicting the
//	                                   outcome on record (an atomicity
//	                                   break; registered on first use)
//	txn.degraded.blocking            — in-doubt transactions that held
//	                                   their locks (blocking 2PC) because
//	                                   the polyvalue budget was exhausted
//	paxos.votes / paxos.accepts /    — PlanePaxos decision plane:
//	paxos.rejects / paxos.takeovers /  ballot-0 votes cast, durable
//	paxos.decisions                    acceptor accepts, promise/accept
//	                                   nacks, takeover rounds started,
//	                                   and decisions reached by takeover
//	                                   leaders (fast-path decisions land
//	                                   in txn.committed/aborted directly)
//	antientropy.rounds /             — quorum-replication gossip plane:
//	antientropy.outcomes.learned /     rounds initiated, transaction
//	antientropy.items.copied           outcomes first learned via gossip
//	                                   (each one a potential polyvalue
//	                                   reduction with no coordinator
//	                                   involved), and stale replica
//	                                   values converged by value copy
//	site.admission.shed{site}        — submissions shed over the cap
//	site.admission.inflight{site}    — credits currently held
//	site.budget.mode{site}           — 0 polyvalue, 1 blocking (degraded)
//	site.budget.degradations{site} / site.budget.restores{site}
//	site.inbox.depth{site} / site.inbox.hwm{site} / site.inbox.shed{site}
//	site.durability.panics{site}     — fsyncgate self-crashes: times a
//	                                   site killed its incarnation after
//	                                   a failed WAL write/fsync rather
//	                                   than ack durability it may not
//	                                   have (restart then refuses until
//	                                   the node is rebuilt from disk)
//	storage.corrupt.reads{site}      — recovery read passes whose bytes
//	                                   were damaged in the read path and
//	                                   healed on re-read (CRC-detected
//	                                   latent corruption, quarantined
//	                                   when persistent)
//	storage.fault.injected{kind}     — disk faults injected by a
//	                                   configured fault.Disk
//	                                   (fsync | torn | enospc |
//	                                   readflip | slow)
//	item.blocked.seconds{site,cause}  — the blocking accountant: how long
//	                                   each locked item was unreadable and
//	                                   why (lock | indoubt | degraded);
//	                                   its _sum is the blocked-item-seconds
//	                                   quantity the paper's availability
//	                                   claim is about (see spans.go)
//	poly.residency.seconds{site}     — per-site install→reduction interval
//	                                   (the site-sliced poly.lifetime)
//
// When span tracing is enabled (Config.Spans), trace.spans.dropped and
// trace.spans.retained describe the span log's occupancy.
//
// The network and storage layers add network.* and storage.wal.* series
// to the same registry; the protocol state machines add protocol.* event
// counters.

// lifeKey identifies one polyvalued item at one site for lifetime
// tracking (the same item name can be polyvalued at several sites when
// uncertainty propagates).
type lifeKey struct {
	site protocol.SiteID
	item string
}

// initMetrics registers every cluster-level series against the registry
// and caches the hot-path instruments.  Called once from New.
func (c *Cluster) initMetrics(reg *metrics.Registry) {
	c.reg = reg
	c.submitted = reg.Counter("txn.submitted")
	c.committed = reg.Counter("txn.committed")
	c.aborted = reg.Counter("txn.aborted")
	c.inDoubt = reg.Counter("txn.indoubt")
	c.refused = reg.Counter("txn.refused")
	c.latency = reg.Histogram("txn.latency.seconds")
	c.polyInstalls = reg.Counter("poly.installs")
	c.polyReductions = reg.Counter("poly.reductions")
	c.polyForks = reg.Counter("poly.forks")
	c.population = reg.Gauge("poly.population")
	c.lifetime = reg.Histogram("poly.lifetime.seconds")
	c.phaseRead = reg.Histogram("protocol.phase.seconds", metrics.L("phase", "read"))
	c.phasePrepare = reg.Histogram("protocol.phase.seconds", metrics.L("phase", "prepare"))
	c.phaseWait = reg.Histogram("protocol.phase.seconds", metrics.L("phase", "wait"))
	c.phaseSettle = reg.Histogram("protocol.phase.seconds", metrics.L("phase", "settle"))
	c.decisionResends = reg.Counter("txn.decision.resends")
	c.outcomeRetries = reg.Counter("txn.outcome.retries")
	c.deadlineCoord = reg.Counter("txn.deadline.exceeded", metrics.L("role", "coordinator"))
	c.deadlinePart = reg.Counter("txn.deadline.exceeded", metrics.L("role", "participant"))
	c.degradedTxns = reg.Counter("txn.degraded.blocking")
	c.paxosVotes = reg.Counter("paxos.votes")
	c.paxosAccepts = reg.Counter("paxos.accepts")
	c.paxosRejects = reg.Counter("paxos.rejects")
	c.paxosTakeovers = reg.Counter("paxos.takeovers")
	c.paxosDecisions = reg.Counter("paxos.decisions")
	c.aeRounds = reg.Counter("antientropy.rounds")
	c.aeOutcomesLearned = reg.Counter("antientropy.outcomes.learned")
	c.aeItemsCopied = reg.Counter("antientropy.items.copied")
	c.installAt = map[lifeKey]vclock.Time{}
	c.residency = map[protocol.SiteID]*metrics.Histogram{}
}

// Metrics exposes the cluster's registry for snapshots, diffs and text
// export.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// trackPut maintains the polyvalue population gauge and the lifetime
// histogram across an item-store write: a certain→uncertain transition is
// an install (timestamped with the simulated clock), uncertain→certain a
// reduction whose lifetime is observed.  Runs on the writing site's
// goroutine; cluster events are serialized, so the map needs no lock.
func (c *Cluster) trackPut(site protocol.SiteID, item string, before, after polyvalue.Poly) {
	_, wasCertain := before.IsCertain()
	_, isCertain := after.IsCertain()
	if wasCertain == isCertain {
		return
	}
	key := lifeKey{site: site, item: item}
	now := c.clk.Now()
	if isCertain {
		c.population.Add(-1)
		if t, ok := c.installAt[key]; ok {
			c.lifetime.Observe((now - t).Seconds())
			c.residencyHist(site).Observe((now - t).Seconds())
			delete(c.installAt, key)
		}
		return
	}
	c.population.Add(1)
	c.installAt[key] = now
}

// residencyHist returns (registering on first use) the per-site
// polyvalue residency histogram: the same install→reduction interval as
// poly.lifetime.seconds, broken out by the site holding the item.
func (c *Cluster) residencyHist(site protocol.SiteID) *metrics.Histogram {
	h, ok := c.residency[site]
	if !ok {
		h = c.reg.Histogram("poly.residency.seconds", metrics.L("site", string(site)))
		c.residency[site] = h
	}
	return h
}

// seedLifecycle accounts for polyvalues already present in a recovered
// store at cluster construction (file-backed DataDir restarts): they
// join the population gauge with their install time taken as the
// cluster's epoch.
func (c *Cluster) seedLifecycle(site protocol.SiteID, items []string) {
	for _, item := range items {
		c.population.Add(1)
		c.installAt[lifeKey{site: site, item: item}] = c.clk.Now()
	}
}
