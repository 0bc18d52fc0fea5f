package cluster

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// Stats aggregates cluster-wide outcome counters.
type Stats struct {
	Committed int64
	Aborted   int64
	// InDoubt counts wait-phase timeouts: transactions converted to
	// polyvalues (polyvalue policy) or blocked (blocking policy).
	InDoubt int64
	// PolyInstalls counts polyvalues written to stores (per item).
	PolyInstalls int64
	// PolyReductions counts polyvalue reductions driven by learned
	// outcomes (per item).
	PolyReductions int64
	// Refused counts participant refusals (lock conflicts, compute
	// errors).
	Refused int64
}

// Cluster wires sites, fabric and clock together.  Two runtimes share
// this type: the deterministic simulation (New: discrete-event scheduler
// plus simulated network) and the wall-clock node (NewNode: real time
// plus a caller-supplied transport, typically TCP).  clk and fab are the
// seams all protocol code schedules and sends through; sched and faults
// are the simulation concretions behind them and are nil in node mode.  The
// sites run one event engine (engine.go) on both.
type Cluster struct {
	cfg Config
	clk vclock.Clock
	fab transport.Transport
	// wall is set in node mode only; Close stops it.
	wall *vclock.Wall
	// deliver is how transport deliveries enqueue at a site: the
	// scheduler's delivery events wait for the handler (determinism),
	// TCP read loops queue the message and move on.
	deliver enqueueMode
	sched   *vclock.Scheduler
	faults  *fault.Injector
	sites   map[protocol.SiteID]*Site
	order   []protocol.SiteID
	logs    []*storage.FileLog
	glogs   []*storage.GroupLog
	ids     *txn.IDGen
	qids    *txn.IDGen
	// stamps is the last item change stamp minted (see Site.stampOf).
	// One counter serves every site and outlives Restart, so a site never
	// reissues a stamp; node mode starts it at the boot epoch.
	stamps atomic.Uint64

	// reg is the metrics registry every layer reports into; the named
	// fields below cache the hot-path instruments (see metrics.go for the
	// series catalogue).
	reg               *metrics.Registry
	submitted         *metrics.Counter
	committed         *metrics.Counter
	aborted           *metrics.Counter
	inDoubt           *metrics.Counter
	polyInstalls      *metrics.Counter
	polyReductions    *metrics.Counter
	polyForks         *metrics.Counter
	refused           *metrics.Counter
	latency           *metrics.Histogram
	population        *metrics.Gauge
	lifetime          *metrics.Histogram
	phaseRead         *metrics.Histogram
	phasePrepare      *metrics.Histogram
	phaseWait         *metrics.Histogram
	phaseSettle       *metrics.Histogram
	decisionResends   *metrics.Counter
	outcomeRetries    *metrics.Counter
	deadlineCoord     *metrics.Counter
	deadlinePart      *metrics.Counter
	degradedTxns      *metrics.Counter
	paxosVotes        *metrics.Counter
	paxosAccepts      *metrics.Counter
	paxosRejects      *metrics.Counter
	paxosTakeovers    *metrics.Counter
	paxosDecisions    *metrics.Counter
	aeRounds          *metrics.Counter
	aeOutcomesLearned *metrics.Counter
	aeItemsCopied     *metrics.Counter
	// installAt timestamps live polyvalued items for the lifetime
	// histogram; only touched from serialized site events.
	installAt map[lifeKey]vclock.Time
	// residency caches the per-site poly.residency.seconds histograms,
	// filled lazily as sites reduce; only touched from serialized site
	// events.
	residency map[protocol.SiteID]*metrics.Histogram
}

// newCluster validates and defaults cfg and builds what both runtimes
// share; the constructors add the clock, the transport and the sites.
func newCluster(cfg Config) (*Cluster, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("cluster: no sites configured")
	}
	if err := validDecisionPlane(cfg.DecisionPlane); err != nil {
		return nil, err
	}
	if err := validReplication(&cfg); err != nil {
		return nil, err
	}
	if cfg.Placement == nil {
		cfg.Placement = replica.Placement(append([]protocol.SiteID{}, cfg.Sites...))
	}
	cfg.fillDefaults()
	c := &Cluster{
		cfg:   cfg,
		sites: map[protocol.SiteID]*Site{},
		order: append([]protocol.SiteID{}, cfg.Sites...),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c.initMetrics(reg)
	return c, nil
}

// New builds a cluster; sites start up immediately.
func New(cfg Config) (*Cluster, error) {
	seen := map[protocol.SiteID]bool{}
	for _, s := range cfg.Sites {
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate site %q", s)
		}
		seen[s] = true
	}
	// The scheduler runs one event at a time and simulated time does not
	// pass during an fsync, so there is nothing for a group-commit stage
	// to overlap: synchronous WAL writes.
	cfg.SyncWAL = false
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	cfg, reg := c.cfg, c.reg
	c.sched = vclock.NewScheduler()
	c.ids, c.qids = txn.NewIDGen("t"), txn.NewIDGen("q")
	net := network.New(c.sched, cfg.Net)
	net.Instrument(reg)
	c.faults = fault.Wrap(net, fault.Config{Seed: cfg.Net.Seed, Metrics: reg, Clock: c.sched})
	c.clk, c.fab = c.sched, c.faults
	for _, id := range cfg.Sites {
		s, err := c.openSite(id)
		if err != nil {
			return nil, err
		}
		c.fab.Register(id, s.onMessage)
	}
	// Process-restart semantics for persistent clusters: any site that
	// recovered in-doubt state converts it exactly as a site restart
	// would, as the first scheduled event.
	if cfg.DataDir != "" {
		for _, id := range cfg.Sites {
			site := c.sites[id]
			c.dispatch(site, site.recoverDurableState, wait)
		}
	}
	return c, nil
}

// openSite builds one site's store — file-backed when DataDir is set,
// with the group-commit stage in front of the file when SyncWAL asks for
// one — and starts the site over it.
func (c *Cluster) openSite(id protocol.SiteID) (*Site, error) {
	store := storage.NewStore()
	var flog *storage.FileLog
	var glog *storage.GroupLog
	if c.cfg.DataDir != "" {
		var stats storage.RecoverStats
		var err error
		store, flog, stats, err = storage.OpenFileStoreFS(c.cfg.DiskFS, filepath.Join(c.cfg.DataDir, string(id)+".wal"))
		if err != nil {
			return nil, fmt.Errorf("cluster: site %s: %w", id, err)
		}
		if stats.CorruptReads > 0 {
			c.reg.Counter("storage.corrupt.reads", metrics.L("site", string(id))).Add(int64(stats.CorruptReads))
		}
		c.logs = append(c.logs, flog)
		// Polyvalues recovered from a previous process join the
		// population gauge with install time = this cluster's epoch.
		c.seedLifecycle(id, store.PolyItems())
		if c.cfg.SyncWAL {
			// Durable mode: WAL frames route through the group-commit
			// stage and each site event waits for its records before its
			// outputs leave the site.
			glog = storage.NewGroupLog(flog)
			store.SetWALSink(glog)
			c.glogs = append(c.glogs, glog)
		}
	}
	store.Instrument(c.reg, string(id))
	s := newSite(c, id, store, flog, glog)
	c.sites[id] = s
	return s, nil
}

// Close stops every site goroutine, stops the wall clock and transport
// in node mode (the simulated fabric's Close is a no-op), and flushes/
// closes any file-backed WALs.  In the simulated runtime the cluster
// must be idle (no event currently dispatching).
func (c *Cluster) Close() {
	for _, s := range c.sites {
		s.close()
	}
	if c.wall != nil {
		c.wall.Stop()
	}
	if c.fab != nil {
		_ = c.fab.Close()
	}
	// Drain group-commit stages before closing the files under them.
	for _, g := range c.glogs {
		_ = g.Close()
	}
	c.glogs = nil
	for _, log := range c.logs {
		_ = log.Close()
	}
	c.logs = nil
}

// Placement returns the owning site for an item.
func (c *Cluster) Placement(item string) protocol.SiteID { return c.cfg.Placement(item) }

// Now returns the cluster clock's current time (simulated in the
// scheduler runtime, wall-relative in node mode).
func (c *Cluster) Now() vclock.Time { return c.clk.Now() }

// requireSim panics with a clear message when a simulation-only method
// is called in node mode.
func (c *Cluster) requireSim(method string) {
	if c.sched == nil {
		panic("cluster: " + method + " requires the simulated runtime (New); node mode runs on wall time")
	}
}

// RunUntil advances simulated time, executing all events up to t.
func (c *Cluster) RunUntil(t vclock.Time) { c.requireSim("RunUntil"); c.sched.RunUntil(t) }

// RunFor advances simulated time by d.
func (c *Cluster) RunFor(d vclock.Time) {
	c.requireSim("RunFor")
	c.sched.RunUntil(c.sched.Now() + d)
}

// Step executes the next scheduled event; false when idle.
func (c *Cluster) Step() bool { c.requireSim("Step"); return c.sched.Step() }

// Submit starts a transaction with the given site as coordinator.  The
// returned handle resolves as events run (RunUntil / RunFor / Step).
func (c *Cluster) Submit(coord protocol.SiteID, src string) (*Handle, error) {
	p, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.SubmitProgram(coord, p)
}

// SubmitProgram is Submit for a pre-parsed program.  Load generators
// parse their transaction mix once up front and call this on the hot
// path, keeping parser cost out of the measured submit loop.
func (c *Cluster) SubmitProgram(coord protocol.SiteID, p expr.Program) (*Handle, error) {
	site, ok := c.sites[coord]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown site %q", coord)
	}
	// Admission control: a site over its in-flight cap sheds the
	// submission up front — nothing enqueued, nothing to clean up — and
	// the caller gets a typed error it can back off on.
	if !site.admission.TryAcquire() {
		return nil, ErrOverload
	}
	t := txn.T{ID: c.ids.Next(), Program: p}
	c.submitted.Inc()
	h := &Handle{
		TID: t.ID, submitted: c.clk.Now(), done: make(chan struct{}),
		release: site.admission.Release,
	}
	c.dispatch(site, func() { site.beginTxn(t, h) }, wait)
	return h, nil
}

// dispatch hands fn to a site as an event "now".  The simulated runtime
// routes it through the scheduler, and waits for it there, so it
// interleaves deterministically with every other event (and never sheds:
// determinism must not depend on queue depth).  On a wall clock the site
// queue is already the serialization point and a zero-delay timer per
// submit would be pure overhead (lock + map churn + an extra goroutine
// on the submit hot path).  Reports false only when a shed-mode event
// was shed.
func (c *Cluster) dispatch(site *Site, fn func(), mode enqueueMode) bool {
	if c.wall == nil {
		c.clk.At(c.clk.Now(), func() { site.enqueue(siteEvent{fn: fn}, wait) })
		return true
	}
	return site.enqueue(siteEvent{fn: fn}, mode)
}

// Query starts a read-only query (an expression over items) with the
// given site as coordinator.  The result may be a polyvalue; per §3.4
// the caller chooses whether to present the uncertainty or wait.
func (c *Cluster) Query(coord protocol.SiteID, exprSrc string) (*QueryHandle, error) {
	return c.query(coord, exprSrc, 0)
}

// QueryCertain is §3.4's second option: "withhold those outputs until
// the uncertainty is resolved."  The query re-polls while its answer is
// a polyvalue; if it has not become certain within wait (simulated
// time), the handle completes with ErrStillUncertain alongside the
// uncertain answer, letting the caller decide what to do with it.
func (c *Cluster) QueryCertain(coord protocol.SiteID, exprSrc string, wait vclock.Time) (*QueryHandle, error) {
	if wait <= 0 {
		return nil, fmt.Errorf("cluster: QueryCertain needs a positive wait, got %v", wait)
	}
	return c.query(coord, exprSrc, wait)
}

// query starts a query that withholds an uncertain answer for up to
// wait (zero: answer at once, polyvalue or not).
func (c *Cluster) query(coord protocol.SiteID, exprSrc string, wait vclock.Time) (*QueryHandle, error) {
	site, ok := c.sites[coord]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown site %q", coord)
	}
	node, err := expr.ParseExpr(exprSrc)
	if err != nil {
		return nil, err
	}
	qh := newQueryHandle()
	qid := c.qids.Next()
	var certainBy vclock.Time
	if wait > 0 {
		certainBy = c.clk.Now() + wait
	}
	// Queries are sheddable: a full site queue answers ErrOverload
	// instead of blocking the caller behind protocol traffic.
	if !c.dispatch(site, func() { site.beginQuery(qid, node, qh, certainBy) }, shed) {
		return nil, ErrOverload
	}
	return qh, nil
}

// Load installs an initial value directly at the owning site, outside any
// transaction (bootstrap only; uses the store, not the protocol).
func (c *Cluster) Load(item string, p polyvalue.Poly) error {
	site := c.sites[c.Placement(item)]
	if site == nil {
		return fmt.Errorf("cluster: item %q is placed at remote site %s", item, c.Placement(item))
	}
	var err error
	site.do(func() { err = site.put(item, p) })
	return err
}

// LoadReplicated installs p at every locally-run replica of a logical
// item at version 1 (bootstrap only, like Load).  Without replication
// it is plain Load.  In node mode, replicas placed at remote sites are
// skipped — each node loads the replicas it hosts.
func (c *Cluster) LoadReplicated(logical string, p polyvalue.Poly) error {
	rep := c.cfg.Replication
	if rep == nil {
		return c.Load(logical, p)
	}
	if err := replica.CheckName(logical); err != nil {
		return err
	}
	for i := 0; i < rep.K; i++ {
		phys := replica.Name(logical, i)
		site := c.sites[c.Placement(phys)]
		if site == nil {
			continue // node mode: this replica lives at a remote site
		}
		var err error
		site.do(func() {
			if err = site.put(phys, p); err == nil {
				_, _ = site.store.SetVersion(phys, 1)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Read returns the current value of an item straight from its owning
// site's store (inspection; not a protocol read).  The store's sharded
// item map is safe for concurrent access, so this does not round-trip
// through the site event loop — a load generator can sample state
// without stealing event-loop cycles from the protocol.
func (c *Cluster) Read(item string) polyvalue.Poly {
	site := c.sites[c.Placement(item)]
	if site == nil {
		return polyvalue.Poly{}
	}
	return site.store.Get(item)
}

// Crash takes a site down: volatile state (locks, in-flight transaction
// contexts, timers) is lost; the WAL-backed store survives.
func (c *Cluster) Crash(id protocol.SiteID) {
	site := c.sites[id]
	site.do(func() { site.crash() })
}

// Restart brings a crashed site back: it recovers from its store, and
// each prepared-but-unresolved transaction resumes in its wait phase and
// settles at once by the live wait-timeout rule — polyvalues under the
// polyvalue policy, so processing can continue immediately.
func (c *Cluster) Restart(id protocol.SiteID) {
	site := c.sites[id]
	site.do(func() { site.restart() })
}

// IsDown reports whether the site is crashed.
func (c *Cluster) IsDown(id protocol.SiteID) bool { return c.fab.IsDown(id) }

// DurabilityLost reports whether the site's current incarnation took a
// durability panic (failed WAL write/fsync).  Such a site refuses
// Restart — only rebuilding the node, which re-reads the on-disk log,
// recovers it.
func (c *Cluster) DurabilityLost(id protocol.SiteID) bool {
	site := c.sites[id]
	if site == nil {
		return false
	}
	var lost bool
	site.do(func() { lost = site.durLost })
	return lost
}

// Partition severs the link between two sites in both directions,
// including messages already in flight on it (simulation only).
func (c *Cluster) Partition(a, b protocol.SiteID) { c.Faults().Partition(a, b, false, 0) }

// Heal restores the link between two sites (simulation only).
func (c *Cluster) Heal(a, b protocol.SiteID) { c.Faults().HealLink(a, b) }

// HealAll restores all links.  Crashed sites stay crashed until Restart;
// only link cuts are healed here.
func (c *Cluster) HealAll() { c.Faults().HealAll() }

// Faults is the simulated fabric's fault injector (simulation only): the
// same plan grammar, rules and counters polynode's FAULT verb drives
// over TCP, timed on the scheduler and seeded from Net.Seed.
func (c *Cluster) Faults() *fault.Injector { c.requireSim("Faults"); return c.faults }

// Sites returns the site IDs in configuration order.
func (c *Cluster) Sites() []protocol.SiteID {
	return append([]protocol.SiteID{}, c.order...)
}

// Store exposes a site's store for inspection and invariant checks.
func (c *Cluster) Store(id protocol.SiteID) *storage.Store { return c.sites[id].store }

// PolyItems returns every item currently holding a polyvalue, across all
// sites, sorted per site order.  Reads the thread-safe stores directly.
func (c *Cluster) PolyItems() []string {
	var out []string
	for _, id := range c.order {
		site := c.sites[id]
		if site == nil {
			continue
		}
		out = append(out, site.store.PolyItems()...)
	}
	return out
}

// SiteInfo is an observability snapshot of one site.
type SiteInfo struct {
	ID protocol.SiteID
	// Down reports the crash state.
	Down bool
	// Items and PolyItems count stored and currently-uncertain items.
	Items, PolyItems int
	// Prepared counts in-doubt transactions not yet settled locally.
	Prepared int
	// Awaits counts outcome-request loops pending against coordinators.
	Awaits int
	// WALBytes is the current log size.
	WALBytes int
	// Locks counts items currently locked by in-flight transactions.
	Locks int
}

// SiteInfo snapshots one site's observable state.
func (c *Cluster) SiteInfo(id protocol.SiteID) (SiteInfo, error) {
	site, ok := c.sites[id]
	if !ok {
		return SiteInfo{}, fmt.Errorf("cluster: unknown site %q", id)
	}
	var info SiteInfo
	site.do(func() {
		info = SiteInfo{
			ID:        id,
			Down:      site.down,
			Items:     len(site.store.Items()),
			PolyItems: len(site.store.PolyItems()),
			Prepared:  len(site.store.PreparedTxns()),
			Awaits:    len(site.store.Awaits()),
			WALBytes:  site.store.WALSize(),
			Locks:     len(site.locks),
		}
	})
	return info, nil
}

// Snapshot copies every item across all sites into one map (inspection
// and debugging; not a consistent cut while transactions are in flight).
// Reads the thread-safe stores directly.
func (c *Cluster) Snapshot() map[string]polyvalue.Poly {
	out := map[string]polyvalue.Poly{}
	for _, id := range c.order {
		site := c.sites[id]
		if site == nil {
			continue
		}
		for _, item := range site.store.Items() {
			out[item] = site.store.Get(item)
		}
	}
	return out
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Committed:      c.committed.Value(),
		Aborted:        c.aborted.Value(),
		InDoubt:        c.inDoubt.Value(),
		PolyInstalls:   c.polyInstalls.Value(),
		PolyReductions: c.polyReductions.Value(),
		Refused:        c.refused.Value(),
	}
}

// LatencyHistogram exposes the committed-transaction latency
// distribution (simulated seconds).
func (c *Cluster) LatencyHistogram() *metrics.Histogram { return c.latency }
