package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/value"
)

// GeoRepConfig parameterizes one geo-replication partition run: a
// 5-site simulated cluster storing every account K ways, a clean
// majority/minority partition in the middle, and a stranding
// choreography that leaves a minority replica holding a polyvalue with
// its coordinator dead — so only anti-entropy gossip can save it.
//
// The same runner serves both arms of the headline comparison: the
// quorum arm (W < K keeps committing on the majority side) and the
// write-all arm (W = K, the pre-replication behaviour, which loses all
// writes touching a minority replica for the whole partition).
type GeoRepConfig struct {
	// Seed drives the transfer schedule (not the protocol — protocol
	// randomness is hash-derived and deterministic regardless).
	Seed int64
	// Items is the number of logical accounts.  Default 8.
	Items int
	// Txns is the number of guarded transfers per load phase (baseline,
	// partition, post-heal).  Default 10.
	Txns int
	// K, W, R select the replication geometry.  Default 3/2/2; the
	// write-all arm passes W=3, R=1.
	K, W, R int
	// Partition is how long (simulated) the majority/minority cut
	// lasts.  Default 10s.
	Partition time.Duration
	// Settle bounds the post-heal quiescence wait.  Default 60s.
	Settle time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// GeoRepReport summarizes one arm of the geo-replication experiment.
type GeoRepReport struct {
	Seed    int64
	K, W, R int
	// Baseline / partition / post-heal commit+abort counts.  The
	// partition-phase pair is the availability headline: the quorum arm
	// keeps CommittedDuring high where write-all aborts everything that
	// touches a minority replica.
	CommittedBefore                int
	CommittedDuring, AbortedDuring int
	CommittedAfter                 int
	// ReadsDuring/ReadsServed count majority-side queries attempted and
	// answered with a certain value during the partition.
	ReadsDuring, ReadsServed int
	// Stranded is the number of polyvalued items sitting on minority
	// sites when the partition healed — each one waiting on an outcome
	// its (dead) coordinator can no longer deliver.
	Stranded int
	// GossipOutcomes / GossipCopies are the anti-entropy counters after
	// the run: outcomes first learned via gossip and stale replicas
	// converged by value copy.
	GossipOutcomes, GossipCopies int64
	// GossipSettle is how long (simulated) the post-heal gossip phase
	// took to reduce every polyvalue and converge every live replica —
	// with the stranding coordinator still crashed.
	GossipSettle time.Duration
	// BlockedItemSeconds is the per-cause item.blocked.seconds roll-up
	// (lock / indoubt / degraded) over the whole run.
	BlockedItemSeconds map[string]float64
	// Violations lists every failed assertion.  Empty = the arm passed.
	Violations []string
}

func (r *GeoRepReport) String() string {
	status := "PASS"
	if len(r.Violations) > 0 {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("georep seed=%d k=%d w=%d r=%d committed before/during/after=%d/%d/%d aborted_during=%d reads=%d/%d stranded=%d gossip_outcomes=%d gossip_copies=%d gossip_settle=%s: %s",
		r.Seed, r.K, r.W, r.R, r.CommittedBefore, r.CommittedDuring, r.CommittedAfter,
		r.AbortedDuring, r.ReadsServed, r.ReadsDuring, r.Stranded,
		r.GossipOutcomes, r.GossipCopies, r.GossipSettle.Round(time.Millisecond), status)
}

// georepRun carries one arm's live state.
type georepRun struct {
	cfg      GeoRepConfig
	c        *cluster.Cluster
	rng      *rand.Rand
	report   *GeoRepReport
	majority []protocol.SiteID
	minority []protocol.SiteID
	// logicals, split by what the majority side can do to them while
	// the partition holds: writable needs max(R,W) replicas reachable,
	// readable needs R.
	logicals    []string
	majWritable []string
	majReadable []string
	// strandTarget is a logical with exactly one majority-side owner;
	// strandCoord is that owner.  Coordinated from there, the local
	// probe reply lands first and the write quorum must take a minority
	// replica as its second member — the replica the partition then
	// strands mid-wait.
	strandTarget string
	strandCoord  protocol.SiteID
}

func (g *georepRun) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

func georepItem(i int) string { return fmt.Sprintf("acct%d", i) }

// classify splits the account population by partition-time capability
// and picks the stranding target: a logical with a single majority-side
// owner, so a pre-partition commit coordinated from that owner must put
// a minority replica in its write quorum — which the partition then
// cuts off mid-wait.
func (g *georepRun) classify() {
	inMajority := map[protocol.SiteID]bool{}
	for _, id := range g.majority {
		inMajority[id] = true
	}
	need := g.cfg.W
	if g.cfg.R > need {
		need = g.cfg.R
	}
	for _, logical := range g.logicals {
		owners := replica.Sites(g.c.Placement, logical, g.cfg.K)
		maj := 0
		for _, id := range owners {
			if inMajority[id] {
				maj++
			}
		}
		if maj >= need {
			g.majWritable = append(g.majWritable, logical)
		}
		if maj >= g.cfg.R {
			g.majReadable = append(g.majReadable, logical)
		}
		if g.strandTarget == "" && g.cfg.W < g.cfg.K && maj == 1 {
			g.strandTarget = logical
			for _, id := range owners {
				if inMajority[id] {
					g.strandCoord = id
				}
			}
		}
	}
}

// transfers submits n guarded transfers between accounts drawn from
// pool, coordinated from coords, then settles and counts outcomes.
func (g *georepRun) transfers(n int, pool []string, coords []protocol.SiteID) (committed, aborted int) {
	if len(pool) < 2 {
		return 0, 0
	}
	var handles []*cluster.Handle
	for i := 0; i < n; i++ {
		src := pool[g.rng.Intn(len(pool))]
		dst := pool[g.rng.Intn(len(pool))]
		for dst == src {
			dst = pool[g.rng.Intn(len(pool))]
		}
		amt := 1 + g.rng.Intn(9)
		coord := coords[g.rng.Intn(len(coords))]
		h, err := g.c.Submit(coord, transferText(src, dst, amt))
		if err != nil {
			g.report.Violations = append(g.report.Violations,
				fmt.Sprintf("submit via %s: %v", coord, err))
			continue
		}
		handles = append(handles, h)
		// Space submissions past the read timeout: a transfer doomed by
		// an unreachable quorum holds probe locks on its reachable
		// replicas until then, and overlapping it would collaterally
		// abort healthy transfers.
		g.c.RunFor(600 * time.Millisecond)
	}
	g.c.RunFor(3 * time.Second)
	for _, h := range handles {
		switch h.Status() {
		case cluster.StatusCommitted:
			committed++
		case cluster.StatusAborted:
			aborted++
		}
	}
	return committed, aborted
}

// queries runs one majority-side read per readable account and counts
// the ones answered with a certain value.
func (g *georepRun) queries() {
	for _, logical := range g.majReadable {
		coord := g.majority[g.rng.Intn(len(g.majority))]
		qh, err := g.c.Query(coord, logical)
		g.report.ReadsDuring++
		if err != nil {
			continue
		}
		g.c.RunFor(2 * time.Second)
		p, qerr, done := qh.Result()
		if qerr != nil || !done {
			continue
		}
		if _, certain := p.IsCertain(); certain {
			g.report.ReadsServed++
		}
	}
}

// RunGeoRep executes one arm of the geo-replication experiment:
//
//  1. baseline load on the healthy cluster;
//  2. (quorum arm) a stranding commit: a transfer touching a
//     minority-hosted replica is cut off between ready and complete,
//     leaving that replica polyvalued, then its coordinator is crashed
//     so no retransmission or inquiry can ever resolve it;
//  3. a clean majority/minority partition under load — the quorum arm
//     keeps committing majority-writable accounts and serving reads,
//     the write-all arm aborts everything touching the minority;
//  4. heal with the coordinator still down: anti-entropy gossip alone
//     must reduce every stranded polyvalue and converge every live
//     replica;
//  5. coordinator restart, final load phase, and the audits —
//     invariants (including replica convergence) and conservation.
func RunGeoRep(cfg GeoRepConfig) (*GeoRepReport, error) {
	if cfg.Items <= 1 {
		cfg.Items = 8
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 10
	}
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.W <= 0 {
		cfg.W = 2
	}
	if cfg.R <= 0 {
		cfg.R = cfg.K + 1 - cfg.W
	}
	if cfg.Partition <= 0 {
		cfg.Partition = 10 * time.Second
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 60 * time.Second
	}

	sites := []protocol.SiteID{"A", "B", "C", "D", "E"}
	c, err := cluster.New(cluster.Config{
		Sites:       sites,
		Net:         network.Config{Latency: 10 * time.Millisecond, Seed: cfg.Seed},
		Replication: &cluster.ReplicationConfig{K: cfg.K, W: cfg.W, R: cfg.R},
		OutcomeTTL:  -1, // outcomes must outlive the partition for gossip
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	g := &georepRun{
		cfg: cfg, c: c,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		majority: sites[:3], minority: sites[3:],
		report: &GeoRepReport{Seed: cfg.Seed, K: cfg.K, W: cfg.W, R: cfg.R,
			BlockedItemSeconds: map[string]float64{}},
	}
	for i := 0; i < cfg.Items; i++ {
		logical := georepItem(i)
		g.logicals = append(g.logicals, logical)
		if err := c.LoadReplicated(logical, polyvalue.Simple(value.Int(initialBalance))); err != nil {
			return nil, fmt.Errorf("load %s: %w", logical, err)
		}
	}
	g.classify()
	g.logf("georep: seed=%d k=%d/%d/%d majority=%v writable=%d/%d readable=%d strand=%q",
		cfg.Seed, cfg.K, cfg.W, cfg.R, g.majority,
		len(g.majWritable), cfg.Items, len(g.majReadable), g.strandTarget)

	// ----- phase 1: baseline ---------------------------------------------
	g.report.CommittedBefore, _ = g.transfers(cfg.Txns, g.logicals, sites)

	// ----- phase 2: stranding commit (quorum arm only) -------------------
	// A transfer touching the strand target commits on its write quorum;
	// the partition lands between the minority replica's ready and the
	// coordinator's complete, so it times out into a polyvalue.  Crashing
	// the coordinator afterwards wipes its retransmission state: the
	// outcome now exists only on the majority participants, reachable
	// solely via gossip.
	strandCoord := g.strandCoord
	stranding := false
	if g.strandTarget != "" && len(g.majWritable) > 0 {
		dst := g.majWritable[0]
		if dst == g.strandTarget && len(g.majWritable) > 1 {
			dst = g.majWritable[1]
		}
		if dst != g.strandTarget {
			txt := transferText(g.strandTarget, dst, 7)
			h, err := c.Submit(strandCoord, txt)
			if err != nil {
				return nil, fmt.Errorf("strand submit: %w", err)
			}
			// Probes+prepares+readies land by t≈40ms at 10ms latency; cut
			// the cluster before the completes arrive at t≈50ms.
			c.RunFor(45 * time.Millisecond)
			g.partition()
			c.RunFor(2 * time.Second)
			if h.Status() != cluster.StatusCommitted {
				g.report.Violations = append(g.report.Violations,
					fmt.Sprintf("stranding commit failed: %v (%s)", h.Status(), h.Reason()))
			}
			stranding = true
			g.logf("georep: stranding transfer committed across the cut: %s", txt)
		}
	}
	if !stranding {
		g.partition()
	}

	// ----- phase 3: load under partition ---------------------------------
	g.report.CommittedDuring, g.report.AbortedDuring =
		g.transfers(cfg.Txns, g.logicals, g.majority)
	g.queries()
	c.RunFor(cfg.Partition)
	for _, id := range g.minority {
		g.report.Stranded += len(c.Store(id).PolyItems())
	}

	// ----- phase 4: heal; gossip must finish the job ---------------------
	if stranding {
		c.Crash(strandCoord)
	}
	c.HealAll()
	healedAt := c.Now()
	settled := false
	for c.Now()-healedAt < cfg.Settle {
		c.RunFor(time.Second)
		if len(c.PolyItems()) == 0 && len(c.CheckInvariants()) == 0 {
			settled = true
			break
		}
	}
	g.report.GossipSettle = c.Now() - healedAt
	if !settled {
		g.report.Violations = append(g.report.Violations,
			fmt.Sprintf("gossip did not settle the healed cluster within %s: polys=%v invariants=%v",
				cfg.Settle, c.PolyItems(), c.CheckInvariants()))
	}

	// ----- phase 5: coordinator restart + final load ---------------------
	if stranding {
		c.Restart(strandCoord)
		c.RunFor(5 * time.Second)
	}
	g.report.CommittedAfter, _ = g.transfers(cfg.Txns, g.logicals, sites)

	// ----- audits ---------------------------------------------------------
	c.RunFor(10 * time.Second)
	if v := c.CheckInvariants(); len(v) > 0 {
		g.report.Violations = append(g.report.Violations, v...)
	}
	g.report.Violations = append(g.report.Violations, conservation(g.logicals,
		func(logical string) (polyvalue.Poly, bool) {
			phys := replica.Name(logical, 0)
			return c.Store(c.Placement(phys)).Get(phys), true
		}, int64(initialBalance*cfg.Items))...)
	c.SyncBlockedAccounting()
	collectBlockedSeconds(g.report.BlockedItemSeconds, c.Metrics())
	for _, pt := range c.Metrics().Snapshot().Points {
		switch pt.Name {
		case "antientropy.outcomes.learned":
			g.report.GossipOutcomes = pt.Value
		case "antientropy.items.copied":
			g.report.GossipCopies = pt.Value
		}
	}
	g.logf("georep: %s", g.report)
	return g.report, nil
}

// partition cuts every majority↔minority link.
func (g *georepRun) partition() {
	for _, a := range g.majority {
		for _, b := range g.minority {
			g.c.Partition(a, b)
		}
	}
}
