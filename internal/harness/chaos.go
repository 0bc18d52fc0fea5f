// Package harness drives seeded chaos runs against a real multi-process
// style cluster: every site is its own cluster.NewNode over its own TCP
// transport and WAL file, the transports are wrapped in fault.Injector,
// and a deterministic schedule of transfers, fault-plan commands,
// crash-point armings, and kill/restart cycles is thrown at them.  At
// the end the cluster must quiesce into a state that conserves money,
// holds zero unreduced polyvalues, passes every protocol invariant,
// recovers each WAL idempotently, and leaks no goroutines.
//
// The harness is the repo's executable torture argument for the paper's
// central claim: under arbitrary message loss, duplication, delay,
// corruption, partitions, and site crashes, polyvalues keep items
// available while never surrendering atomicity.
package harness

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
)

// ChaosConfig parameterizes one torture run.  The zero value (plus a
// seed) is a sensible full run; tests shrink Txns/KillCycles for smoke.
type ChaosConfig struct {
	// Seed drives every random choice: schedule, fault parameters,
	// victims.  Same seed, same schedule.
	Seed int64
	// Sites is the cluster size, clamped to [3, 5].  Default 3.
	Sites int
	// Items is the number of bank accounts, spread round-robin over the
	// sites.  Default 4.
	Items int
	// Txns is the number of guarded transfers submitted.  Default 40.
	Txns int
	// KillCycles is the number of kill+restart cycles woven into the
	// schedule (each also arms a crash point half the time).  Default 3.
	KillCycles int
	// Settle bounds the final quiescence wait.  Default 45s.
	Settle time.Duration
	// DataDir holds the per-site WAL files; empty means a fresh temp
	// directory (removed on success, kept on failure for inspection).
	DataDir string
	// SpanCap is the per-site structured-span retention.  0 means the
	// default (65536, far above what a chaos run emits); negative
	// disables span tracing and the trace-completeness audit.  Span logs
	// are harness-owned, so spans survive kill/restart cycles and the
	// run can audit that every committed transaction left a complete
	// causal timeline.
	SpanCap int
	// CrashPoint, when set, is armed on every kill-cycle victim instead
	// of the default "random crash point half the time" — e.g.
	// cluster.CrashAfterDecisionLog to torture the decided-but-
	// unannounced window specifically.
	CrashPoint cluster.CrashPoint
	// Policy selects the participant wait-phase behaviour for every
	// site (cluster.PolicyPolyvalue default; cluster.PolicyBlocking is
	// the classic 2PC baseline that camps on its locks in doubt).
	Policy cluster.Policy
	// MaxPolyBudget is passed through to every site; 1 effectively
	// forces the blocking-2PC degradation the paper's comparison needs.
	MaxPolyBudget int
	// DecisionPlane selects the commit decision plane for every node
	// (cluster.PlaneWAL default, cluster.PlanePaxos for the replicated
	// Paxos Commit plane).
	DecisionPlane cluster.DecisionPlane
	// ExtraKills widens each kill cycle: besides the armed victim, this
	// many additional distinct sites are hard-killed at the same moment
	// and restarted together.  With the paxos plane and 5 sites,
	// ExtraKills=2 is the F-failures-plus-coordinator scenario the 2F+1
	// acceptor group must survive.  Clamped to Sites-1 total kills.
	ExtraKills int
	// Lanes is the per-site key-sharded execution lane count passed to
	// every node (see cluster.Config.Lanes).  0 defaults from the
	// POLY_LANES environment variable, so nightly torture jobs can turn
	// lanes on without threading a flag through every make target; 1
	// forces a single event queue.
	Lanes int
	// Strand, with CrashPoint set, submits one extra guarded transfer
	// through each kill victim right after arming it: a transfer between
	// two items co-located on a single OTHER site, so the decision fires
	// the crash point and strands that participant in doubt holding both
	// writes.  Random weather rarely leaves a participant in the
	// prepared-but-unresolved window; this makes every kill cycle do it,
	// which the blocked-item-seconds comparisons need.  Requires enough
	// Items for a non-victim site to own two (Items >= 2*Sites covers
	// every victim choice).
	Strand bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// ChaosReport summarizes a finished torture run.  Violations empty
// means every assertion held.
type ChaosReport struct {
	Seed       int64
	Sites      int
	Txns       int
	Committed  int
	Aborted    int
	Pending    int
	Kills      int
	FaultCmds  int
	SettleTime time.Duration
	// Violations lists every failed end-state assertion: conservation,
	// residual polyvalues, invariant breaks, WAL non-idempotence,
	// goroutine leaks, lost spans, incomplete timelines.  Empty = the
	// run passed.
	Violations []string
	// Totals is a per-metric roll-up across sites (faults injected,
	// frames corrupted/rejected, queue drops, resends, inquiries).
	Totals map[string]int64
	// Spans is the total number of structured spans collected.
	Spans int
	// BlockedItemSeconds sums item.blocked.seconds across sites, by
	// cause (lock, indoubt, degraded) — the paper's availability claim
	// in one number: polyvalue runs should show (near-)zero indoubt
	// blocking where budget-degraded runs pile it up.
	BlockedItemSeconds map[string]float64
}

func (r *ChaosReport) String() string {
	status := "PASS"
	if len(r.Violations) > 0 {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("chaos seed=%d sites=%d txns=%d committed=%d aborted=%d pending=%d kills=%d faults=%d settle=%s: %s",
		r.Seed, r.Sites, r.Txns, r.Committed, r.Aborted, r.Pending, r.Kills, r.FaultCmds, r.SettleTime.Round(time.Millisecond), status)
}

// chaosNode is one running site: its cluster, its injector, and the
// listener address it must rebind after a kill.
type chaosNode struct {
	node *cluster.Cluster
	inj  *fault.Injector
}

type chaosRun struct {
	cfg    ChaosConfig
	rng    *rand.Rand
	sites  []protocol.SiteID
	peers  map[protocol.SiteID]string
	nodes  map[protocol.SiteID]*chaosNode
	report *ChaosReport
	// regs and spanLogs persist across kill/restart cycles — a restarted
	// site keeps accumulating into the same series and span log, so the
	// end-of-run audits see the whole history, not the last incarnation.
	regs     map[protocol.SiteID]*metrics.Registry
	spanLogs map[protocol.SiteID]*trace.SpanLog
}

func (c *chaosRun) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *chaosRun) placement(item string) protocol.SiteID {
	n, _ := strconv.Atoi(item[2:])
	return c.sites[n%len(c.sites)]
}

func chaosItem(i int) string { return "it" + strconv.Itoa(i) }

// strandTransfer submits a guarded transfer between two items owned by
// a single site other than victim, coordinated by victim itself.  With
// a crash point armed at the victim, the decision kills the coordinator
// and leaves that co-located participant in doubt holding both writes —
// the deterministic stranding ChaosConfig.Strand promises.  Returns a
// nil handle when no other site owns two items.
func (c *chaosRun) strandTransfer(victim protocol.SiteID) (*cluster.Handle, protocol.SiteID, string) {
	byOwner := map[protocol.SiteID][]string{}
	for i := 0; i < c.cfg.Items; i++ {
		item := chaosItem(i)
		owner := c.placement(item)
		byOwner[owner] = append(byOwner[owner], item)
	}
	for _, w := range c.sites {
		items := byOwner[w]
		if w == victim || len(items) < 2 {
			continue
		}
		src, dst := items[0], items[1]
		amt := 1 + c.rng.Intn(5)
		txt := fmt.Sprintf("%s = %s - %d if %s >= %d; %s = %s + %d if %s >= %d",
			src, src, amt, src, amt, dst, dst, amt, src, amt)
		h, err := c.nodes[victim].node.Submit(victim, txt)
		if err != nil {
			return nil, "", ""
		}
		return h, w, txt
	}
	return nil, "", ""
}

// start boots (or re-boots) one site over ln; when ln is nil the site's
// known address is rebound, retrying while the dead process's socket
// tears down.
func (c *chaosRun) start(id protocol.SiteID, ln net.Listener) error {
	if ln == nil {
		var err error
		for i := 0; i < 100; i++ {
			ln, err = net.Listen("tcp", c.peers[id])
			if err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("rebind %s: %w", c.peers[id], err)
		}
	}
	// One registry spans transport, injector, and cluster so the report
	// can roll the whole fault plane up per site; it persists across
	// restarts of the same site.
	reg := c.regs[id]
	if reg == nil {
		reg = metrics.NewRegistry()
		c.regs[id] = reg
	}
	tcp := transport.NewTCPWithListener(transport.TCPConfig{
		Self:       id,
		Peers:      c.peers,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
		Seed:       c.cfg.Seed + int64(len(id)),
		Metrics:    reg,
	}, ln)
	inj := fault.Wrap(tcp, fault.Config{
		Self:    id,
		Seed:    c.cfg.Seed ^ int64(sum(id)),
		Metrics: reg,
		Logf:    c.cfg.Logf,
	})
	node, err := cluster.NewNode(cluster.Config{
		Sites:         c.sites,
		WaitTimeout:   100 * time.Millisecond,
		ReadyTimeout:  500 * time.Millisecond,
		RetryInterval: 100 * time.Millisecond,
		Placement:     c.placement,
		Metrics:       reg,
		DataDir:       c.cfg.DataDir,
		Policy:        c.cfg.Policy,
		MaxPolyBudget: c.cfg.MaxPolyBudget,
		DecisionPlane: c.cfg.DecisionPlane,
		Spans:         c.spanLogs[id],
		Lanes:         c.cfg.Lanes,
	}, id, inj)
	if err != nil {
		inj.Close()
		return fmt.Errorf("NewNode(%s): %w", id, err)
	}
	c.nodes[id] = &chaosNode{node: node, inj: inj}
	return nil
}

// envLanes reads the POLY_LANES environment variable — the nightly
// torture jobs' switch for running every wall-clock harness with
// key-sharded execution lanes without new flags on every make target.
// Unset, empty or unparsable means 0 (a single event queue).
func envLanes() int {
	n, err := strconv.Atoi(os.Getenv("POLY_LANES"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

func sum(id protocol.SiteID) int {
	s := 0
	for _, r := range string(id) {
		s += int(r)
	}
	return s
}

func (c *chaosRun) kill(id protocol.SiteID) {
	c.nodes[id].node.Close()
	c.nodes[id] = nil
}

// faultCmd draws one random fault-plan command, biased toward
// self-limiting faults (probabilistic rules the schedule later clears,
// partitions with scheduled heals).
func (c *chaosRun) faultCmd() string {
	a := c.sites[c.rng.Intn(len(c.sites))]
	b := c.sites[c.rng.Intn(len(c.sites))]
	for b == a {
		b = c.sites[c.rng.Intn(len(c.sites))]
	}
	switch c.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("drop to=%s p=%.2f", b, 0.05+0.25*c.rng.Float64())
	case 1:
		return fmt.Sprintf("dup p=%.2f", 0.05+0.20*c.rng.Float64())
	case 2:
		return fmt.Sprintf("delay p=%.2f min=5ms max=%dms", 0.10+0.30*c.rng.Float64(), 20+c.rng.Intn(60))
	case 3:
		return fmt.Sprintf("corrupt to=%s p=%.2f", b, 0.05+0.15*c.rng.Float64())
	case 4:
		return fmt.Sprintf("reset to=%s p=%.2f", b, 0.02+0.08*c.rng.Float64())
	default:
		oneway := ""
		if c.rng.Intn(2) == 0 {
			oneway = " oneway"
		}
		return fmt.Sprintf("partition a=%s b=%s heal=%dms%s", a, b, 200+c.rng.Intn(800), oneway)
	}
}

// RunChaos executes one seeded torture run and returns its report.  A
// non-nil error means the run could not execute (infrastructure
// failure); protocol-level failures land in report.Violations instead.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Sites < 3 {
		cfg.Sites = 3
	}
	if cfg.Sites > 5 {
		cfg.Sites = 5
	}
	if cfg.Items <= 0 {
		cfg.Items = 4
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 40
	}
	if cfg.KillCycles < 0 {
		cfg.KillCycles = 0
	} else if cfg.KillCycles == 0 {
		cfg.KillCycles = 3
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 45 * time.Second
	}
	if cfg.SpanCap == 0 {
		cfg.SpanCap = 1 << 16
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = envLanes()
	}
	ownDir := false
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "chaos-*")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
		ownDir = true
	}

	baseline := runtime.NumGoroutine()
	c := &chaosRun{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		peers: map[protocol.SiteID]string{},
		nodes: map[protocol.SiteID]*chaosNode{},
		report: &ChaosReport{Seed: cfg.Seed, Sites: cfg.Sites, Txns: cfg.Txns,
			Totals: map[string]int64{}, BlockedItemSeconds: map[string]float64{}},
		regs:     map[protocol.SiteID]*metrics.Registry{},
		spanLogs: map[protocol.SiteID]*trace.SpanLog{},
	}
	for i := 0; i < cfg.Sites; i++ {
		c.sites = append(c.sites, protocol.SiteID(string(rune('A'+i))))
	}
	if cfg.SpanCap > 0 {
		for _, id := range c.sites {
			c.spanLogs[id] = trace.NewSpanLogFor(string(id), cfg.SpanCap)
		}
	}

	lns := map[protocol.SiteID]net.Listener{}
	for _, id := range c.sites {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[id] = ln
		c.peers[id] = ln.Addr().String()
	}
	for _, id := range c.sites {
		if err := c.start(id, lns[id]); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, n := range c.nodes {
			if n != nil {
				n.node.Close()
			}
		}
	}()

	// Seed the accounts: every item starts at 100 on its owning site.
	const initial = 100
	for i := 0; i < cfg.Items; i++ {
		item := chaosItem(i)
		owner := c.placement(item)
		if err := c.nodes[owner].node.Load(item, polyvalue.Simple(value.Int(initial))); err != nil {
			return nil, fmt.Errorf("load %s: %w", item, err)
		}
	}
	wantTotal := int64(initial * cfg.Items)
	c.logf("chaos: seed=%d sites=%v items=%d txns=%d kills=%d dir=%s",
		cfg.Seed, c.sites, cfg.Items, cfg.Txns, cfg.KillCycles, cfg.DataDir)

	// ----- schedule phase -------------------------------------------------
	type pendingTxn struct {
		h     *cluster.Handle
		coord protocol.SiteID
	}
	var handles []pendingTxn
	killAt := map[int]bool{}
	if cfg.KillCycles > 0 {
		stride := cfg.Txns / (cfg.KillCycles + 1)
		if stride < 1 {
			stride = 1
		}
		for k := 1; k <= cfg.KillCycles; k++ {
			killAt[k*stride] = true
		}
	}
	for i := 0; i < cfg.Txns; i++ {
		// Fault weather: roughly every third step changes the plan.
		if c.rng.Float64() < 0.35 {
			id := c.sites[c.rng.Intn(len(c.sites))]
			if n := c.nodes[id]; n != nil {
				cmd := c.faultCmd()
				if _, err := n.inj.Apply(cmd); err != nil {
					return nil, fmt.Errorf("fault %q: %w", cmd, err)
				}
				c.report.FaultCmds++
				c.logf("chaos[%d]: %s: FAULT %s", i, id, cmd)
			}
		}
		// Kill cycle: crash-point half the time, then a hard process
		// kill and a restart over the same WAL.
		if killAt[i] {
			victim := c.sites[c.rng.Intn(len(c.sites))]
			if n := c.nodes[victim]; n != nil {
				switch {
				case c.cfg.CrashPoint != "":
					_ = n.node.ArmCrash(victim, c.cfg.CrashPoint)
					c.logf("chaos[%d]: %s: armed crash point %s", i, victim, c.cfg.CrashPoint)
					if c.cfg.Strand {
						if h, site, txt := c.strandTransfer(victim); h != nil {
							handles = append(handles, pendingTxn{h: h, coord: victim})
							c.logf("chaos[%d]: %s: strand transfer against %s: %s", i, victim, site, txt)
						}
					}
				case c.rng.Intn(2) == 0:
					pts := cluster.CrashPoints()
					pt := pts[c.rng.Intn(len(pts))]
					_ = n.node.ArmCrash(victim, pt)
					c.logf("chaos[%d]: %s: armed crash point %s", i, victim, pt)
				}
				// ExtraKills widens the blast radius: additional distinct
				// live sites die at the same moment as the armed victim
				// (F acceptors + the coordinator, in the paxos scenario).
				victims := []protocol.SiteID{victim}
				for tries := 0; len(victims) < 1+c.cfg.ExtraKills && len(victims) < len(c.sites) && tries < 64; tries++ {
					cand := c.sites[c.rng.Intn(len(c.sites))]
					dup := c.nodes[cand] == nil
					for _, v := range victims {
						if v == cand {
							dup = true
						}
					}
					if !dup {
						victims = append(victims, cand)
					}
				}
				time.Sleep(time.Duration(50+c.rng.Intn(150)) * time.Millisecond)
				for _, v := range victims {
					c.logf("chaos[%d]: KILL %s", i, v)
					c.kill(v)
					c.report.Kills++
				}
				time.Sleep(time.Duration(100+c.rng.Intn(200)) * time.Millisecond)
				for _, v := range victims {
					if err := c.start(v, nil); err != nil {
						return nil, err
					}
					c.logf("chaos[%d]: RESTART %s", i, v)
				}
			}
		}
		// One guarded transfer between two random accounts via a random
		// live coordinator.  The guard makes conservation the invariant:
		// committed or aborted, the sum across accounts never changes.
		src := chaosItem(c.rng.Intn(cfg.Items))
		dst := chaosItem(c.rng.Intn(cfg.Items))
		for dst == src {
			dst = chaosItem(c.rng.Intn(cfg.Items))
		}
		amt := 1 + c.rng.Intn(20)
		coord := c.sites[c.rng.Intn(len(c.sites))]
		n := c.nodes[coord]
		if n == nil {
			continue
		}
		srcTxt := fmt.Sprintf("%s = %s - %d if %s >= %d; %s = %s + %d if %s >= %d",
			src, src, amt, src, amt, dst, dst, amt, src, amt)
		h, err := n.node.Submit(coord, srcTxt)
		if err != nil {
			return nil, fmt.Errorf("submit via %s: %w", coord, err)
		}
		handles = append(handles, pendingTxn{h: h, coord: coord})
		time.Sleep(time.Duration(10+c.rng.Intn(40)) * time.Millisecond)
	}

	// ----- settle phase ---------------------------------------------------
	// Heal everything, clear every fault rule, revive any crash-point
	// casualties, and wait for quiescence.
	for id, n := range c.nodes {
		if n == nil {
			continue
		}
		n.inj.Clear()
		if n.node.IsDown(id) {
			n.node.Restart(id)
			c.logf("chaos: revived %s (crash point had fired)", id)
		}
	}
	settleStart := time.Now()
	deadline := settleStart.Add(cfg.Settle)
	var lastIssues []string
	for time.Now().Before(deadline) {
		lastIssues = c.quiesceIssues()
		if len(lastIssues) == 0 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	c.report.SettleTime = time.Since(settleStart)
	if len(lastIssues) > 0 {
		c.report.Violations = append(c.report.Violations, lastIssues...)
	}
	// Fold still-open lock-hold intervals into the blocking accountant
	// before any item.blocked.seconds histogram is read.
	for _, n := range c.nodes {
		if n != nil {
			n.node.SyncBlockedAccounting()
		}
	}

	// ----- audits ---------------------------------------------------------
	var total int64
	for i := 0; i < cfg.Items; i++ {
		item := chaosItem(i)
		p := c.nodes[c.placement(item)].node.Read(item)
		v, certain := p.IsCertain()
		if !certain {
			c.report.Violations = append(c.report.Violations,
				fmt.Sprintf("item %s still uncertain at end: %v", item, p))
			continue
		}
		n, ok := value.AsInt(v)
		if !ok {
			c.report.Violations = append(c.report.Violations,
				fmt.Sprintf("item %s not an int: %v", item, v))
			continue
		}
		total += n
	}
	if total != wantTotal {
		c.report.Violations = append(c.report.Violations,
			fmt.Sprintf("conservation broken: total %d, want %d", total, wantTotal))
	}
	var committedTIDs []string
	for _, pt := range handles {
		switch pt.h.Status() {
		case cluster.StatusCommitted:
			c.report.Committed++
			committedTIDs = append(committedTIDs, string(pt.h.TID))
		case cluster.StatusAborted:
			c.report.Aborted++
		default:
			// A killed coordinator takes its clients' answers with it;
			// the server-side state is what the audits above verify.
			c.report.Pending++
		}
	}
	for _, id := range c.sites {
		n := c.nodes[id]
		if n == nil {
			continue
		}
		for _, pt := range n.node.Metrics().Snapshot().Points {
			if pt.Kind != metrics.KindCounter || pt.Value == 0 {
				continue
			}
			switch {
			case strings.HasPrefix(pt.Name, "transport.fault."),
				strings.HasPrefix(pt.Name, "transport.decode."),
				strings.HasPrefix(pt.Name, "transport.queue."),
				strings.HasPrefix(pt.Name, "paxos."),
				pt.Name == "network.dropped",
				pt.Name == "txn.decision.resends",
				pt.Name == "txn.outcome.retries":
				c.report.Totals[pt.Key()] += pt.Value
			}
		}
	}
	for _, id := range c.sites {
		collectBlockedSeconds(c.report.BlockedItemSeconds, c.regs[id])
	}
	var spanViolations []string
	c.report.Spans, spanViolations = auditTraceCompleteness(c.spanLogs, c.sites, committedTIDs, cfg.SpanCap)
	c.report.Violations = append(c.report.Violations, spanViolations...)

	// ----- teardown audits ------------------------------------------------
	for id, n := range c.nodes {
		if n != nil {
			n.node.Close()
			c.nodes[id] = nil
		}
	}
	// Goroutine leak check: everything the nodes spawned must wind down.
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+4 && time.Now().Before(leakDeadline) {
		time.Sleep(100 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+4 {
		c.report.Violations = append(c.report.Violations,
			fmt.Sprintf("goroutine leak: %d running, baseline %d", got, baseline))
	}
	// WAL recovery idempotence: recovering each site's log twice (and
	// recovering the recovery's own log) must converge on the same state.
	for _, id := range c.sites {
		path := filepath.Join(cfg.DataDir, string(id)+".wal")
		data, err := os.ReadFile(path)
		if err != nil {
			c.report.Violations = append(c.report.Violations,
				fmt.Sprintf("site %s: read WAL: %v", id, err))
			continue
		}
		s1, err := storage.Recover(data)
		if err != nil {
			c.report.Violations = append(c.report.Violations,
				fmt.Sprintf("site %s: WAL recovery: %v", id, err))
			continue
		}
		s2, err := storage.Recover(s1.WALBytes())
		if err != nil {
			c.report.Violations = append(c.report.Violations,
				fmt.Sprintf("site %s: second-generation recovery: %v", id, err))
			continue
		}
		if a, b := fmt.Sprint(s1.Items()), fmt.Sprint(s2.Items()); a != b {
			c.report.Violations = append(c.report.Violations,
				fmt.Sprintf("site %s: recovery not idempotent: %s vs %s", id, a, b))
		}
	}

	sort.Strings(c.report.Violations)
	c.logf("chaos: %s", c.report)
	if len(c.report.Violations) > 0 {
		dumpTraceArtifacts(cfg.DataDir, c.spanLogs, c.sites, c.logf)
	}
	if ownDir && len(c.report.Violations) == 0 {
		os.RemoveAll(cfg.DataDir)
	}
	return c.report, nil
}

// quiesceIssues reports what still blocks quiescence: crashed sites,
// unreduced polyvalues, uncertain items, or invariant violations.
func (c *chaosRun) quiesceIssues() []string {
	var issues []string
	for _, id := range c.sites {
		n := c.nodes[id]
		if n == nil {
			issues = append(issues, fmt.Sprintf("site %s not running", id))
			continue
		}
		if n.node.IsDown(id) {
			n.node.Restart(id)
			issues = append(issues, fmt.Sprintf("site %s was down", id))
			continue
		}
		if polys := n.node.PolyItems(); len(polys) > 0 {
			issues = append(issues, fmt.Sprintf("site %s: unreduced polyvalues %v", id, polys))
		}
		if v := n.node.CheckInvariants(); len(v) > 0 {
			issues = append(issues, v...)
		}
	}
	for i := 0; i < c.cfg.Items; i++ {
		item := chaosItem(i)
		n := c.nodes[c.placement(item)]
		if n == nil {
			continue
		}
		if _, certain := n.node.Read(item).IsCertain(); !certain {
			issues = append(issues, fmt.Sprintf("item %s uncertain", item))
		}
	}
	return issues
}
