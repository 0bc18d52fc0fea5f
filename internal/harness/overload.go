package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
)

// OverloadConfig parameterizes one overload torture run: offered load
// above the admission cap, a sustained partition, and tight polyvalue
// budgets — the scenario the overload-protection plane exists for.
type OverloadConfig struct {
	// Seed drives the transfer schedule.  Same seed, same schedule.
	Seed int64
	// Items is the number of bank accounts (round-robin over 3 sites).
	// Default 6.
	Items int
	// AdmissionLimit is the per-site in-flight transaction cap.
	// Default 4.
	AdmissionLimit int
	// MaxPolyBudget caps each site's polyvalue population.  Default 8.
	MaxPolyBudget int
	// TxnDeadline bounds each transaction end to end.  Default 500ms.
	TxnDeadline time.Duration
	// DropP is the per-message random drop probability on every link,
	// active for the whole run: losing Ready/Complete messages is what
	// strands participants in doubt and puts real pressure on the
	// polyvalue budget.  Default 0.02.
	DropP float64
	// Warmup is how long load runs before the partition.  Default 2s.
	Warmup time.Duration
	// Partition is how long sites A and B stay partitioned under
	// sustained load.  Default 61s (the full run); tests shrink it.
	Partition time.Duration
	// Cooldown keeps load running after the heal.  Default 2s.
	Cooldown time.Duration
	// Settle bounds the final quiescence wait.  Default 45s.
	Settle time.Duration
	// SpanCap is the per-site structured-span retention.  0 means the
	// default (262144 — a full-length run at offered load emits on the
	// order of 200k spans per site); negative disables span tracing and
	// the trace-completeness audit.
	SpanCap int
	// Lanes is the per-site key-sharded execution lane count (see
	// cluster.Config.Lanes).  0 defaults from POLY_LANES; 1 forces a
	// single event queue.
	Lanes int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// OverloadReport summarizes a finished overload run.  Violations empty
// means every assertion held.
type OverloadReport struct {
	Seed      int64
	Submitted int
	Shed      int64
	Committed int
	Aborted   int
	Pending   int
	// MaxPolyPopulation is the largest polyvalue population any site
	// showed at any sample — the bounded-memory claim under test.
	MaxPolyPopulation int
	// Degradations/Restores count budget mode flips summed over sites;
	// DegradedTxns counts in-doubt transactions that blocked instead of
	// installing.
	Degradations, Restores, DegradedTxns int64
	// DeadlineExceeded sums coordinator+participant deadline expiries.
	DeadlineExceeded int64
	// Suspects/Recoveries count failure-detector state flips summed
	// over sites.
	Suspects, Recoveries int64
	SettleTime           time.Duration
	Violations           []string
	// Spans is the total number of structured spans collected.
	Spans int
	// BlockedItemSeconds sums item.blocked.seconds across sites, by
	// cause (lock, indoubt, degraded).  The degraded bucket is where the
	// budget's blocking-2PC fallback pays the paper's availability cost.
	BlockedItemSeconds map[string]float64
}

func (r *OverloadReport) String() string {
	status := "PASS"
	if len(r.Violations) > 0 {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("overload seed=%d submitted=%d shed=%d committed=%d aborted=%d pending=%d maxpoly=%d degraded_txns=%d deadline=%d suspects=%d settle=%s: %s",
		r.Seed, r.Submitted, r.Shed, r.Committed, r.Aborted, r.Pending,
		r.MaxPolyPopulation, r.DegradedTxns, r.DeadlineExceeded, r.Suspects,
		r.SettleTime.Round(time.Millisecond), status)
}

// overloadNode is one running site with its full transport stack:
// cluster over detector over injector over TCP.
type overloadNode struct {
	node *cluster.Cluster
	det  *guard.Detector
	inj  *fault.Injector
	reg  *metrics.Registry
}

// RunOverload executes one overload torture run: three sites with
// admission caps, transaction deadlines, polyvalue budgets, and
// heartbeat failure detectors; offered load above the cap throughout;
// and a sustained A—B partition in the middle.  The run passes when the
// polyvalue population stayed at or below budget on every sample, money
// was conserved, every site returned to polyvalue mode after the heal,
// and the usual quiescence audits hold.
func RunOverload(cfg OverloadConfig) (*OverloadReport, error) {
	if cfg.Items <= 0 {
		cfg.Items = 6
	}
	if cfg.AdmissionLimit <= 0 {
		cfg.AdmissionLimit = 4
	}
	if cfg.MaxPolyBudget <= 0 {
		cfg.MaxPolyBudget = 4
	}
	if cfg.TxnDeadline <= 0 {
		cfg.TxnDeadline = 500 * time.Millisecond
	}
	if cfg.DropP <= 0 {
		cfg.DropP = 0.02
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 2 * time.Second
	}
	if cfg.Partition <= 0 {
		cfg.Partition = 61 * time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Settle <= 0 {
		cfg.Settle = 45 * time.Second
	}
	if cfg.SpanCap == 0 {
		cfg.SpanCap = 1 << 18
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = envLanes()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	report := &OverloadReport{Seed: cfg.Seed, BlockedItemSeconds: map[string]float64{}}
	sites := []protocol.SiteID{"A", "B", "C"}
	spanLogs := map[protocol.SiteID]*trace.SpanLog{}
	if cfg.SpanCap > 0 {
		for _, id := range sites {
			spanLogs[id] = trace.NewSpanLogFor(string(id), cfg.SpanCap)
		}
	}
	placement := func(item string) protocol.SiteID {
		n := int(item[len(item)-1] - '0')
		return sites[n%len(sites)]
	}
	baseline := runtime.NumGoroutine()

	peers := map[protocol.SiteID]string{}
	lns := map[protocol.SiteID]net.Listener{}
	for _, id := range sites {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[id] = ln
		peers[id] = ln.Addr().String()
	}
	nodes := map[protocol.SiteID]*overloadNode{}
	dir, err := os.MkdirTemp("", "overload-*")
	if err != nil {
		return nil, err
	}
	for _, id := range sites {
		reg := metrics.NewRegistry()
		tcp := transport.NewTCPWithListener(transport.TCPConfig{
			Self:       id,
			Peers:      peers,
			BackoffMin: 5 * time.Millisecond,
			BackoffMax: 100 * time.Millisecond,
			Seed:       cfg.Seed + int64(len(id)),
			Metrics:    reg,
		}, lns[id])
		inj := fault.Wrap(tcp, fault.Config{
			Self:    id,
			Seed:    cfg.Seed ^ int64(sum(id)),
			Metrics: reg,
		})
		// Background message loss on every link: dropped Ready/Complete
		// messages strand participants in doubt, which is what actually
		// populates (and pressures) the polyvalue budget.
		inj.SetRule(fault.Rule{Kind: fault.KindDrop, From: fault.Wildcard, To: fault.Wildcard, P: cfg.DropP})
		var others []protocol.SiteID
		for _, o := range sites {
			if o != id {
				others = append(others, o)
			}
		}
		det := guard.NewDetector(inj, guard.DetectorConfig{
			Self:         id,
			Peers:        others,
			Interval:     100 * time.Millisecond,
			SuspectAfter: 5,
			Metrics:      reg,
		})
		node, err := cluster.NewNode(cluster.Config{
			Sites:          sites,
			WaitTimeout:    100 * time.Millisecond,
			ReadyTimeout:   time.Second, // > TxnDeadline: the deadline is the binding timeout
			RetryInterval:  100 * time.Millisecond,
			AdmissionLimit: cfg.AdmissionLimit,
			TxnDeadline:    cfg.TxnDeadline,
			MaxPolyBudget:  cfg.MaxPolyBudget,
			Placement:      placement,
			Metrics:        reg,
			DataDir:        dir,
			Spans:          spanLogs[id],
			Lanes:          cfg.Lanes,
		}, id, det)
		if err != nil {
			det.Close()
			return nil, fmt.Errorf("NewNode(%s): %w", id, err)
		}
		nodes[id] = &overloadNode{node: node, det: det, inj: inj, reg: reg}
	}
	defer func() {
		for _, n := range nodes {
			n.node.Close()
		}
	}()

	const initial = 100
	for i := 0; i < cfg.Items; i++ {
		item := chaosItem(i)
		if err := nodes[placement(item)].node.Load(item, polyvalue.Simple(value.Int(initial))); err != nil {
			return nil, fmt.Errorf("load %s: %w", item, err)
		}
	}
	wantTotal := int64(initial * cfg.Items)
	logf("overload: seed=%d admission=%d polybudget=%d deadline=%s partition=%s",
		cfg.Seed, cfg.AdmissionLimit, cfg.MaxPolyBudget, cfg.TxnDeadline, cfg.Partition)

	// ----- load + partition schedule --------------------------------------
	// A sampler watches every site's polyvalue population while load runs;
	// the maximum it sees is the bounded-memory measurement.
	var maxPoly atomic.Int64
	samplerQuit := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-samplerQuit:
				return
			case <-time.After(20 * time.Millisecond):
			}
			for _, id := range sites {
				if n := int64(nodes[id].node.Store(id).PolyCount()); n > maxPoly.Load() {
					maxPoly.Store(n)
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(cfg.Seed))
	type pending struct{ h *cluster.Handle }
	var handles []pending
	end := time.Now().Add(cfg.Warmup + cfg.Partition + cfg.Cooldown)
	partitionAt := time.Now().Add(cfg.Warmup)
	partitioned, healed := false, false
	for time.Now().Before(end) {
		now := time.Now()
		if !partitioned && now.After(partitionAt) {
			// Both ends drop A<->B traffic: a symmetric network cut that
			// outlasts every protocol timeout.
			nodes["A"].inj.Partition("A", "B", false, cfg.Partition)
			nodes["B"].inj.Partition("A", "B", false, cfg.Partition)
			partitioned = true
			logf("overload: PARTITION A-B for %s", cfg.Partition)
		}
		if partitioned && !healed && now.After(partitionAt.Add(cfg.Partition)) {
			healed = true // injector heals on its own schedule
			logf("overload: partition healed")
		}
		src := chaosItem(rng.Intn(cfg.Items))
		dst := chaosItem(rng.Intn(cfg.Items))
		for dst == src {
			dst = chaosItem(rng.Intn(cfg.Items))
		}
		amt := 1 + rng.Intn(10)
		coord := sites[rng.Intn(len(sites))]
		prog := fmt.Sprintf("%s = %s - %d if %s >= %d; %s = %s + %d if %s >= %d",
			src, src, amt, src, amt, dst, dst, amt, src, amt)
		h, err := nodes[coord].node.Submit(coord, prog)
		switch {
		case errors.Is(err, cluster.ErrOverload):
			report.Shed++
		case err != nil:
			return nil, fmt.Errorf("submit via %s: %w", coord, err)
		default:
			report.Submitted++
			handles = append(handles, pending{h: h})
		}
		// Offered load well above what AdmissionLimit in-flight slots
		// drain during a partition: ~300 submissions/s across the sites.
		time.Sleep(time.Duration(2+rng.Intn(3)) * time.Millisecond)
	}

	// ----- settle ---------------------------------------------------------
	for _, n := range nodes {
		n.inj.Clear()
	}
	// Every admitted transaction decides within its deadline; drain the
	// tail before auditing so handle statuses are final.
	for _, pt := range handles {
		pt.h.Wait(cfg.TxnDeadline + time.Second)
	}
	settleStart := time.Now()
	deadline := settleStart.Add(cfg.Settle)
	var lastIssues []string
	for time.Now().Before(deadline) {
		lastIssues = overloadQuiesceIssues(nodes, sites, placement, cfg.Items)
		if len(lastIssues) == 0 {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	report.SettleTime = time.Since(settleStart)
	report.Violations = append(report.Violations, lastIssues...)
	close(samplerQuit)
	<-samplerDone
	report.MaxPolyPopulation = int(maxPoly.Load())
	// Fold still-open lock-hold intervals into the blocking accountant
	// before any item.blocked.seconds histogram is read.
	for _, n := range nodes {
		n.node.SyncBlockedAccounting()
	}

	// ----- audits ---------------------------------------------------------
	// Bounded memory: no sample ever exceeded the configured budget.
	if report.MaxPolyPopulation > cfg.MaxPolyBudget {
		report.Violations = append(report.Violations,
			fmt.Sprintf("polyvalue population peaked at %d, budget %d", report.MaxPolyPopulation, cfg.MaxPolyBudget))
	}
	// Conservation: the guarded transfers preserve the total.
	var total int64
	for i := 0; i < cfg.Items; i++ {
		item := chaosItem(i)
		p := nodes[placement(item)].node.Read(item)
		v, certain := p.IsCertain()
		if !certain {
			report.Violations = append(report.Violations,
				fmt.Sprintf("item %s still uncertain at end: %v", item, p))
			continue
		}
		n, ok := value.AsInt(v)
		if !ok {
			report.Violations = append(report.Violations,
				fmt.Sprintf("item %s not an int: %v", item, v))
			continue
		}
		total += n
	}
	if total != wantTotal {
		report.Violations = append(report.Violations,
			fmt.Sprintf("conservation broken: total %d, want %d", total, wantTotal))
	}
	var committedTIDs []string
	for _, pt := range handles {
		switch pt.h.Status() {
		case cluster.StatusCommitted:
			report.Committed++
			committedTIDs = append(committedTIDs, string(pt.h.TID))
		case cluster.StatusAborted:
			report.Aborted++
		default:
			report.Pending++
		}
	}
	// Poly mode restored everywhere, and the overload plane was actually
	// exercised: metrics roll-up per site.
	for _, id := range sites {
		n := nodes[id]
		if mode := n.reg.Gauge("site.budget.mode", metrics.L("site", string(id))).Value(); mode != 0 {
			report.Violations = append(report.Violations,
				fmt.Sprintf("site %s still degraded (budget mode %d) after heal", id, mode))
		}
		report.Degradations += n.reg.Counter("site.budget.degradations", metrics.L("site", string(id))).Value()
		report.Restores += n.reg.Counter("site.budget.restores", metrics.L("site", string(id))).Value()
		report.DegradedTxns += n.reg.Counter("txn.degraded.blocking").Value()
		report.DeadlineExceeded += n.reg.Counter("txn.deadline.exceeded", metrics.L("role", "coordinator")).Value() +
			n.reg.Counter("txn.deadline.exceeded", metrics.L("role", "participant")).Value()
		report.Suspects += n.reg.Counter("transport.peer.suspects").Value()
		report.Recoveries += n.reg.Counter("transport.peer.recoveries").Value()
	}
	if report.Shed == 0 {
		report.Violations = append(report.Violations,
			"no submissions shed: offered load never exceeded the admission cap")
	}
	if report.Suspects == 0 {
		report.Violations = append(report.Violations,
			"failure detector never suspected a partitioned peer")
	}
	if report.DeadlineExceeded == 0 {
		report.Violations = append(report.Violations,
			"no transaction ever hit its deadline: the partition should doom cross-cut work")
	}
	for _, id := range sites {
		collectBlockedSeconds(report.BlockedItemSeconds, nodes[id].reg)
	}
	var spanViolations []string
	report.Spans, spanViolations = auditTraceCompleteness(spanLogs, sites, committedTIDs, cfg.SpanCap)
	report.Violations = append(report.Violations, spanViolations...)

	// ----- teardown audit -------------------------------------------------
	for id, n := range nodes {
		n.node.Close()
		delete(nodes, id)
	}
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+4 && time.Now().Before(leakDeadline) {
		time.Sleep(100 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+4 {
		report.Violations = append(report.Violations,
			fmt.Sprintf("goroutine leak: %d running, baseline %d", got, baseline))
	}

	sort.Strings(report.Violations)
	logf("overload: %s", report)
	if len(report.Violations) > 0 {
		dumpTraceArtifacts(dir, spanLogs, sites, logf)
		logf("overload: data dir kept at %s", dir)
	} else {
		os.RemoveAll(dir)
	}
	return report, nil
}

// overloadQuiesceIssues reports what still blocks quiescence after the
// heal: unreduced polyvalues, uncertain items, degraded budget mode, or
// invariant violations.
func overloadQuiesceIssues(nodes map[protocol.SiteID]*overloadNode, sites []protocol.SiteID,
	placement func(string) protocol.SiteID, items int) []string {
	var issues []string
	for _, id := range sites {
		n := nodes[id]
		if polys := n.node.PolyItems(); len(polys) > 0 {
			issues = append(issues, fmt.Sprintf("site %s: unreduced polyvalues %v", id, polys))
		}
		if mode := n.reg.Gauge("site.budget.mode", metrics.L("site", string(id))).Value(); mode != 0 {
			issues = append(issues, fmt.Sprintf("site %s: still in degraded mode", id))
		}
		if v := n.node.CheckInvariants(); len(v) > 0 {
			issues = append(issues, v...)
		}
	}
	for i := 0; i < items; i++ {
		item := chaosItem(i)
		if _, certain := nodes[placement(item)].node.Read(item).IsCertain(); !certain {
			issues = append(issues, fmt.Sprintf("item %s uncertain", item))
		}
	}
	return issues
}
