package harness

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
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
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// OverloadReport summarizes a finished overload run.  Violations empty
// means every assertion held.
type OverloadReport struct {
	ScenarioReport
	// Submitted counts admitted submissions, Shed the ones refused with
	// cluster.ErrOverload before touching protocol state.
	Submitted int
	Shed      int64
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
}

func (r *OverloadReport) String() string {
	return fmt.Sprintf("overload seed=%d submitted=%d shed=%d committed=%d aborted=%d pending=%d maxpoly=%d degraded_txns=%d deadline=%d suspects=%d settle=%s: %s",
		r.Seed, r.Submitted, r.Shed, r.Committed, r.Aborted, r.Pending,
		r.MaxPolyPopulation, r.DegradedTxns, r.DeadlineExceeded, r.Suspects,
		r.SettleTime.Round(time.Millisecond), r.status())
}

// RunOverload executes one overload torture run: three sites with
// admission caps, transaction deadlines, polyvalue budgets, and
// heartbeat failure detectors; offered load above the cap throughout;
// and a sustained A—B partition in the middle.  The run passes when the
// polyvalue population stayed at or below budget on every sample, money
// was conserved, every site returned to polyvalue mode after the heal,
// and the scenario runner's generic audits hold.  What is RunOverload's
// own is the open load, the partition, the overload knobs and the
// audits that the plane was exercised and stayed bounded.
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
	if cfg.SpanCap == 0 {
		cfg.SpanCap = 1 << 18
	}
	rep := &OverloadReport{}
	// The largest polyvalue population any site shows is sampled at
	// every load step (every 2–4ms) and every settle pass.
	sample := func(r *run) {
		for id, s := range r.sites {
			rep.MaxPolyPopulation = max(rep.MaxPolyPopulation, s.node.Store(id).PolyCount())
		}
	}
	budgetMode := func(s *site) int64 {
		return s.reg.Gauge("site.budget.mode", metrics.L("site", string(s.id))).Value()
	}
	var partitionAt time.Time
	partitioned := false
	r, err := runScenario(scenario{
		name: "overload", seed: cfg.Seed, sites: 3, items: cfg.Items,
		settle: cfg.Settle, spanCap: cfg.SpanCap, logf: cfg.Logf,
		// Offered load well above what AdmissionLimit in-flight slots
		// drain during a partition: ~300 submissions/s across the sites.
		loadFor: cfg.Warmup + cfg.Partition + cfg.Cooldown, maxAmt: 10, pace: [2]int{2, 3},
		heartbeat: 100 * time.Millisecond,
		net: func(r *run, step int) error {
			if step == 0 {
				// Background message loss on every link: dropped Ready and
				// Complete messages strand participants in doubt, which is
				// what actually populates (and pressures) the polyvalue budget.
				for _, s := range r.sites {
					s.inj.SetRule(fault.Rule{Kind: fault.KindDrop, From: fault.Wildcard, To: fault.Wildcard, P: cfg.DropP})
				}
				partitionAt = time.Now().Add(cfg.Warmup)
			}
			if !partitioned && time.Now().After(partitionAt) {
				// Both ends drop A<->B traffic: a symmetric network cut that
				// outlasts every protocol timeout and heals on the injectors'
				// own schedule.
				r.sites["A"].inj.Partition("A", "B", false, cfg.Partition)
				r.sites["B"].inj.Partition("A", "B", false, cfg.Partition)
				partitioned = true
				r.logf("PARTITION A-B for %s", cfg.Partition)
			}
			sample(r)
			return nil
		},
		node: func(c *cluster.Config) {
			c.ReadyTimeout = time.Second // > TxnDeadline: the deadline is the binding timeout
			c.AdmissionLimit, c.TxnDeadline, c.MaxPolyBudget = cfg.AdmissionLimit, cfg.TxnDeadline, cfg.MaxPolyBudget
		},
		// Quiescence here also means every site is back in polyvalue mode
		// and every admitted transaction has decided: no coordinator is
		// ever killed, so each decides within its deadline, and the audits
		// must not read statuses or balances under a straggler.
		quiet: func(r *run) []string {
			sample(r)
			var issues []string
			for _, id := range r.ids {
				if mode := budgetMode(r.sites[id]); mode != 0 {
					issues = append(issues, fmt.Sprintf("site %s still degraded (budget mode %d) after heal", id, mode))
				}
			}
			undecided := 0
			for _, h := range r.handles {
				if s := h.Status(); s != cluster.StatusCommitted && s != cluster.StatusAborted {
					undecided++
				}
			}
			if undecided > 0 {
				issues = append(issues, fmt.Sprintf("%d admitted transactions still undecided", undecided))
			}
			return issues
		},
		audits: []audit{func(r *run) []string {
			rep.Submitted, rep.Shed = len(r.handles), int64(r.shed)
			rep.Degradations, rep.Restores = r.counters["site.budget.degradations"], r.counters["site.budget.restores"]
			rep.DegradedTxns = r.counters["txn.degraded.blocking"]
			rep.DeadlineExceeded = r.counters["txn.deadline.exceeded"]
			rep.Suspects, rep.Recoveries = r.counters["transport.peer.suspects"], r.counters["transport.peer.recoveries"]
			var out []string
			if rep.MaxPolyPopulation > cfg.MaxPolyBudget {
				out = append(out, fmt.Sprintf("polyvalue population peaked at %d, budget %d", rep.MaxPolyPopulation, cfg.MaxPolyBudget))
			}
			if rep.Shed == 0 {
				out = append(out, "no submissions shed: offered load never exceeded the admission cap")
			}
			if rep.Suspects == 0 {
				out = append(out, "failure detector never suspected a partitioned peer")
			}
			if rep.DeadlineExceeded == 0 {
				out = append(out, "no transaction ever hit its deadline: the partition should doom cross-cut work")
			}
			return out
		}},
	}, &rep.ScenarioReport)
	if err != nil {
		return nil, err
	}
	r.logf("%s", rep)
	return rep, nil
}
