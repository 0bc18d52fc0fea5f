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
	"time"

	"repro/internal/cluster"
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
	ScenarioReport
	Txns int
	// FaultCmds is the number of network-weather commands applied.
	FaultCmds int
}

func (r *ChaosReport) String() string {
	return fmt.Sprintf("chaos seed=%d sites=%d txns=%d committed=%d aborted=%d pending=%d kills=%d faults=%d settle=%s: %s",
		r.Seed, r.Sites, r.Txns, r.Committed, r.Aborted, r.Pending, r.Kills, r.FaultCmds, r.SettleTime.Round(time.Millisecond), r.status())
}

// steppedDefaults fills the defaults the count-bounded schedules share:
// 4 items, 40 transfers, 3 kill cycles (negative means none).
func steppedDefaults(items, txns, killCycles *int) {
	if *items <= 0 {
		*items = 4
	}
	if *txns <= 0 {
		*txns = 40
	}
	if *killCycles < 0 {
		*killCycles = 0
	} else if *killCycles == 0 {
		*killCycles = 3
	}
}

// RunChaos executes one seeded torture run and returns its report.  A
// non-nil error means the run could not execute (infrastructure
// failure); protocol-level failures land in report.Violations instead.
// What is RunChaos's own is the network weather and the kill-cycle
// options; bring-up, settle and audits are the scenario runner's.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	steppedDefaults(&cfg.Items, &cfg.Txns, &cfg.KillCycles)
	rep := &ChaosReport{Txns: cfg.Txns}
	r, err := runScenario(scenario{
		name: "chaos", seed: cfg.Seed, sites: cfg.Sites, items: cfg.Items,
		settle: cfg.Settle, dataDir: cfg.DataDir, spanCap: cfg.SpanCap,
		logf: cfg.Logf, faultLogf: cfg.Logf,
		txns: cfg.Txns, maxAmt: 20, pace: [2]int{10, 40},
		killCycles: cfg.KillCycles, crashPoint: cfg.CrashPoint, strand: cfg.Strand, extraKills: cfg.ExtraKills,
		net: netWeather,
		node: func(c *cluster.Config) {
			c.Policy, c.MaxPolyBudget, c.DecisionPlane = cfg.Policy, cfg.MaxPolyBudget, cfg.DecisionPlane
		},
	}, &rep.ScenarioReport)
	if err != nil {
		return nil, err
	}
	rep.FaultCmds = r.netCmds
	r.logf("%s", rep)
	return rep, nil
}
