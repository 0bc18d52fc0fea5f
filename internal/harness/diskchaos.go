// Disk-fault torture: RunDiskChaos drives the same multi-site TCP
// cluster as RunChaos, but the weather hits the storage plane instead of
// the network — every site's WAL lives on a fault.Disk injecting
// fsync failures, torn writes, ENOSPC and slow-disk delays, with
// read-path bit-flips armed against recovery reads on kill cycles.  The
// run asserts the fsyncgate discipline end to end: a site whose log
// write fails takes a durability panic (never acking Prepared/Committed
// it cannot hold), refuses restart, and is revived only by rebuilding
// the node from the on-disk bytes; whatever the disk did, the cluster
// must settle into a state that conserves money, holds zero unreduced
// polyvalues, recovers every WAL idempotently, and passes a full
// crash-recovery frontier sweep over every site's final log.
package harness

import (
	"fmt"
	"time"
)

// DiskChaosConfig parameterizes one disk-fault torture run.  The zero
// value (plus a seed) is a sensible full run; tests shrink Txns and
// KillCycles for smoke.
type DiskChaosConfig struct {
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
	// KillCycles is the number of kill-9 cycles woven into the schedule.
	// Each clears the victim's disk rules (the rebuild models a machine
	// replacement), arms a crash point half the time and a one-shot
	// read-path bit-flip against the recovery read half the time, then
	// hard-kills the node and rebuilds it over the same WAL.  Default 3.
	KillCycles int
	// Settle bounds the final quiescence wait.  Default 45s.
	Settle time.Duration
	// DataDir holds the per-site WAL files; empty means a fresh temp
	// directory (removed on success, kept on failure for inspection).
	DataDir string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// DiskChaosReport summarizes a finished disk torture run.  Violations
// empty means every assertion held.
type DiskChaosReport struct {
	ScenarioReport
	Txns int
	// Rebuilds counts node rebuilds forced by durability panics (a
	// restarted kill victim is a kill, not a rebuild).
	Rebuilds int
	// DiskFaultCmds is the number of disk-weather commands applied.
	DiskFaultCmds int
	// DurabilityPanics sums site.durability.panics across sites: how
	// many incarnations died rather than ack durability after a failed
	// WAL write or fsync.
	DurabilityPanics int64
	// DiskFaultsInjected sums storage.fault.injected across sites.
	DiskFaultsInjected int64
	// CorruptReads sums storage.corrupt.reads: recovery read passes
	// whose damage was detected by CRC and healed on re-read.
	CorruptReads int64
}

func (r *DiskChaosReport) String() string {
	return fmt.Sprintf("diskchaos seed=%d sites=%d txns=%d committed=%d aborted=%d pending=%d kills=%d rebuilds=%d diskcmds=%d injected=%d panics=%d corrupt-reads=%d frontier=%d/%d settle=%s: %s",
		r.Seed, r.Sites, r.Txns, r.Committed, r.Aborted, r.Pending, r.Kills, r.Rebuilds,
		r.DiskFaultCmds, r.DiskFaultsInjected, r.DurabilityPanics, r.CorruptReads,
		r.FrontierFrames, r.FrontierTorn, r.SettleTime.Round(time.Millisecond), r.status())
}

// RunDiskChaos executes one seeded disk torture run and returns its
// report.  A non-nil error means the run could not execute
// (infrastructure failure); protocol- or durability-level failures land
// in report.Violations instead.  What is RunDiskChaos's own is the disk
// weather; bring-up, settle and audits are the scenario runner's.
func RunDiskChaos(cfg DiskChaosConfig) (*DiskChaosReport, error) {
	steppedDefaults(&cfg.Items, &cfg.Txns, &cfg.KillCycles)
	rep := &DiskChaosReport{Txns: cfg.Txns}
	r, err := runScenario(scenario{
		name: "diskchaos", seed: cfg.Seed, sites: cfg.Sites, items: cfg.Items,
		settle: cfg.Settle, dataDir: cfg.DataDir,
		logf: cfg.Logf, faultLogf: cfg.Logf,
		txns: cfg.Txns, maxAmt: 20, pace: [2]int{10, 40}, killCycles: cfg.KillCycles,
		disk: diskWeather,
		audits: []audit{func(r *run) []string {
			if r.rep.FrontierTorn == 0 {
				return []string{"frontier sweep recovered zero torn-tail variants"}
			}
			return nil
		}},
	}, &rep.ScenarioReport)
	if err != nil {
		return nil, err
	}
	rep.Rebuilds, rep.DiskFaultCmds = r.rebuilds, r.diskCmds
	rep.DurabilityPanics = r.counters["site.durability.panics"]
	rep.DiskFaultsInjected = r.counters["storage.fault.injected"]
	rep.CorruptReads = r.counters["storage.corrupt.reads"]
	r.logf("%s", rep)
	return rep, nil
}
