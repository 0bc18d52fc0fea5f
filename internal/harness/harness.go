// Package harness drives cluster-level experiments: a workload runs
// against a live multi-site cluster while coordinators crash at critical
// 2PC moments on a schedule, and the harness measures what the paper
// cares about — whether processing continues (availability), how many
// polyvalues exist over time (the §4 population), and whether the
// database returns to a consistent certain state after repair.
//
// This complements internal/sim: sim reproduces the paper's *abstract*
// §4.2 simulation; harness validates the same claims against the actual
// protocol implementation, goroutine sites, WAL recovery and all.
package harness

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// Experiment configures one harness run.
type Experiment struct {
	// Sites is the number of database sites (≥ 2).
	Sites int
	// Items is the number of workload items.
	Items int
	// Txns is how many transactions to submit.
	Txns int
	// Workload selects the §5 application domain.
	Workload workload.Kind
	// Policy selects the wait-timeout behaviour under test.
	Policy cluster.Policy
	// CrashEvery crashes the coordinator of every k-th transaction at
	// the critical moment (0 = never).
	CrashEvery int
	// RepairAfter is how long (simulated) a crashed site stays down.
	// Default 3s.
	RepairAfter time.Duration
	// Gap is the simulated time between submissions.  Default 50ms.
	Gap time.Duration
	// SettleTime is how long to run after the last submission so all
	// outcome propagation drains.  Default 30s.
	SettleTime time.Duration
	// Seed drives workload and network randomness.
	Seed int64
	// Net overrides the network config (zero value = 10ms latency).
	Net network.Config
	// Metrics, when set, is the registry the cluster reports into (nil
	// gives the cluster a private one); either way Report.Metrics carries
	// the post-settle snapshot.
	Metrics *metrics.Registry
}

func (e *Experiment) fillDefaults() error {
	if e.Sites < 2 {
		return fmt.Errorf("harness: need ≥ 2 sites, got %d", e.Sites)
	}
	if e.Items < 2 {
		return fmt.Errorf("harness: need ≥ 2 items, got %d", e.Items)
	}
	if e.Txns < 1 {
		return fmt.Errorf("harness: need ≥ 1 transactions, got %d", e.Txns)
	}
	if e.RepairAfter <= 0 {
		e.RepairAfter = 3 * time.Second
	}
	if e.Gap <= 0 {
		e.Gap = 50 * time.Millisecond
	}
	if e.SettleTime <= 0 {
		e.SettleTime = 30 * time.Second
	}
	return nil
}

// Sample is one point of the polyvalue-population time series.
type Sample struct {
	// At is the simulated time of the sample.
	At time.Duration
	// Polys is the cluster-wide count of polyvalued items.
	Polys int
	// SiteDown reports whether any site was down at the sample.
	SiteDown bool
}

// Report is the outcome of one experiment.
type Report struct {
	// Committed/Aborted/Pending count client-visible statuses after
	// settle.
	Committed, Aborted, Pending int
	// DuringFailure counts transactions submitted while some site was
	// down; DuringFailureCommitted of them committed — the availability
	// measure of the A1 ablation.
	DuringFailure          int
	DuringFailureCommitted int
	// PeakPolys and MeanPolys summarize the population time series.
	PeakPolys int
	MeanPolys float64
	// FinalPolys is the count after settle (0 = all uncertainty
	// resolved; the §3.3 liveness property).
	FinalPolys int
	// ConservationOK reports the bank-workload invariant: total money
	// unchanged (always true for other workloads).
	ConservationOK bool
	// Violations lists what the settle audit found after repair:
	// unreduced polyvalues, dependency-table or await leftovers, and
	// invariant breaks.  Empty on a healthy run.
	Violations []string
	// TotalBefore/TotalAfter carry the conservation sums for bank runs.
	TotalBefore, TotalAfter int64
	// Stats snapshots the cluster counters.
	Stats cluster.Stats
	// Metrics is the full post-settle metrics snapshot (protocol phases,
	// network message counts, polyvalue lifetimes, WAL activity), and
	// PreSettle the one taken after the last submission, before repair:
	// Metrics.Diff(PreSettle) is what repair and settle alone did.
	Metrics, PreSettle metrics.Snapshot
	// Series is the population time series (one sample per submission).
	Series []Sample
	// SimulatedDuration is the total simulated time.
	SimulatedDuration time.Duration
}

// Availability returns the committed fraction of transactions submitted
// during failure windows (1.0 when there were none).
func (r Report) Availability() float64 {
	if r.DuringFailure == 0 {
		return 1
	}
	return float64(r.DuringFailureCommitted) / float64(r.DuringFailure)
}

// Run executes the experiment.
func Run(e Experiment) (Report, error) {
	if err := e.fillDefaults(); err != nil {
		return Report{}, err
	}
	net := e.Net
	if net.Latency == 0 {
		net.Latency = 10 * time.Millisecond
	}
	if net.Seed == 0 {
		net.Seed = e.Seed
	}
	gen, err := workload.New(workload.Config{Kind: e.Workload, Items: e.Items, Seed: e.Seed})
	if err != nil {
		return Report{}, err
	}
	s, totalBefore, err := newSim(cluster.Config{Sites: siteIDs("site", e.Sites), Net: net,
		Policy: e.Policy, Metrics: e.Metrics}, gen.InitialState())
	if err != nil {
		return Report{}, err
	}
	defer s.Close()

	rep := Report{TotalBefore: totalBefore}
	// repairAt schedules a restart RepairAfter from when a site is first
	// seen down: the failpoint fires at the next commit decision, so the
	// harness watches actual down state rather than assuming when the
	// crash happens.
	repairAt := map[protocol.SiteID]time.Duration{}
	duringFailure := make([]bool, 0, e.Txns)
	for i := 0; i < e.Txns; i++ {
		for _, id := range s.sites {
			if at, seen := repairAt[id]; seen && at <= s.Now() {
				s.Restart(id)
				delete(repairAt, id)
			} else if !seen && s.IsDown(id) {
				repairAt[id] = s.Now() + e.RepairAfter
			}
		}
		// The i-th site coordinates; while it is down, clients retarget
		// the first live site.
		order := append([]protocol.SiteID{s.sites[i%len(s.sites)]}, s.sites...)
		coord := s.live(func() (id protocol.SiteID) { id, order = order[0], order[1:]; return id })
		if e.CrashEvery > 0 && i > 0 && i%e.CrashEvery == 0 && !s.IsDown(coord) {
			s.ArmCrashBeforeDecision(coord)
		}
		duringFailure = append(duringFailure, s.down() > 0)
		if duringFailure[i] {
			rep.DuringFailure++
		}
		if _, err := s.submit(coord, gen.Next()); err != nil {
			return Report{}, err
		}
		s.RunFor(e.Gap)

		polys := len(s.PolyItems())
		rep.PeakPolys = max(rep.PeakPolys, polys)
		rep.MeanPolys += float64(polys)
		rep.Series = append(rep.Series, Sample{At: s.Now(), Polys: polys, SiteDown: s.down() > 0})
	}
	rep.MeanPolys /= float64(e.Txns)

	rep.PreSettle = s.Metrics().Snapshot()
	s.repair()
	s.RunFor(e.SettleTime)

	rep.Committed, rep.Aborted, rep.Pending = tally(s.handles, func(i int) {
		if duringFailure[i] {
			rep.DuringFailureCommitted++
		}
	})
	rep.FinalPolys = len(s.PolyItems())
	rep.Stats = s.Stats()
	rep.Metrics = s.Metrics().Snapshot()
	rep.SimulatedDuration = s.Now()
	rep.Violations = settled(s.Cluster, s.sites...)

	// Conservation (bank workload): money is neither created nor
	// destroyed by any mix of commits, aborts and recoveries.
	rep.ConservationOK, rep.TotalAfter = true, rep.TotalBefore
	if e.Workload == workload.Bank {
		var broken []string
		rep.TotalAfter, broken = conservation(s.items, s.read, totalBefore)
		rep.ConservationOK = len(broken) == 0
	}
	return rep, nil
}

// String summarizes the report.
func (r Report) String() string {
	return fmt.Sprintf(
		"committed=%d aborted=%d pending=%d availability=%.2f peakPolys=%d finalPolys=%d conserved=%v",
		r.Committed, r.Aborted, r.Pending, r.Availability(), r.PeakPolys, r.FinalPolys, r.ConservationOK)
}
