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
	"repro/internal/value"
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
	sites := make([]protocol.SiteID, e.Sites)
	for i := range sites {
		sites[i] = protocol.SiteID(fmt.Sprintf("site%d", i))
	}
	net := e.Net
	if net.Latency == 0 {
		net.Latency = 10 * time.Millisecond
	}
	if net.Seed == 0 {
		net.Seed = e.Seed
	}
	c, err := cluster.New(cluster.Config{Sites: sites, Net: net, Policy: e.Policy, Metrics: e.Metrics})
	if err != nil {
		return Report{}, err
	}
	defer c.Close()

	gen, err := workload.New(workload.Config{Kind: e.Workload, Items: e.Items, Seed: e.Seed})
	if err != nil {
		return Report{}, err
	}
	var totalBefore int64
	for item, p := range gen.InitialState() {
		if err := c.Load(item, p); err != nil {
			return Report{}, err
		}
		if v, ok := p.IsCertain(); ok {
			if n, ok := value.AsInt(v); ok {
				totalBefore += n
			}
		}
	}

	var rep Report
	rep.TotalBefore = totalBefore
	// repairAt schedules restarts for sites observed down; the failpoint
	// fires at the next commit decision, so the harness watches actual
	// down state rather than assuming when the crash happens.
	repairAt := map[protocol.SiteID]time.Duration{}
	handles := make([]*cluster.Handle, 0, e.Txns)
	duringFailure := make([]bool, 0, e.Txns)

	anyDown := func() bool {
		for _, s := range sites {
			if c.IsDown(s) {
				return true
			}
		}
		return false
	}

	for i := 0; i < e.Txns; i++ {
		now := c.Now()
		// Schedule repairs for newly observed crashes; apply due ones.
		for _, s := range sites {
			if c.IsDown(s) {
				if _, scheduled := repairAt[s]; !scheduled {
					repairAt[s] = now + e.RepairAfter
				}
			}
		}
		for s, at := range repairAt {
			if at <= now {
				c.Restart(s)
				delete(repairAt, s)
			}
		}
		coord := sites[i%len(sites)]
		if c.IsDown(coord) {
			// Pick a live coordinator instead (clients retarget).
			for _, s := range sites {
				if !c.IsDown(s) {
					coord = s
					break
				}
			}
		}
		if e.CrashEvery > 0 && i > 0 && i%e.CrashEvery == 0 && !c.IsDown(coord) {
			c.ArmCrashBeforeDecision(coord)
		}
		failureWindow := anyDown()
		h, err := c.Submit(coord, gen.Next())
		if err != nil {
			return Report{}, err
		}
		handles = append(handles, h)
		duringFailure = append(duringFailure, failureWindow)
		c.RunFor(e.Gap)

		polys := len(c.PolyItems())
		if polys > rep.PeakPolys {
			rep.PeakPolys = polys
		}
		rep.MeanPolys += float64(polys)
		rep.Series = append(rep.Series, Sample{At: c.Now(), Polys: polys, SiteDown: anyDown()})
	}
	rep.MeanPolys /= float64(e.Txns)

	// Repair everything and settle.
	rep.PreSettle = c.Metrics().Snapshot()
	for _, s := range sites {
		if c.IsDown(s) {
			c.Restart(s)
		}
	}
	c.RunFor(e.SettleTime)

	for i, h := range handles {
		switch h.Status() {
		case cluster.StatusCommitted:
			rep.Committed++
			if duringFailure[i] {
				rep.DuringFailureCommitted++
			}
		case cluster.StatusAborted:
			rep.Aborted++
		default:
			rep.Pending++
		}
		if duringFailure[i] {
			rep.DuringFailure++
		}
	}
	rep.FinalPolys = len(c.PolyItems())
	rep.Stats = c.Stats()
	rep.Metrics = c.Metrics().Snapshot()
	rep.SimulatedDuration = c.Now()

	// Conservation check (bank workload): money is neither created nor
	// destroyed by any mix of commits, aborts and recoveries.
	rep.ConservationOK = true
	if e.Workload == workload.Bank {
		var total int64
		for i := 0; i < e.Items; i++ {
			p := c.Read(gen.Item(i))
			v, ok := p.IsCertain()
			if !ok {
				rep.ConservationOK = false
				continue
			}
			n, _ := value.AsInt(v)
			total += n
		}
		rep.TotalAfter = total
		if total != totalBefore {
			rep.ConservationOK = false
		}
	} else {
		rep.TotalAfter = rep.TotalBefore
	}
	return rep, nil
}

// String summarizes the report.
func (r Report) String() string {
	return fmt.Sprintf(
		"committed=%d aborted=%d pending=%d availability=%.2f peakPolys=%d finalPolys=%d conserved=%v",
		r.Committed, r.Aborted, r.Pending, r.Availability(), r.PeakPolys, r.FinalPolys, r.ConservationOK)
}
