package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/workload"
)

func TestValidation(t *testing.T) {
	bad := []Experiment{
		{Sites: 1, Items: 10, Txns: 10},
		{Sites: 3, Items: 1, Txns: 10},
		{Sites: 3, Items: 10, Txns: 0},
	}
	for i, e := range bad {
		if _, err := Run(e); err == nil {
			t.Errorf("bad experiment %d accepted", i)
		}
	}
}

func TestCleanRunCommitsEverythingEligible(t *testing.T) {
	rep, err := Run(Experiment{
		Sites: 3, Items: 12, Txns: 40,
		Workload: workload.Bank, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pending != 0 {
		t.Errorf("pending = %d with no failures", rep.Pending)
	}
	if rep.Committed == 0 {
		t.Error("nothing committed")
	}
	if rep.PeakPolys != 0 || rep.FinalPolys != 0 {
		t.Errorf("polyvalues without failures: peak=%d final=%d", rep.PeakPolys, rep.FinalPolys)
	}
	if !rep.ConservationOK {
		t.Errorf("money not conserved: %d -> %d", rep.TotalBefore, rep.TotalAfter)
	}
	if rep.Availability() != 1 {
		t.Errorf("availability = %g with no failure windows", rep.Availability())
	}
	if len(rep.Violations) > 0 {
		t.Errorf("settle audit: %v", rep.Violations)
	}
}

func TestFailureRunPolyvaluePolicy(t *testing.T) {
	rep, err := Run(Experiment{
		Sites: 3, Items: 12, Txns: 60,
		Workload: workload.Bank, Policy: cluster.PolicyPolyvalue,
		CrashEvery: 15, RepairAfter: 2 * time.Second, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.InDoubt == 0 {
		t.Fatal("no in-doubt windows created — crash schedule ineffective")
	}
	if rep.PeakPolys == 0 {
		t.Error("no polyvalues observed despite in-doubt windows")
	}
	if rep.FinalPolys != 0 {
		t.Errorf("polyvalues survived settle: %d", rep.FinalPolys)
	}
	if !rep.ConservationOK {
		t.Errorf("money not conserved: %d -> %d", rep.TotalBefore, rep.TotalAfter)
	}
	if rep.DuringFailure == 0 {
		t.Fatal("no transactions ran during failure windows")
	}
	if len(rep.Series) != 60 {
		t.Errorf("series length = %d", len(rep.Series))
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
	if len(rep.Violations) > 0 {
		t.Errorf("settle audit: %v", rep.Violations)
	}
}

// TestPolicyAvailabilityOrdering is the A1/A3 ablation and the E5 curve
// at test scale, over crash frequency: on the same workload and failure
// schedule, polyvalue availability during failure windows is at least
// blocking's and arbitrary's, strictly above blocking's where marked,
// and polyvalue conserves money.  Every run passes the settle audit.
func TestPolicyAvailabilityOrdering(t *testing.T) {
	for _, row := range []struct {
		items      int
		seed       int64
		crashEvery int
		strict     bool
	}{
		{6, 3, 10, false},
		{6, 3, 15, true},
		{6, 3, 20, false},
		{6, 3, 30, false},
		// Seed 9 breaks conservation under the arbitrary policy.
		{8, 9, 15, true},
	} {
		t.Run(fmt.Sprintf("seed=%d,crash-every=%d", row.seed, row.crashEvery), func(t *testing.T) {
			reps := map[cluster.Policy]Report{}
			for _, p := range []cluster.Policy{cluster.PolicyPolyvalue, cluster.PolicyBlocking, cluster.PolicyArbitrary} {
				rep, err := Run(Experiment{
					Sites: 3, Items: row.items, Txns: 60,
					Workload: workload.Bank, Policy: p,
					CrashEvery: row.crashEvery, RepairAfter: time.Second,
					Gap: 100 * time.Millisecond, Seed: row.seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.DuringFailure == 0 {
					t.Fatalf("%s: no failure-window traffic", p)
				}
				if len(rep.Violations) > 0 {
					t.Errorf("%s: settle audit: %v", p, rep.Violations)
				}
				reps[p] = rep
			}
			poly, block, arb := reps[cluster.PolicyPolyvalue], reps[cluster.PolicyBlocking], reps[cluster.PolicyArbitrary]
			if poly.Availability() < block.Availability() ||
				row.strict && poly.Availability() == block.Availability() {
				t.Errorf("polyvalue availability %.2f, blocking %.2f", poly.Availability(), block.Availability())
			}
			if poly.Availability() < arb.Availability()-1e-9 {
				t.Errorf("polyvalue availability %.2f below arbitrary %.2f", poly.Availability(), arb.Availability())
			}
			if !poly.ConservationOK {
				t.Errorf("polyvalue policy violated conservation: %d -> %d", poly.TotalBefore, poly.TotalAfter)
			}
			if !block.ConservationOK {
				t.Errorf("blocking policy violated conservation: %d -> %d", block.TotalBefore, block.TotalAfter)
			}
		})
	}
}

func TestReservationsWorkloadRuns(t *testing.T) {
	rep, err := Run(Experiment{
		Sites: 3, Items: 8, Txns: 30,
		Workload: workload.Reservations, Policy: cluster.PolicyPolyvalue,
		CrashEvery: 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed == 0 {
		t.Error("no reservations granted")
	}
	if rep.FinalPolys != 0 {
		t.Errorf("unresolved polyvalues: %d", rep.FinalPolys)
	}
	if len(rep.Violations) > 0 {
		t.Errorf("settle audit: %v", rep.Violations)
	}
}

// TestRunDeterministicExport: a seeded run with crashes and restarts
// exports the same metrics every time.  Anything a restart does in map
// order (inquiries that draw network jitter, float sums of blocked time)
// shows up here as a differing line.
func TestRunDeterministicExport(t *testing.T) {
	var first string
	for run := 0; run < 4; run++ {
		rep, err := Run(Experiment{
			Sites: 5, Items: 64, Txns: 300,
			Workload: workload.Bank, CrashEvery: 7, Seed: 3,
			Net: network.Config{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Metrics.Export()
		if run == 0 {
			first = got
			continue
		}
		if got != first {
			a, b := strings.Split(first, "\n"), strings.Split(got, "\n")
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("run %d exports differently from run 0 at line %d:\n  %s\n  %s", run, i+1, a[i], b[i])
				}
			}
			t.Fatalf("run %d exports %d lines, run 0 %d", run, len(b), len(a))
		}
	}
}
