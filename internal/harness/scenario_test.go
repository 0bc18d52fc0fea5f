package harness

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestFixtureKillRestartRebuild pins the three ways a fixture site
// changes incarnation, on a 3-site cluster with no weather: a killed
// site blocks quiescence until it is started again, which rebinds the
// same address and recovers the WAL, and a durability-lost site comes
// back only through rebuild, which also clears its disk rules.
func TestFixtureKillRestartRebuild(t *testing.T) {
	var rep ScenarioReport
	r, err := bringUp(scenario{
		name: "chaos", seed: 1, items: 3, logf: t.Logf,
		disk: func(*run, int) error { return nil }, // a disk to break, no weather
	}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.submit("A", transferText("it0", "it1", 30)); err != nil { // A -> B
		t.Fatal(err)
	}
	if st, _ := r.handles[0].Wait(10 * time.Second); st != cluster.StatusCommitted {
		t.Fatalf("transfer: %v (%s)", st, r.handles[0].Reason())
	}
	r.sc.settle = 20 * time.Second
	if issues := r.settle(); len(issues) > 0 { // B has applied the outcome
		t.Fatalf("settle before any failure: %v", issues)
	}

	r.kill("B")
	r.sc.settle = 300 * time.Millisecond
	if issues := r.settle(); !slices.Contains(issues, "site B not running") {
		t.Errorf("settle with B killed reported %v", issues)
	}
	addr := r.peers["B"]
	if err := r.start("B"); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.read("it1"); got.String() != "130" || r.peers["B"] != addr {
		t.Errorf("restarted B at %s (was %s) holds it1=%v, want the WAL's 130", r.peers["B"], addr, got)
	}
	r.sc.settle = 20 * time.Second
	if issues := r.settle(); len(issues) > 0 {
		t.Errorf("settle after restart: %v", issues)
	}

	// The next fsync under A fails: A must die rather than ack, refuse
	// Restart, and come back only by rebuild — with the rule gone.
	if err := r.diskFault(0, "A", "fsync p=1 once"); err != nil {
		t.Fatal(err)
	}
	if err := r.submit("A", transferText("it0", "it1", 5)); err != nil {
		t.Fatal(err)
	}
	a := r.sites["A"]
	for deadline := time.Now().Add(10 * time.Second); !a.node.DurabilityLost("A"); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("injected fsync failure never became a durability panic")
		}
	}
	if _, err := a.disk.Apply("slow p=1 min=1ms max=1ms sticky"); err != nil {
		t.Fatal(err)
	}
	a.node.Restart("A")
	if !a.node.IsDown("A") || !a.node.DurabilityLost("A") {
		t.Error("Restart revived a durability-lost site")
	}
	if err := r.rebuild("A", "test"); err != nil {
		t.Fatal(err)
	}
	if a.node.IsDown("A") || a.node.DurabilityLost("A") || len(a.disk.Counts()) == 0 {
		t.Errorf("rebuilt A: down=%v lost=%v injected=%v", a.node.IsDown("A"), a.node.DurabilityLost("A"), a.disk.Counts())
	}
	if status := a.disk.Status(); !strings.HasPrefix(status, "no active disk faults") {
		t.Errorf("rebuild left disk rules on A:\n%s", status)
	}
	if issues := r.settle(); len(issues) > 0 {
		t.Errorf("settle after rebuild: %v", issues)
	}
	if v := r.auditConservation(); len(v) > 0 || r.rebuilds != 1 {
		t.Errorf("conservation %v, rebuilds %d", v, r.rebuilds)
	}
}

// TestNetAndDiskWeatherSeeded runs network weather and disk weather in
// the same seeded schedule — the combination no exported entry point
// declares — under every generic audit.
func TestNetAndDiskWeatherSeeded(t *testing.T) {
	var rep ScenarioReport
	r, err := runScenario(scenario{
		name: "chaos", seed: 20260927, items: 4, settle: 45 * time.Second,
		logf: t.Logf, faultLogf: t.Logf,
		txns: 12, maxAmt: 20, pace: [2]int{10, 40}, killCycles: 1,
		net: netWeather, disk: diskWeather,
	}, &rep)
	if err != nil {
		t.Fatalf("run failed to execute: %v", err)
	}
	t.Logf("committed=%d aborted=%d pending=%d kills=%d rebuilds=%d netcmds=%d diskcmds=%d spans=%d frontier=%d/%d settle=%s: %s",
		rep.Committed, rep.Aborted, rep.Pending, rep.Kills, r.rebuilds, r.netCmds, r.diskCmds,
		rep.Spans, rep.FrontierFrames, rep.FrontierTorn, rep.SettleTime, rep.status())
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if r.netCmds == 0 || r.diskCmds == 0 || rep.Kills != 1 {
		t.Errorf("schedule exercised netcmds=%d diskcmds=%d kills=%d", r.netCmds, r.diskCmds, rep.Kills)
	}
	if rep.Spans == 0 || rep.FrontierTorn == 0 {
		t.Errorf("generic audits saw spans=%d frontier torn=%d", rep.Spans, rep.FrontierTorn)
	}
}

// TestFailedRunKeepsEvidence: a run with a violation keeps its
// harness-owned data dir with every artifact kind in it — WALs, span
// dumps, rendered timelines — on any plane; a clean run removes it.
func TestFailedRunKeepsEvidence(t *testing.T) {
	for _, fail := range []bool{true, false} {
		sc := scenario{name: "diskchaos", seed: 1, items: 3, txns: 2, maxAmt: 5, pace: [2]int{1, 1},
			disk: func(*run, int) error { return nil }}
		if fail {
			sc.audits = []audit{func(*run) []string { return []string{"forced"} }}
		}
		var rep ScenarioReport
		r, err := runScenario(sc, &rep)
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(r.dir)
		if got := slices.Equal(rep.Violations, []string{"forced"}); got != fail {
			t.Fatalf("fail=%v: violations %v", fail, rep.Violations)
		}
		for _, pattern := range []string{"*.wal", "span-*.json", "timelines.txt"} {
			kept, _ := filepath.Glob(filepath.Join(r.dir, pattern))
			if (len(kept) > 0) != fail {
				t.Errorf("fail=%v: %s in %s: %v", fail, pattern, r.dir, kept)
			}
		}
	}
}
