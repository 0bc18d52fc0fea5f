package main

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// smokeRun is `benchmark -smoke` for one workload: every path boots,
// loads, warms, measures, (crashes,) settles and audits in seconds.
func smokeRun(t *testing.T, name string, traced bool, policy cluster.Policy) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	o := smokeOpts(defaultOpts(7, 0, traced), w)
	o.policy = policy
	res, err := runWorkload(smokeWorkload(w), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.correct {
		t.Errorf("%s: gate failed: %v", res.workload, res.problems)
	}
	if res.attempted < 1 || res.failed > res.attempted/2 {
		t.Errorf("%s: attempted=%d failed=%d", res.workload, res.attempted, res.failed)
	}
	if len(res.metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, table has %d", res.workload, len(res.metrics), len(defs))
	}
	for _, d := range defs {
		if _, ok := res.metrics[d.name]; !ok {
			t.Errorf("%s: metric %s missing", res.workload, d.name)
		}
	}
}

// TestSmoke keeps every workload path compiling, running and auditing
// under tier-1 `go test ./...`.  It measures nothing: the cases share
// the machine.  They are mostly timer-bound (linger, syncs, outages),
// so they all run at once — from goroutines of this test rather than
// t.Parallel, whose slots are capped at GOMAXPROCS.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real clusters; skipped under -short")
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	run := func(name string, f func(t *testing.T)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.Run(name, f)
		}()
	}
	for _, w := range workloads {
		run(w.name, func(t *testing.T) {
			res := smokeRun(t, w.name, false, cluster.PolicyPolyvalue)
			checkResult(t, res, endToEndMetrics)
			for _, d := range endToEndMetrics {
				if res.metrics[d.name] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, d.name, res.metrics[d.name])
				}
			}
		})
	}
	run("traced/transfer-durable", func(t *testing.T) {
		res := smokeRun(t, "transfer-durable", true, cluster.PolicyPolyvalue)
		checkResult(t, res, perLayerMetrics)
		if res.metrics["storage.syncs_per_commit"] <= 0 || res.metrics["path.sync_ms"] <= 0 {
			t.Errorf("durable traced run saw no syncs: %v syncs/commit, path.sync_ms %v",
				res.metrics["storage.syncs_per_commit"], res.metrics["path.sync_ms"])
		}
		if res.metrics["protocol.msgs_per_commit"] < 3 {
			t.Errorf("msgs_per_commit = %v: the transport wrapper saw no traffic", res.metrics["protocol.msgs_per_commit"])
		}
	})
	// The pair that proves the outage workload can tell polyvalues from
	// blocking 2PC: same crash, same chaser, only the participants'
	// policy differs.
	run("traced/outage-poly", func(t *testing.T) {
		res := smokeRun(t, "outage-poly", true, cluster.PolicyPolyvalue)
		checkResult(t, res, perLayerMetrics)
		if n, ok := res.metrics["polytxn.count"], res.metrics["polytxn.ok_ratio"]; n < 1 || ok < 0.5 {
			t.Errorf("polyvalue policy: polytxn.count=%v ok_ratio=%v, want transfers out of in-doubt accounts to commit", n, ok)
		}
		if res.metrics["poly.installs"] < 1 || res.metrics["polyvalue.pairs_mean"] < 2 {
			t.Errorf("polyvalue policy: installs=%v pairs_mean=%v, want polyvalues", res.metrics["poly.installs"], res.metrics["polyvalue.pairs_mean"])
		}
	})
	run("traced/outage-poly-blocking", func(t *testing.T) {
		res := smokeRun(t, "outage-poly", true, cluster.PolicyBlocking)
		if !res.correct {
			t.Errorf("blocking 2PC must still conserve money and settle: %v", res.problems)
		}
		if n, ok := res.metrics["polytxn.count"], res.metrics["polytxn.ok_ratio"]; n < 1 || ok > 0.2 {
			t.Errorf("blocking policy: polytxn.count=%v ok_ratio=%v, want the chaser refused while the coordinator is down", n, ok)
		}
		if res.metrics["poly.installs"] != 0 {
			t.Errorf("blocking policy installed %v polyvalues", res.metrics["poly.installs"])
		}
		if res.metrics["cluster.blocked_item_s"] <= 0 {
			t.Errorf("blocking policy: cluster.blocked_item_s = %v, want the in-doubt items' locked time", res.metrics["cluster.blocked_item_s"])
		}
	})
}

// BENCHMARK.json is generated (`-manifest`) from the tables compiled
// into the binary; the committed file must not drift from them.
func TestManifestMatchesCommittedFile(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this package: %v", err)
	}
	var want bytes.Buffer
	printManifest(&want)
	if !bytes.Equal(committed, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
}
