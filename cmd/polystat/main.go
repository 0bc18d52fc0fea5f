// Command polystat runs a failure workload against a live cluster and
// prints the full observability surface: per-phase protocol latencies,
// network message counts by type, polyvalue lifecycle (installs,
// reductions, population, lifetime distribution), WAL activity, and the
// settle-window diff showing what repair alone did.
//
// Usage:
//
//	polystat                              # default failure workload
//	polystat -sites 6 -txns 500 -crash-every 25
//	polystat -export                      # raw text exposition too
//	polystat -diff                        # settle-window diff export
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	polyvalues "repro"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "polystat:", err)
	os.Exit(1)
}

func main() {
	nSites := flag.Int("sites", 4, "number of sites")
	nTxns := flag.Int("txns", 200, "transactions to run")
	items := flag.Int("items", 64, "items in the database")
	kindName := flag.String("workload", "bank", "workload: bank, reservations or inventory")
	policyName := flag.String("policy", "polyvalue", "wait-timeout policy: polyvalue, blocking or arbitrary")
	seed := flag.Int64("seed", 1, "workload and network seed")
	crashEvery := flag.Int("crash-every", 0, "crash the coordinator of every k-th transaction mid-commit (0 = every fifth)")
	repairAfter := flag.Duration("repair-after", 3*time.Second, "simulated downtime before a crashed site restarts")
	gap := flag.Duration("gap", 100*time.Millisecond, "simulated time between submissions")
	settle := flag.Duration("settle", 30*time.Second, "simulated settle time after the last submission")
	export := flag.Bool("export", false, "print the raw text exposition of the final snapshot")
	diff := flag.Bool("diff", false, "print the settle-window diff (final snapshot minus pre-settle snapshot)")
	flag.Parse()

	var kind polyvalues.WorkloadKind
	switch *kindName {
	case "bank":
		kind = polyvalues.WorkloadBank
	case "reservations":
		kind = polyvalues.WorkloadReservations
	case "inventory":
		kind = polyvalues.WorkloadInventory
	default:
		fail(fmt.Errorf("unknown workload %q", *kindName))
	}
	var policy polyvalues.Policy
	switch *policyName {
	case "polyvalue":
		policy = polyvalues.PolicyPolyvalue
	case "blocking":
		policy = polyvalues.PolicyBlocking
	case "arbitrary":
		policy = polyvalues.PolicyArbitrary
	default:
		fail(fmt.Errorf("unknown policy %q", *policyName))
	}
	if *nSites < 2 || *nTxns < 4 || *items < 2 {
		fail(fmt.Errorf("need -sites >= 2, -txns >= 4, -items >= 2"))
	}
	if *crashEvery <= 0 {
		*crashEvery = *nTxns / 5
	}

	// Drive the failure workload: every k-th coordinator crashes at the
	// critical moment, crashed sites restart after -repair-after.
	rep, err := polyvalues.RunExperiment(polyvalues.Experiment{
		Sites: *nSites, Items: *items, Txns: *nTxns,
		Workload: kind, Policy: policy,
		CrashEvery: *crashEvery, RepairAfter: *repairAfter,
		Gap: *gap, SettleTime: *settle, Seed: *seed,
		Net: polyvalues.NetConfig{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, Seed: *seed},
	})
	if err != nil {
		fail(err)
	}
	snap := rep.Metrics

	fmt.Printf("polystat: %d sites, %s workload over %d items, policy %s, coordinator crash every %d txns\n",
		*nSites, kind, *items, policy, *crashEvery)
	fmt.Printf("simulated time: %v (settle %v); polyvalued items before settle: %d, after: %d\n\n",
		rep.SimulatedDuration, *settle, rep.Series[len(rep.Series)-1].Polys, rep.FinalPolys)

	fmt.Println("transactions")
	for _, name := range []string{"txn.submitted", "txn.committed", "txn.aborted", "txn.indoubt", "txn.refused"} {
		fmt.Printf("  %-28s %d\n", name, snap.Counter(name))
	}
	if p, ok := snap.Get("txn.latency.seconds"); ok && p.Count > 0 {
		fmt.Printf("  commit latency: %s\n", histLine(p.Count, p.Mean(), p.P50, p.P90, p.P99, p.Max))
	}

	fmt.Println("\nprotocol phases (simulated latency)")
	for _, phase := range []string{"read", "prepare", "wait", "settle"} {
		p, ok := snap.Get("protocol.phase.seconds", polyvalues.MetricsLabel{Key: "phase", Value: phase})
		if !ok || p.Count == 0 {
			fmt.Printf("  %-8s (no observations)\n", phase)
			continue
		}
		fmt.Printf("  %-8s %s\n", phase, histLine(p.Count, p.Mean(), p.P50, p.P90, p.P99, p.Max))
	}
	printPrefixed(snap, "protocol.coordinator.decisions", "\ncoordinator decisions")

	fmt.Println("\nnetwork messages by type")
	fmt.Printf("  %-14s %8s %10s\n", "type", "sent", "delivered")
	for _, p := range snap.Points {
		if p.Name != "network.sent" {
			continue
		}
		var typ string
		for _, l := range p.Labels {
			if l.Key == "type" {
				typ = l.Value
			}
		}
		fmt.Printf("  %-14s %8d %10d\n", typ, p.Value,
			snap.Counter("network.delivered", polyvalues.MetricsLabel{Key: "type", Value: typ}))
	}
	printPrefixed(snap, "network.dropped", "dropped")

	fmt.Println("\npolyvalue lifecycle")
	fmt.Printf("  installs %d  reductions %d  forks %d  live %d\n",
		snap.Counter("poly.installs"), snap.Counter("poly.reductions"),
		snap.Counter("poly.forks"), snap.Counter("poly.population"))
	if p, ok := snap.Get("poly.lifetime.seconds"); ok && p.Count > 0 {
		fmt.Printf("  lifetime: %s\n", histLine(p.Count, p.Mean(), p.P50, p.P90, p.P99, p.Max))
	} else {
		fmt.Println("  lifetime: (no polyvalue was installed and reduced)")
	}

	var appends, bytes int64
	for _, p := range snap.Points {
		switch p.Name {
		case "storage.wal.appends":
			appends += p.Value
		case "storage.wal.bytes":
			bytes += p.Value
		}
	}
	fmt.Printf("\nstorage: %d WAL appends, %d bytes across %d sites\n", appends, bytes, *nSites)

	if *diff {
		fmt.Println("\nsettle-window diff (what repair alone did):")
		fmt.Print(snap.Diff(rep.PreSettle).Export())
	}
	if *export {
		fmt.Println("\nfull exposition:")
		fmt.Print(snap.Export())
	}
}

// histLine renders a histogram point compactly in milliseconds.
func histLine(count int64, mean, p50, p90, p99, max float64) string {
	ms := func(s float64) string { return fmt.Sprintf("%.1fms", s*1e3) }
	return fmt.Sprintf("count %d  mean %s  p50 %s  p90 %s  p99 %s  max %s",
		count, ms(mean), ms(p50), ms(p90), ms(p99), ms(max))
}

// printPrefixed lists every counter series with the given name under a
// header (skipped entirely when none exist).
func printPrefixed(snap polyvalues.MetricsSnapshot, name, header string) {
	first := true
	for _, p := range snap.Points {
		if p.Name != name {
			continue
		}
		if first {
			fmt.Println(header)
			first = false
		}
		fmt.Printf("  %-40s %d\n", p.Key(), p.Value)
	}
}
