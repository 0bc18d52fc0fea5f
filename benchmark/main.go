// Command benchmark is the repository's one fixed benchmark for the
// commit path: four named workloads against an in-process three-site
// cluster over loopback TCP, five end-to-end metrics per workload, and
// a per-layer budget measured from outside the program (wrapped
// transport and filesystem, public functions, the metrics registry).
// README.md in this directory is the manual.
//
//	go run ./benchmark                                  # all workloads, untraced then traced
//	go run ./benchmark -workload transfer-solo -trace 1 # one traced run
//	bash benchmark/run.sh --workload outage-poly --seed 9 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: every workload, untraced then traced)")
		seed      = flag.Int64("seed", 7, "seed of the generated transfer programs (changes them and nothing else)")
		seconds   = flag.Int("seconds", 20, "measured window in seconds; a traced run splits it into a baseline half and a recording half")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		smoke     = flag.Bool("smoke", false, "2 s windows, short warm-ups and one crash cycle: exercises every path, measures nothing")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json for the metric and workload tables compiled into this binary, and exit")
		summarize = flag.String("summarize", "", "read `workload json` result lines (as repeat.sh collects them) from this file and print the noise table")
	)
	flag.Parse()
	switch {
	case *manifest:
		printManifest(os.Stdout)
		return
	case *summarize != "":
		if err := summarizeFile(os.Stdout, *summarize); err != nil {
			die(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		die(fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1"))
	}

	// Fixed process settings (README "Fixed settings").
	if runtime.NumCPU() < maxProcs {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	debug.SetGCPercent(gcPercent)

	run := func(w workload, traced bool) bool {
		o := defaultOpts(*seed, time.Duration(*seconds)*time.Second, traced)
		if *smoke {
			w, o = smokeWorkload(w), smokeOpts(o, w)
		}
		res, err := runWorkload(w, o)
		if err != nil {
			die(fmt.Errorf("%s: %w", w.name, err))
		}
		report(os.Stdout, res)
		return res.correct
	}

	fmt.Printf("# %d sites in one process over loopback TCP, injected message delay 0: latency is processor and batching-linger time, not a network's\n", numSites)
	fmt.Printf("# GOMAXPROCS=%d GOGC=%d seed=%d window=%ds\n", runtime.GOMAXPROCS(0), gcPercent, *seed, *seconds)
	ok := true
	if *name != "" {
		w, found := findWorkload(*name)
		if !found {
			die(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		ok = run(w, *trace == 1)
	} else {
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				ok = run(w, traced) && ok
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// smokeOpts and smokeWorkload shrink a run to seconds: every path
// still boots, loads, warms, measures, crashes, settles and audits.
func smokeOpts(o runOpts, w workload) runOpts {
	o.window = 2 * time.Second
	if o.trace && w.outage {
		o.window = 4 * time.Second // each half needs room for its crash cycle
	}
	o.setups = 1
	o.wait = time.Second
	o.crash = crashPlan{first: 300 * time.Millisecond, every: 5 * time.Second, down: time.Second}
	o.traceDir = ""
	return o
}

func smokeWorkload(w workload) workload {
	if w.warmup > 200 {
		w.warmup = 200
	}
	// A smoke run may share a starved machine (go test -race, every case
	// at once).  An open loop it cannot sustain backs up until messages
	// take longer than the protocol's 250 ms lock timeout, and a prepare
	// that arrives after its read locks were abandoned computes from a
	// stale snapshot (see README, "A hazard this benchmark found").
	if w.rate > 300 {
		w.rate = 300
	}
	return w
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one run: a named, unit-carrying line per metric in
// table order, any gate failures, and last the JSON object.
func report(w io.Writer, res *result) {
	defs, kind := endToEndMetrics, "end-to-end, tracing off"
	if res.traced {
		defs, kind = perLayerMetrics, "per-layer, traced run"
	}
	fmt.Fprintf(w, "== %s (%s) attempted=%d failed=%d\n", res.workload, kind, res.attempted, res.failed)
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		die(err)
	}
	fmt.Fprintf(w, "%s\n", raw)
}

// printManifest renders BENCHMARK.json from the compiled-in tables.
func printManifest(w io.Writer) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []bounded       `json:"end_to_end"`
		PerLayer   []unbounded     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{wl.name, wl.why})
	}
	for _, d := range endToEndMetrics {
		m.EndToEnd = append(m.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, unbounded{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		die(err)
	}
}

// ---------------------------------------------------------------------
// repeat.sh's noise table
// ---------------------------------------------------------------------

// summarizeFile reads "workload {json}" lines in run order and prints,
// per workload × end-to-end metric: the median and quartiles over all
// runs, their spread as a share of the median (what the acceptance
// driver bounds), and how much worse the second half's median is than
// the first half's, against the metric's bound.
func summarizeFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	values := map[string]map[string][]float64{} // workload → metric → values in run order
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, raw, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			continue
		}
		var line resultLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			return fmt.Errorf("%s: bad result line for %s: %w", path, name, err)
		}
		if !line.Correct {
			return fmt.Errorf("%s: a run of %s was not correct", path, name)
		}
		if values[name] == nil {
			values[name] = map[string][]float64{}
		}
		for metric, v := range line.Metrics {
			values[name][metric] = append(values[name][metric], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-17s %-11s %3s %12s %12s %12s %8s %9s %6s  %s\n",
		"workload", "metric", "n", "median", "q1", "q3", "spread", "2nd/1st", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEndMetrics {
			vs := values[wl.name][d.name]
			if len(vs) == 0 {
				continue
			}
			s := summarize(vs, d)
			fmt.Fprintf(w, "%-17s %-11s %3d %12.4f %12.4f %12.4f %7.2f%% %+8.2f%% %5.0f%%  %s\n",
				wl.name, d.name, len(vs), s.median, s.q1, s.q3, 100*s.spread, 100*s.worse, 100*d.bound, s.verdict)
		}
	}
	return nil
}

type noise struct {
	median, q1, q3 float64
	spread         float64 // (q3−q1)/median
	worse          float64 // how much worse the second half's median is than the first's (negative: better)
	verdict        string
}

// summarize applies the acceptance driver's two rules to one metric's
// values: the quartile spread (setup_s exempt) and the drift between
// the halves must both stay inside the bound; "quiet" additionally
// means the spread is under a third of the bound and the drift under
// half of it, the margins this benchmark was tuned to.
func summarize(vs []float64, d metricDef) noise {
	n := noise{median: median(vs)}
	n.q1, n.q3 = quartiles(vs)
	n.spread = ratio(n.q3-n.q1, n.median)
	first, second := median(vs[:len(vs)/2]), median(vs[len(vs)/2:])
	if len(vs) >= 2 && first != 0 {
		n.worse = (second - first) / first
		if d.better == "higher" {
			n.worse = -n.worse
		}
	}
	spreadCounts := d.name != "setup_s"
	switch {
	case (spreadCounts && n.spread > d.bound) || n.worse > d.bound:
		n.verdict = "OUTSIDE BOUND"
	case (spreadCounts && n.spread > d.bound/3) || n.worse > d.bound/2:
		n.verdict = "inside bound, above margin"
	default:
		n.verdict = "quiet"
	}
	return n
}
