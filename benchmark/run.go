package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cluster"
)

// result is one run of one workload: the contract's four keys plus the
// human-readable notes printed above them.
type result struct {
	workload  string
	traced    bool
	correct   bool
	problems  []string // why correct is false
	attempted int
	failed    int
	metrics   map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setUp brings a cluster to the state the measured window starts from:
// listen, NewNode × sites, Load every account, the workload's
// count-based warm-up, and a settle.  Its duration is one setup_s
// sample.
func setUp(w workload, o runOpts, pool *transferPool, rec *recorder) (*testbed, time.Duration, error) {
	t0 := time.Now()
	tb, err := boot(w, o, rec)
	if err != nil {
		return nil, 0, err
	}
	tb.warm(pool, o)
	if err := tb.settle(); err != nil {
		tb.close()
		return nil, 0, fmt.Errorf("after warm-up: %w", err)
	}
	return tb, time.Since(t0), nil
}

// runWorkload runs one workload once.  Untraced: o.setups set-ups (the
// last one is kept), one window of o.window, settle, audit; the result
// carries the end-to-end metrics.  Traced: one set-up, then two windows
// of o.window/2 on the same cluster — the first with the wrappers in
// place but recording off (the baseline of trace.tps_ratio and of the
// process counters), the second recording — and the result carries the
// per-layer metrics.
func runWorkload(w workload, o runOpts) (*result, error) {
	pool, err := newTransferPool(o.seed)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, traced: o.trace, correct: true}
	var rec *recorder
	if o.trace {
		rec = &recorder{}
	}
	var tb *testbed
	var setups []float64
	for k := 0; k < o.setups; k++ {
		if tb != nil {
			tb.close()
		}
		var took time.Duration
		if tb, took, err = setUp(w, o, pool, rec); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer tb.close()

	windows := []*windowResult{}
	finish := func(win *windowResult) {
		windows = append(windows, win)
		if err := tb.settle(); err != nil {
			res.fail("%v", err)
		}
	}
	if !o.trace {
		finish(tb.measure(pool, o))
		res.metrics = endToEnd(windows[0], median(setups))
	} else {
		half := o
		half.window = o.window / 2
		before := readProc()
		finish(tb.measure(pool, half))
		after := readProc()
		snap := tb.reg.Snapshot()
		rec.armed.Store(true)
		finish(tb.measure(pool, half))
		rec.armed.Store(false)
		in := layerInputs{
			tb: tb, pool: pool, base: windows[0], traced: windows[1],
			procBefore: before, procAfter: after, regDelta: tb.reg.Snapshot().Diff(snap),
		}
		if o.traceDir != "" {
			in.traceFile = filepath.Join(o.traceDir, "trace-"+w.name+".jsonl")
		}
		if res.metrics, err = perLayer(in); err != nil {
			return nil, err
		}
	}
	if err := tb.audit(); err != nil {
		res.fail("%v", err)
	}
	for _, win := range windows {
		res.attempted += win.main.attempted
		res.failed += win.main.attempted - win.main.committed
		if win.chaser != nil {
			res.attempted += win.chaser.attempted
			res.failed += win.chaser.attempted - win.chaser.committed
		}
		if w.outage && o.policy == cluster.PolicyPolyvalue {
			checkOutage(res, win, o)
		}
	}
	if res.attempted == 0 {
		res.fail("no transaction was attempted")
	}
	return res, nil
}

// checkOutage is the outage workload's own gate: every planned crash
// happened and left at least one polyvalue behind, and the chaser found
// in-doubt accounts to transfer out of.
func checkOutage(res *result, win *windowResult, o runOpts) {
	log := win.outage
	if planned := o.crash.cycles(win.planned); log.cycles != planned {
		res.fail("outage: %d of %d planned crash cycles happened (%d armed crash points never fired)",
			log.cycles, planned, log.neverCrashed)
	}
	for k, n := range log.installs {
		if n < 1 {
			res.fail("outage: crash cycle %d installed no polyvalue", k)
		}
	}
	if win.chaser.attempted == 0 {
		res.fail("outage: the chaser ran no polytransaction")
	}
}

// endToEnd computes the five user-visible metrics of one window.
// Latency percentiles are over committed transactions of the
// workload's own clients; ok_ratio counts the chaser too.
func endToEnd(win *windowResult, setupS float64) map[string]float64 {
	lat := sortedNS(win.main.latNS)
	attempted, committed := win.main.attempted, win.main.committed
	if win.chaser != nil {
		attempted += win.chaser.attempted
		committed += win.chaser.committed
	}
	return map[string]float64{
		"setup_s":    setupS,
		"commit_tps": tps(win),
		"txn_p50_ms": quantile(lat, 0.5) / 1e6,
		"txn_p90_ms": quantile(lat, 0.9) / 1e6,
		"ok_ratio":   ratio(float64(committed), float64(attempted)),
	}
}
