package main

import (
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/polytxn"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wire"
)

// metricDef names one reported number.  The two tables below are the
// single source of the names and units: output, BENCHMARK.json (see
// -manifest) and the README all follow them.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_tps", "1/s", "higher", 0.25},
	{"txn_p50_ms", "ms", "lower", 0.25},
	{"txn_p90_ms", "ms", "lower", 0.25},
	{"ok_ratio", "ratio", "higher", 0.01},
}

var perLayerMetrics = []metricDef{
	// protocol: counts to hold against Gray & Lamport's cost table
	{name: "protocol.msgs_per_commit", unit: "msgs/commit", better: "lower"},
	{name: "protocol.read_msgs_per_commit", unit: "msgs/commit", better: "lower"},
	{name: "protocol.vote_msgs_per_commit", unit: "msgs/commit", better: "lower"},
	{name: "protocol.decision_msgs_per_commit", unit: "msgs/commit", better: "lower"},
	{name: "protocol.outcome_msgs_per_commit", unit: "msgs/commit", better: "lower"},
	{name: "protocol.decision_resends", unit: "count", better: "lower"},
	{name: "protocol.outcome_retries", unit: "count", better: "lower"},
	// transport and wire
	{name: "transport.send_us_p50", unit: "us", better: "lower"},
	{name: "transport.transit_ms_p50", unit: "ms", better: "lower"},
	{name: "transport.transit_ms_p90", unit: "ms", better: "lower"},
	{name: "transport.batch_mean", unit: "msgs/frame", better: "higher"},
	{name: "transport.flushes_per_commit", unit: "flushes/commit", better: "lower"},
	{name: "transport.queue_dropped", unit: "count", better: "lower"},
	{name: "wire.bytes_per_commit", unit: "B/commit", better: "lower"},
	// cluster (site event loop) and the client boundary
	{name: "cluster.site_turn_us_p50", unit: "us", better: "lower"},
	{name: "cluster.site_turn_us_p90", unit: "us", better: "lower"},
	{name: "cluster.inbox_hwm", unit: "count", better: "lower"},
	{name: "cluster.submit_us_p50", unit: "us", better: "lower"},
	{name: "cluster.aborts_per_commit", unit: "aborts/commit", better: "lower"},
	{name: "cluster.blocked_item_s", unit: "item-s", better: "lower"},
	{name: "txn_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.late_ms_p99", unit: "ms", better: "lower"},
	{name: "gen.dropped", unit: "count", better: "lower"},
	{name: "gen.retries", unit: "count", better: "lower"},
	// critical path of the median committed transaction
	{name: "path.client_ms", unit: "ms", better: "lower"},
	{name: "path.transit_ms", unit: "ms", better: "lower"},
	{name: "path.site_ms", unit: "ms", better: "lower"},
	{name: "path.sync_ms", unit: "ms", better: "lower"},
	{name: "path.unaccounted_ms", unit: "ms", better: "lower"},
	{name: "path.total_ms", unit: "ms", better: "lower"},
	// storage, through the wrapped filesystem
	{name: "storage.syncs_per_commit", unit: "syncs/commit", better: "lower"},
	{name: "storage.writes_per_commit", unit: "writes/commit", better: "lower"},
	{name: "storage.bytes_per_commit", unit: "B/commit", better: "lower"},
	{name: "storage.frames_per_sync", unit: "frames/sync", better: "higher"},
	{name: "storage.sync_ms_p50", unit: "ms", better: "lower"},
	{name: "storage.flusher_busy_ratio", unit: "ratio", better: "lower"},
	// polyvalues under the outage
	{name: "poly.installs", unit: "count", better: "lower"},
	{name: "poly.peak_items", unit: "count", better: "lower"},
	{name: "poly.indoubt_window_ms", unit: "ms", better: "lower"},
	{name: "poly.resolve_ms_p50", unit: "ms", better: "lower"},
	{name: "polytxn.count", unit: "count", better: "higher"},
	{name: "polytxn.p50_ms", unit: "ms", better: "lower"},
	{name: "polytxn.p90_ms", unit: "ms", better: "lower"},
	{name: "polytxn.ok_ratio", unit: "ratio", better: "higher"},
	// kernels on inputs captured during the traced window
	{name: "wire.encode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_msg", unit: "B/msg", better: "lower"},
	{name: "wire.allocs_per_msg", unit: "allocs/msg", better: "lower"},
	{name: "expr.parse_ns", unit: "ns", better: "lower"},
	{name: "expr.eval_ns", unit: "ns", better: "lower"},
	{name: "storage.wal_append_ns", unit: "ns", better: "lower"},
	{name: "polytxn.exec_ns", unit: "ns", better: "lower"},
	{name: "polyvalue.resolve_ns", unit: "ns", better: "lower"},
	{name: "polyvalue.pairs_mean", unit: "pairs", better: "lower"},
	{name: "condition.and_ns", unit: "ns", better: "lower"},
	// process
	{name: "go.allocs_per_commit", unit: "allocs/commit", better: "lower"},
	{name: "go.alloc_bytes_per_commit", unit: "B/commit", better: "lower"},
	{name: "go.gc_cpu_ratio", unit: "ratio", better: "lower"},
	{name: "go.heap_inuse_mb", unit: "MB", better: "lower"},
	{name: "proc.cpu_ms_per_commit", unit: "ms/commit", better: "lower"},
	// the traced window itself: what recording costs, and the p50 the
	// critical path must add up to
	{name: "trace.tps_ratio", unit: "ratio", better: "higher"},
	{name: "trace.txn_p50_ms", unit: "ms", better: "lower"},
}

// ---------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------

// procSample is a reading of the Go runtime's and the kernel's view of
// this process; two of them bracket a window.
type procSample struct {
	mallocs, allocBytes, heapInuse uint64
	gcCPU, totalCPU                float64 // seconds, runtime/metrics cpu classes
	rusageCPU                      time.Duration
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, heapInuse: ms.HeapInuse}
	samples := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() == runtimemetrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == runtimemetrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.rusageCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// ---------------------------------------------------------------------
// Per-layer assembly
// ---------------------------------------------------------------------

// layerInputs is everything a traced run hands the analysis.
type layerInputs struct {
	tb           *testbed
	pool         *transferPool
	base, traced *windowResult // recording off, then on, same testbed
	procBefore   procSample    // around the base window
	procAfter    procSample
	regDelta     metrics.Snapshot // registry change over the traced window
	traceFile    string
}

func sortedNS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	sort.Float64s(out)
	return out
}

func tps(w *windowResult) float64 { return ratio(float64(w.main.committed), w.seconds) }

// perLayer turns one traced run into the per-layer metric set.  Every
// name in perLayerMetrics is present in the result, 0 when the layer
// did not run on this workload.
func perLayer(in layerInputs) (map[string]float64, error) {
	m := map[string]float64{}
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	rec := in.tb.rec
	win := in.traced
	commits := float64(win.main.committed)
	if win.chaser != nil {
		commits += float64(win.chaser.committed)
	}

	// Message counts, every message of the window, by kind.
	sent := func(kinds ...protocol.MsgKind) float64 {
		var n int64
		for _, k := range kinds {
			n += rec.sent[k].Load()
		}
		return float64(n)
	}
	var all float64
	for k := range rec.sent {
		all += float64(rec.sent[k].Load())
	}
	m["protocol.msgs_per_commit"] = ratio(all, commits)
	m["protocol.read_msgs_per_commit"] = ratio(sent(protocol.MsgReadReq, protocol.MsgReadRep, protocol.MsgReadRelease), commits)
	m["protocol.vote_msgs_per_commit"] = ratio(sent(protocol.MsgPrepare, protocol.MsgReady, protocol.MsgRefuse), commits)
	m["protocol.decision_msgs_per_commit"] = ratio(sent(protocol.MsgComplete, protocol.MsgAbort), commits)
	m["protocol.outcome_msgs_per_commit"] = ratio(sent(protocol.MsgOutcomeReq, protocol.MsgOutcomeInfo, protocol.MsgOutcomeAck), commits)
	m["wire.bytes_per_commit"] = ratio(float64(rec.wireBytes.Load()), commits)

	// Registry series the layers already keep.
	d := in.regDelta
	sumOver := func(name string, pick func(metrics.Point) float64) float64 {
		var s float64
		for _, p := range d.Points {
			if p.Name == name {
				s += pick(p)
			}
		}
		return s
	}
	val := func(p metrics.Point) float64 { return float64(p.Value) }
	flushes := sumOver("transport.batch.flushes", val)
	m["transport.batch_mean"] = ratio(sumOver("transport.batch.size", func(p metrics.Point) float64 { return p.Sum }), flushes)
	m["transport.flushes_per_commit"] = ratio(flushes, commits)
	m["transport.queue_dropped"] = sumOver("transport.queue.dropped", val)
	for _, p := range d.Points {
		if p.Name == "site.inbox.hwm" && float64(p.Value) > m["cluster.inbox_hwm"] {
			m["cluster.inbox_hwm"] = float64(p.Value)
		}
		if p.Name == "item.blocked.seconds" {
			for _, l := range p.Labels {
				if l.Key == "cause" && l.Value == "indoubt" {
					m["cluster.blocked_item_s"] += p.Sum
				}
			}
		}
	}
	m["protocol.decision_resends"] = sumOver("txn.decision.resends", val)
	m["protocol.outcome_retries"] = sumOver("txn.outcome.retries", val)
	m["cluster.aborts_per_commit"] = ratio(sumOver("txn.aborted", val), commits)

	// Client boundary.
	lat := sortedNS(win.main.latNS)
	m["txn_p99_ms"] = quantile(lat, 0.99) / 1e6
	m["trace.txn_p50_ms"] = quantile(lat, 0.5) / 1e6
	m["cluster.submit_us_p50"] = quantile(sortedNS(win.main.submitNS), 0.5) / 1e3
	m["gen.late_ms_p99"] = quantile(sortedNS(win.main.lateNS), 0.99) / 1e6
	m["gen.dropped"] = float64(win.main.dropped)
	m["gen.retries"] = float64(win.main.retries)
	if win.chaser != nil {
		m["gen.retries"] += float64(win.chaser.retries)
	}

	// Sampled transactions: hops, turns, critical path.
	rec.mu.Lock()
	msgs, clients := rec.msgs, rec.clients
	rec.mu.Unlock()
	byTID := map[txn.ID][]msgEvent{}
	for _, e := range msgs {
		byTID[e.tid] = append(byTID[e.tid], e)
	}
	hopsByTID := make(map[txn.ID][]hop, len(byTID))
	var sendNS, transitNS, turnNS []float64
	for tid, evs := range byTID {
		hops := matchHops(evs)
		hopsByTID[tid] = hops
		for _, h := range hops {
			sendNS = append(sendNS, float64(h.sendEnd-h.sendAt))
			if h.delivered && !h.local {
				transitNS = append(transitNS, float64(h.deliverAt-h.sendAt))
			}
		}
		for _, t := range siteTurns(hops) {
			turnNS = append(turnNS, float64(t.end-t.start))
		}
	}
	sort.Float64s(sendNS)
	sort.Float64s(transitNS)
	sort.Float64s(turnNS)
	m["transport.send_us_p50"] = quantile(sendNS, 0.5) / 1e3
	m["transport.transit_ms_p50"] = quantile(transitNS, 0.5) / 1e6
	m["transport.transit_ms_p90"] = quantile(transitNS, 0.9) / 1e6
	m["cluster.site_turn_us_p50"] = quantile(turnNS, 0.5) / 1e3
	m["cluster.site_turn_us_p90"] = quantile(turnNS, 0.9) / 1e3

	syncs := map[protocol.SiteID][]interval{}
	for id, disk := range in.tb.disks {
		disk.mu.Lock()
		syncs[id] = append([]interval(nil), disk.intervals...)
		disk.mu.Unlock()
	}
	var parts []pathParts
	for _, c := range clients {
		if c.committed {
			parts = append(parts, criticalPath(c, hopsByTID[c.tid], syncs))
		}
	}
	med := medianTransaction(parts)
	m["path.client_ms"] = med.client / 1e6
	m["path.transit_ms"] = med.transit / 1e6
	m["path.site_ms"] = med.site / 1e6
	m["path.sync_ms"] = med.syncWait / 1e6
	m["path.unaccounted_ms"] = med.unaccounted / 1e6
	m["path.total_ms"] = med.total / 1e6

	// Storage, as the wrapped filesystem saw it.
	var nSyncs, nWrites, nBytes, busy float64
	var syncNS []float64
	for _, disk := range in.tb.disks {
		nSyncs += float64(disk.syncs.Load())
		nWrites += float64(disk.writes.Load())
		nBytes += float64(disk.bytes.Load())
		busy += float64(disk.busyNS.Load())
	}
	for _, ivs := range syncs {
		for _, iv := range ivs {
			syncNS = append(syncNS, float64(iv.end-iv.start))
		}
	}
	sort.Float64s(syncNS)
	m["storage.syncs_per_commit"] = ratio(nSyncs, commits)
	m["storage.writes_per_commit"] = ratio(nWrites, commits)
	m["storage.bytes_per_commit"] = ratio(nBytes, commits)
	m["storage.frames_per_sync"] = ratio(sumOver("storage.wal.appends", val), nSyncs)
	m["storage.sync_ms_p50"] = quantile(syncNS, 0.5) / 1e6
	m["storage.flusher_busy_ratio"] = ratio(busy/1e9, win.seconds*float64(len(in.tb.disks)))

	// Polyvalues under the outage.
	if win.chaser != nil {
		var installs int64
		for _, n := range win.outage.installs {
			installs += n
		}
		clat := sortedNS(win.chaser.latNS)
		m["poly.installs"] = float64(installs)
		m["poly.peak_items"] = float64(win.outage.peakItems)
		m["poly.indoubt_window_ms"] = median(win.outage.indoubtMS)
		m["poly.resolve_ms_p50"] = median(win.outage.resolveMS)
		m["polytxn.count"] = float64(win.chaser.attempted)
		m["polytxn.p50_ms"] = quantile(clat, 0.5) / 1e6
		m["polytxn.p90_ms"] = quantile(clat, 0.9) / 1e6
		m["polytxn.ok_ratio"] = ratio(float64(win.chaser.firstTry), float64(win.chaser.attempted))
	}

	// Process, over the window that ran with recording off.
	baseCommits := float64(in.base.main.committed)
	if in.base.chaser != nil {
		baseCommits += float64(in.base.chaser.committed)
	}
	a, b := in.procBefore, in.procAfter
	m["go.allocs_per_commit"] = ratio(float64(b.mallocs-a.mallocs), baseCommits)
	m["go.alloc_bytes_per_commit"] = ratio(float64(b.allocBytes-a.allocBytes), baseCommits)
	m["go.gc_cpu_ratio"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	m["go.heap_inuse_mb"] = float64(b.heapInuse) / (1 << 20)
	m["proc.cpu_ms_per_commit"] = ratio(ms(b.rusageCPU-a.rusageCPU), baseCommits)
	m["trace.tps_ratio"] = ratio(tps(win), tps(in.base))

	kernels(m, rec.captured, in.pool, win.polys)

	if in.traceFile != "" {
		if err := writeSpans(in.traceFile, clients, hopsByTID, syncs); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// medianTransaction describes "the median committed transaction": the
// mean of each critical-path part over the sampled transactions whose
// latency lies between the 40th and 60th percentile.  Medians taken
// part by part would not add up; means over one band do, to the band's
// mean latency, which sits at the p50.
func medianTransaction(parts []pathParts) pathParts {
	if len(parts) == 0 {
		return pathParts{}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].total < parts[j].total })
	lo, hi := len(parts)*4/10, len(parts)*6/10
	if hi <= lo {
		lo, hi = len(parts)/2, len(parts)/2+1
	}
	var sum pathParts
	for _, p := range parts[lo:hi] {
		sum.client += p.client
		sum.transit += p.transit
		sum.site += p.site
		sum.syncWait += p.syncWait
		sum.unaccounted += p.unaccounted
		sum.total += p.total
	}
	n := float64(hi - lo)
	return pathParts{sum.client / n, sum.transit / n, sum.site / n, sum.syncWait / n, sum.unaccounted / n, sum.total / n}
}

// ---------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------

// timeLoop runs fn iters times and returns nanoseconds per call, after
// an untimed eighth of that to bring caches and the clock up (a kernel
// that follows an idle workload otherwise reads twice as slow).
func timeLoop(iters int, fn func(i int)) float64 {
	for i := 0; i < iters/8; i++ {
		fn(i)
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(iters)
}

// kernels runs short fixed-iteration loops over each pure layer on
// inputs taken from the traced window: real messages for the codec,
// the seeded pool for the expression layer, and polyvalues read off
// the surviving sites for the polyvalue algebra (none outside the
// outage workload, so those read 0 there).
func kernels(m map[string]float64, msgs []protocol.Message, pool *transferPool, polys []polyvalue.Poly) {
	var kernelSink any // keeps the compiler from discarding a kernel's result
	defer func() { runtime.KeepAlive(kernelSink) }()
	if n := len(msgs); n > 0 {
		const rounds = 40
		frames := make([][]byte, n)
		var bytes int
		for i, msg := range msgs {
			frames[i] = wire.EncodeFrame(msg)
			bytes += len(frames[i])
		}
		var buf []byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m["wire.encode_ns_per_msg"] = timeLoop(rounds*n, func(i int) { buf = wire.AppendFrame(buf[:0], msgs[i%n]) })
		m["wire.decode_ns_per_msg"] = timeLoop(rounds*n, func(i int) {
			msg, _, err := wire.DecodeFrame(frames[i%n])
			if err != nil {
				panic(err) // a frame this process just encoded
			}
			kernelSink = msg.Kind
		})
		runtime.ReadMemStats(&after)
		m["wire.bytes_per_msg"] = float64(bytes) / float64(n)
		m["wire.allocs_per_msg"] = float64(after.Mallocs-before.Mallocs) / float64(rounds*n)
	}

	const exprN = 4096
	m["expr.parse_ns"] = timeLoop(exprN, func(i int) {
		p, err := expr.Parse(pool.src[i])
		if err != nil {
			panic(err) // parsed once already when the pool was built
		}
		kernelSink = p
	})
	env := expr.MapEnv{}
	for a := 0; a < numAccounts; a++ {
		env[accountName(a)] = value.Int(startMoney)
	}
	m["expr.eval_ns"] = timeLoop(4*exprN, func(i int) {
		out, err := pool.prog[i%exprN].Eval(env)
		if err != nil {
			panic(err)
		}
		kernelSink = out
	})

	store := storage.NewStore()
	rich := polyvalue.Simple(value.Int(startMoney))
	m["storage.wal_append_ns"] = timeLoop(20000, func(i int) {
		if err := store.Put(accountName(i%numAccounts), rich); err != nil {
			panic(err) // in-memory WAL
		}
	})

	if n := len(polys); n > 0 {
		const rounds = 200
		var pairs int
		for _, p := range polys {
			pairs += p.NumPairs()
		}
		m["polyvalue.pairs_mean"] = float64(pairs) / float64(n)
		m["polyvalue.resolve_ns"] = timeLoop(rounds*n, func(i int) {
			p := polys[i%n]
			kernelSink = p.Resolve(p.DependsOn()[0], i%2 == 0)
		})
		m["condition.and_ns"] = timeLoop(rounds*n, func(i int) {
			a, b := polys[i%n].Pairs(), polys[(i+1)%n].Pairs()
			kernelSink = a[0].Cond.And(b[len(b)-1].Cond)
		})
		// One transfer out of a polyvalued account, as the chaser
		// submits them, through the polytransaction executor.
		prog := expr.MustParse(transferSource("src", "dst", 7))
		var exec polytxn.Executor
		m["polytxn.exec_ns"] = timeLoop(rounds*n, func(i int) {
			res, err := exec.Execute(txn.T{ID: "kernel", Program: prog}, func(item string) polyvalue.Poly {
				if item == "src" {
					return polys[i%n]
				}
				return rich
			})
			if err != nil {
				panic(err)
			}
			kernelSink = res.Alternatives
		})
	}
}
