// Command polybench is the repeatable throughput harness: a seeded,
// closed-loop load generator over internal/workload that drives a real
// TCP cluster — either N nodes inside this process (-mode inproc) or N
// child OS processes speaking the wire protocol (-mode procs) — and
// reports commit throughput and client-observed latency percentiles.
//
//	polybench -mode inproc -sites 3 -workers 16 -txns 2000 -seed 7
//	polybench -mode procs  -sites 3 -txns 500 -out BENCH_head.json
//	polybench -batch=false ...            # disable transport coalescing
//	polybench -workload overload -admission 4    # admission-gated run
//	polybench -durable -lanes 16 -group-commit-window 1ms ...
//	                  # synchronous WAL durability on temp dirs, with
//	                  # key-sharded execution lanes + group commit
//
// The overload workload is the bank mix pushed through admission-gated
// sites: workers outnumber the per-site in-flight credit cap, so a
// fraction of submission attempts is shed with ErrOverload.  Workers
// retry a shed transaction after a short backoff (the shed response is
// immediate, so the client, not the site, pays for the overload), and
// the run reports shed events and the attempt-level shed rate alongside
// the usual latency percentiles; the conservation audit still holds
// because a shed attempt never starts.
//
// Every run appends one named "setting" to a machine-readable BENCH
// JSON file (schema documented in DESIGN.md §9).  The workload is
// deterministic for a seed: the same flag set replays the identical
// transaction programs, so two runs differ only by scheduling and the
// knob under test (e.g. -batch).  Regressions are judged by the fixed
// benchmark in benchmark/ (see benchmark/README.md), not here.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/workload"
)

// options carries every knob; the child process receives the same set
// re-encoded as flags so workload generation agrees byte-for-byte.
type options struct {
	mode     string
	sites    int
	txns     int
	workers  int
	seed     int64
	kind     string
	items    int
	batch    bool
	batchMax int
	label    string
	out      string
	waitTxn  time.Duration
	settle   time.Duration
	admit    int
	deadline time.Duration
	plane    string
	replicas int
	wquorum  int
	rquorum  int
	childArg bool
	siteArg  string
	verbose  bool
	profile  string
	gogc     int
	telAddr  string
	spansN   int
	lanes    int
	durable  bool
	gcWindow time.Duration
	diskFlts string
	diskSd   int64
}

func main() {
	var opt options
	flag.StringVar(&opt.mode, "mode", "inproc", "cluster shape: inproc (N nodes, one process) or procs (N child processes)")
	flag.IntVar(&opt.sites, "sites", 3, "number of sites")
	flag.IntVar(&opt.txns, "txns", 2000, "total transactions to run")
	flag.IntVar(&opt.workers, "workers", 16, "concurrent closed-loop clients")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed (same seed, same programs)")
	flag.StringVar(&opt.kind, "workload", "bank", "workload kind: bank, reservations, inventory, overload (bank + admission gate)")
	flag.IntVar(&opt.items, "items", 64, "distinct items (accounts/flights/SKUs)")
	flag.BoolVar(&opt.batch, "batch", true, "transport message coalescing (false: one frame per message)")
	flag.IntVar(&opt.batchMax, "batch-max", 0, "messages per frame cap when batching (0: transport default)")
	flag.StringVar(&opt.label, "label", "", "setting name in the BENCH file (default derived from flags)")
	flag.StringVar(&opt.out, "out", "", "BENCH JSON path; existing settings are merged by name (default BENCH_<rev>.json)")
	flag.DurationVar(&opt.waitTxn, "txn-timeout", 15*time.Second, "per-transaction client wait bound")
	flag.DurationVar(&opt.settle, "settle", 15*time.Second, "post-run bound for polyvalues to drain before the audit")
	flag.IntVar(&opt.admit, "admission", 0, "per-site in-flight transaction cap; over it submissions shed (0: unlimited, overload workload defaults to 4)")
	flag.DurationVar(&opt.deadline, "txn-deadline", 0, "end-to-end transaction deadline enforced by the cluster (0: none)")
	flag.StringVar(&opt.plane, "decision-plane", "wal", "commit decision plane: wal (coordinator log + polyvalues), paxos (replicated Paxos Commit), blocking2pc (coordinator log + blocking participants)")
	flag.IntVar(&opt.replicas, "replicas", 0, "store every item on this many sites under write-quorum/read-quorum replication (0: unreplicated; inproc mode only)")
	flag.IntVar(&opt.wquorum, "write-quorum", 0, "replicas a commit must write (default majority of -replicas)")
	flag.IntVar(&opt.rquorum, "read-quorum", 0, "replicas a read must reach (default replicas+1-write-quorum)")
	flag.BoolVar(&opt.childArg, "child", false, "internal: run as one site of a procs-mode cluster")
	flag.StringVar(&opt.siteArg, "site", "", "internal: site ID for -child")
	flag.BoolVar(&opt.verbose, "v", false, "log progress to stderr")
	flag.StringVar(&opt.profile, "cpuprofile", "", "write a CPU profile of the load phase (inproc mode)")
	flag.StringVar(&opt.telAddr, "telemetry", "", "serve /metrics, /healthz, /trace and pprof on this address during the run (inproc mode)")
	flag.IntVar(&opt.spansN, "spans", 0, "per-run structured span retention; enables span tracing on every site so the overhead shows up in the numbers (0: disabled)")
	flag.IntVar(&opt.gogc, "gogc", 400, "GC target percentage for every process (0: leave the runtime default); throughput runs are allocation-heavy and the default 100 spends a fifth of CPU in mark assists")
	flag.IntVar(&opt.lanes, "lanes", 0, "key-sharded execution lanes per site: extra event queues, routed by transaction ID, that overlap the group-commit wait (0/1: one queue)")
	flag.BoolVar(&opt.durable, "durable", false, "run every node on a temp WAL dir with synchronous durability: each site event waits for the group commit covering its WAL records before its outputs leave the site")
	flag.DurationVar(&opt.gcWindow, "group-commit-window", 0, "group-commit accumulation window with -durable (0: flush as soon as the flusher is free); with one lane it is a per-event delay")
	flag.StringVar(&opt.diskFlts, "disk-faults", "", "disk-fault plan applied to every site's WAL filesystem (storage plan grammar, e.g. 'slow p=0.1 min=1ms max=5ms'); needs -durable")
	flag.Int64Var(&opt.diskSd, "disk-fault-seed", 1, "base PRNG seed for the per-site disk-fault injectors")
	flag.Parse()
	if opt.gogc > 0 {
		debug.SetGCPercent(opt.gogc)
	}

	if opt.childArg {
		if err := runChild(opt); err != nil {
			fmt.Fprintf(os.Stderr, "polybench child %s: %v\n", opt.siteArg, err)
			os.Exit(1)
		}
		return
	}
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "polybench: %v\n", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.sites < 1 {
		return fmt.Errorf("-sites must be >= 1")
	}
	if opt.workers < 1 {
		opt.workers = 1
	}
	if _, _, err := planeConfig(opt); err != nil {
		return err
	}
	if _, err := workloadConfig(opt); err != nil {
		return err
	}
	if opt.kind == "overload" && opt.admit == 0 {
		opt.admit = 4
	}
	if opt.diskFlts != "" {
		if !opt.durable {
			return fmt.Errorf("-disk-faults requires -durable (there is no WAL filesystem to inject against)")
		}
		// Validate the plan up front on a throwaway injector so a typo
		// fails before any node boots.
		if err := storage.NewFaultFS(nil, storage.FaultFSConfig{}).ApplyPlan(opt.diskFlts); err != nil {
			return fmt.Errorf("-disk-faults: %w", err)
		}
	}
	if opt.replicas > 0 {
		if opt.mode != "inproc" {
			return fmt.Errorf("-replicas requires -mode inproc (the procs-mode audit protocol is per-site)")
		}
		if opt.wquorum == 0 {
			opt.wquorum = opt.replicas/2 + 1
		}
		if opt.rquorum == 0 {
			opt.rquorum = opt.replicas + 1 - opt.wquorum
		}
	}
	if opt.label == "" {
		b := "batched"
		if !opt.batch {
			b = "unbatched"
		}
		opt.label = fmt.Sprintf("%s-%s-%dsite-%s", opt.kind, opt.mode, opt.sites, b)
		if opt.plane != "wal" {
			// Each decision plane is its own setting; never compare a
			// paxos or blocking run against the wal baseline.
			opt.label += "-" + opt.plane
		}
		if opt.spansN > 0 {
			// Traced runs get their own setting so the tracing-off
			// baseline is never compared against tracing-on numbers.
			opt.label += "-traced"
		}
		if opt.replicas > 0 {
			// Replicated runs do K× the write work per commit; never
			// compare them against the unreplicated baseline.
			opt.label += fmt.Sprintf("-k%dw%dr%d", opt.replicas, opt.wquorum, opt.rquorum)
		}
		if opt.durable {
			// Durable runs pay an fsync bound the in-memory baseline
			// doesn't; they are their own settings.
			opt.label += "-durable"
		}
		if opt.lanes > 1 {
			opt.label += fmt.Sprintf("-lanes%d", opt.lanes)
		}
		if opt.diskFlts != "" {
			// Disk-faulted runs measure degraded-mode throughput; never
			// compare them against a healthy-disk baseline.
			opt.label += "-diskfaulty"
		}
	}

	var (
		res *runResult
		err error
	)
	switch opt.mode {
	case "inproc":
		res, err = runInproc(opt)
	case "procs":
		res, err = runProcs(opt)
	default:
		return fmt.Errorf("unknown -mode %q (want inproc or procs)", opt.mode)
	}
	if err != nil {
		return err
	}

	s := res.setting(opt)
	printSetting(os.Stdout, s)
	if res.auditErr != nil {
		return fmt.Errorf("audit failed: %w", res.auditErr)
	}

	out := opt.out
	if out == "" {
		out = "BENCH_" + gitRev() + ".json"
	}
	if err := writeBench(out, s); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// ---------------------------------------------------------------------
// Workload plumbing
// ---------------------------------------------------------------------

func workloadConfig(opt options) (workload.Config, error) {
	cfg := workload.Config{Items: opt.items, Seed: opt.seed}
	switch opt.kind {
	case "bank", "overload": // overload = bank mix through admission-gated sites
		cfg.Kind = workload.Bank
	case "reservations":
		cfg.Kind = workload.Reservations
	case "inventory":
		cfg.Kind = workload.Inventory
	default:
		return cfg, fmt.Errorf("unknown -workload %q", opt.kind)
	}
	return cfg, nil
}

// planeConfig maps -decision-plane onto cluster knobs: the decision
// plane proper plus the participant wait policy (blocking2pc is the
// classic baseline — the wal plane with participants that hold their
// locks through coordinator outages instead of installing polyvalues).
// planeName canonicalizes the flag for labels and the BENCH schema.
func planeName(opt options) string {
	if opt.plane == "" {
		return "wal"
	}
	return opt.plane
}

func planeConfig(opt options) (cluster.DecisionPlane, cluster.Policy, error) {
	switch opt.plane {
	case "", "wal":
		return cluster.PlaneWAL, cluster.PolicyPolyvalue, nil
	case "paxos":
		return cluster.PlanePaxos, cluster.PolicyPolyvalue, nil
	case "blocking2pc":
		return cluster.PlaneWAL, cluster.PolicyBlocking, nil
	default:
		return "", 0, fmt.Errorf("unknown -decision-plane %q (want wal, paxos, or blocking2pc)", opt.plane)
	}
}

// programs pre-generates every transaction source: the Generator is not
// thread-safe, and a fixed list makes the run a pure function of flags.
func programs(opt options) ([]string, map[string]polyvalue.Poly, error) {
	wcfg, err := workloadConfig(opt)
	if err != nil {
		return nil, nil, err
	}
	gen, err := workload.New(wcfg)
	if err != nil {
		return nil, nil, err
	}
	init := gen.InitialState()
	progs := make([]string, opt.txns)
	for i := range progs {
		progs[i] = gen.Next()
	}
	return progs, init, nil
}

func siteNames(n int) []protocol.SiteID {
	out := make([]protocol.SiteID, n)
	for i := range out {
		out[i] = protocol.SiteID(fmt.Sprintf("s%d", i))
	}
	return out
}

func tcpConfig(self protocol.SiteID, peers map[protocol.SiteID]string, reg *metrics.Registry, opt options) transport.TCPConfig {
	cfg := transport.TCPConfig{Self: self, Peers: peers, Metrics: reg, QueueDepth: 1024}
	cfg.BatchMax = opt.batchMax
	if !opt.batch {
		cfg.BatchMax = 1 // frames of one
	}
	return cfg
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

type runResult struct {
	duration  time.Duration
	latencies []time.Duration // committed+aborted only
	committed int
	aborted   int
	timeouts  int
	shed      int // submission attempts rejected by admission control
	flushes   int64
	batchN    int64   // messages observed by the batch-size histogram
	batchSum  float64 // sum of batch sizes (mean = batchSum/flush count)
	auditErr  error
}

type latencyMS struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

type batchStats struct {
	Flushes  int64   `json:"flushes"`
	MeanSize float64 `json:"mean_size"`
}

// replicationSetting records the quorum geometry of a replicated run
// (absent for unreplicated settings).
type replicationSetting struct {
	Replicas    int `json:"replicas"`
	WriteQuorum int `json:"write_quorum"`
	ReadQuorum  int `json:"read_quorum"`
}

type setting struct {
	Name            string  `json:"name"`
	Mode            string  `json:"mode"`
	Sites           int     `json:"sites"`
	Workers         int     `json:"workers"`
	Txns            int     `json:"txns"`
	Seed            int64   `json:"seed"`
	Workload        string  `json:"workload"`
	Items           int     `json:"items"`
	Batching        bool    `json:"batching"`
	DecisionPlane   string  `json:"decision_plane"`
	DurationSeconds float64 `json:"duration_seconds"`
	ThroughputTPS   float64 `json:"throughput_tps"`
	Committed       int     `json:"committed"`
	Aborted         int     `json:"aborted"`
	Timeouts        int     `json:"timeouts"`
	AdmissionLimit  int     `json:"admission_limit,omitempty"`
	Shed            int     `json:"shed,omitempty"`
	ShedRate        float64 `json:"shed_rate,omitempty"`

	// Lane / durability geometry: a durable run's events wait for the
	// group-commit fsync covering their WAL records; lanes let several
	// wait on one fsync.  GOMAXPROCS records the scheduler width the run
	// actually had.
	Lanes               int     `json:"lanes,omitempty"`
	Durable             bool    `json:"durable,omitempty"`
	GroupCommitWindowMS float64 `json:"group_commit_window_ms,omitempty"`
	GOMAXPROCS          int     `json:"gomaxprocs,omitempty"`
	// DiskFaults records the -disk-faults plan the run's WAL filesystem
	// was injected with (ISSUE 10), so degraded-disk settings are
	// self-describing in the BENCH file.
	DiskFaults string `json:"disk_faults,omitempty"`

	Replication *replicationSetting `json:"replication,omitempty"`

	LatencyMS latencyMS  `json:"latency_ms"`
	Batch     batchStats `json:"batch"`
}

func (r *runResult) setting(opt options) setting {
	s := setting{
		Name: opt.label, Mode: opt.mode, Sites: opt.sites, Workers: opt.workers,
		Txns: opt.txns, Seed: opt.seed, Workload: opt.kind, Items: opt.items,
		Batching: opt.batch, DecisionPlane: planeName(opt),
		DurationSeconds: r.duration.Seconds(),
		Committed:       r.committed, Aborted: r.aborted, Timeouts: r.timeouts,
		AdmissionLimit: opt.admit, Shed: r.shed,
		Lanes: opt.lanes, Durable: opt.durable,
		GroupCommitWindowMS: float64(opt.gcWindow) / float64(time.Millisecond),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		DiskFaults:          opt.diskFlts,
	}
	if opt.replicas > 0 {
		s.Replication = &replicationSetting{
			Replicas: opt.replicas, WriteQuorum: opt.wquorum, ReadQuorum: opt.rquorum,
		}
	}
	if attempts := r.shed + opt.txns; attempts > 0 {
		s.ShedRate = float64(r.shed) / float64(attempts)
	}
	if r.duration > 0 {
		s.ThroughputTPS = float64(r.committed) / r.duration.Seconds()
	}
	ls := append([]time.Duration(nil), r.latencies...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	pct := func(q float64) float64 {
		if len(ls) == 0 {
			return 0
		}
		i := int(q * float64(len(ls)-1))
		return float64(ls[i]) / float64(time.Millisecond)
	}
	var sum time.Duration
	for _, d := range ls {
		sum += d
	}
	s.LatencyMS = latencyMS{P50: pct(0.5), P90: pct(0.9), P99: pct(0.99)}
	if len(ls) > 0 {
		s.LatencyMS.Mean = float64(sum) / float64(len(ls)) / float64(time.Millisecond)
	}
	s.Batch.Flushes = r.flushes
	if r.flushes > 0 {
		s.Batch.MeanSize = r.batchSum / float64(r.flushes)
	}
	return s
}

func printSetting(w *os.File, s setting) {
	fmt.Fprintf(w, "%s: %d txns in %.2fs — %.0f commits/s (%d committed, %d aborted, %d timeouts)\n",
		s.Name, s.Txns, s.DurationSeconds, s.ThroughputTPS, s.Committed, s.Aborted, s.Timeouts)
	if s.AdmissionLimit > 0 {
		fmt.Fprintf(w, "  admission=%d shed=%d shed_rate=%.1f%%\n", s.AdmissionLimit, s.Shed, s.ShedRate*100)
	}
	if s.Replication != nil {
		fmt.Fprintf(w, "  replication: k=%d write-quorum=%d read-quorum=%d\n",
			s.Replication.Replicas, s.Replication.WriteQuorum, s.Replication.ReadQuorum)
	}
	if s.Durable || s.Lanes > 1 {
		fmt.Fprintf(w, "  lanes=%d durable=%v group_commit_window_ms=%g gomaxprocs=%d\n",
			s.Lanes, s.Durable, s.GroupCommitWindowMS, s.GOMAXPROCS)
	}
	if s.DiskFaults != "" {
		fmt.Fprintf(w, "  disk_faults=%q\n", s.DiskFaults)
	}
	fmt.Fprintf(w, "  latency ms: p50=%.2f p90=%.2f p99=%.2f mean=%.2f\n",
		s.LatencyMS.P50, s.LatencyMS.P90, s.LatencyMS.P99, s.LatencyMS.Mean)
	fmt.Fprintf(w, "  batching=%v flushes=%d mean_batch=%.2f msgs/frame\n",
		s.Batching, s.Batch.Flushes, s.Batch.MeanSize)
}

// batchCounters reads the coalescing metrics the transports share.
func batchCounters(reg *metrics.Registry) (flushes, n int64, sum float64) {
	for _, p := range reg.Snapshot().Points {
		if p.Name == "transport.batch.flushes" { // every flush reason
			flushes += p.Value
		}
	}
	h := reg.Histogram("transport.batch.size")
	return flushes, int64(h.Count()), h.Sum()
}

// diskFaultFS builds one site's WAL-filesystem fault injector from the
// -disk-faults plan (nil when no plan was given).  Each site gets its
// own seeded rng so procs- and inproc-mode runs with the same flags
// make the same per-site fault decisions.
func diskFaultFS(opt options, id protocol.SiteID, reg *metrics.Registry) (*storage.FaultFS, error) {
	if opt.diskFlts == "" {
		return nil, nil
	}
	seed := opt.diskSd
	for _, r := range string(id) {
		seed = seed*31 + int64(r)
	}
	fs := storage.NewFaultFS(storage.OSFS, storage.FaultFSConfig{Seed: seed, Metrics: reg})
	if err := fs.ApplyPlan(opt.diskFlts); err != nil {
		return nil, fmt.Errorf("-disk-faults: %w", err)
	}
	return fs, nil
}

// ---------------------------------------------------------------------
// inproc mode: N nodes over loopback TCP inside this process
// ---------------------------------------------------------------------

func runInproc(opt options) (*runResult, error) {
	names := siteNames(opt.sites)
	lns := make([]net.Listener, opt.sites)
	peers := map[protocol.SiteID]string{}
	for i, id := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		peers[id] = ln.Addr().String()
	}
	reg := metrics.NewRegistry()
	// One shared span log across all inproc sites: the cluster stamps
	// each span with its site, and the shared ID counter keeps span IDs
	// unique, so /trace sees whole-transaction timelines directly.
	var spans *trace.SpanLog
	if opt.spansN > 0 {
		spans = trace.NewSpanLogFor("inproc", opt.spansN)
	}
	nodes := make([]*cluster.Cluster, opt.sites)
	for i, id := range names {
		fab := transport.NewTCPWithListener(tcpConfig(id, peers, reg, opt), lns[i])
		plane, policy, err := planeConfig(opt)
		if err != nil {
			return nil, err
		}
		ncfg := cluster.Config{
			Sites: names, Metrics: reg, Spans: spans,
			AdmissionLimit: opt.admit, TxnDeadline: opt.deadline,
			DecisionPlane: plane, Policy: policy,
			Lanes: opt.lanes,
		}
		if opt.durable {
			dir, err := os.MkdirTemp("", "polybench-wal-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			ncfg.DataDir = dir
			ncfg.SyncWAL = true
			ncfg.GroupCommitWindow = opt.gcWindow
			if fs, err := diskFaultFS(opt, id, reg); err != nil {
				return nil, err
			} else if fs != nil {
				ncfg.DiskFS = fs
			}
		}
		if opt.replicas > 0 {
			ncfg.Replication = &cluster.ReplicationConfig{
				K: opt.replicas, W: opt.wquorum, R: opt.rquorum,
			}
		}
		node, err := cluster.NewNode(ncfg, id, fab)
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	if opt.telAddr != "" {
		tel, err := telemetry.Serve(opt.telAddr, telemetry.Config{Registry: reg, Spans: spans})
		if err != nil {
			return nil, err
		}
		defer tel.Close()
		fmt.Fprintf(os.Stderr, "polybench: telemetry at http://%s\n", tel.Addr)
	}

	progs, init, err := programs(opt)
	if err != nil {
		return nil, err
	}
	// Parse the whole mix before the clock starts: submit-side parsing is
	// client work, not protocol work, and should not dilute the measured
	// window.
	parsed := make([]expr.Program, len(progs))
	for i, src := range progs {
		if parsed[i], err = expr.Parse(src); err != nil {
			return nil, fmt.Errorf("program %d: %w", i, err)
		}
	}
	for _, node := range nodes {
		for item, v := range init {
			if opt.replicas > 0 {
				// Each node loads the replicas it hosts (version 1).
				if err := node.LoadReplicated(item, v); err != nil {
					return nil, err
				}
			} else if node.Local(item) {
				if err := node.Load(item, v); err != nil {
					return nil, err
				}
			}
		}
	}

	res := &runResult{latencies: make([]time.Duration, 0, opt.txns)}
	lat := make([]time.Duration, opt.txns)
	status := make([]cluster.Status, opt.txns)
	waited := make([]bool, opt.txns)
	var shedN atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	if opt.profile != "" {
		f, err := os.Create(opt.profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	for w := 0; w < opt.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opt.txns {
					return
				}
				node := nodes[i%opt.sites]
				t0 := time.Now()
				var h *cluster.Handle
				var err error
				for {
					h, err = node.SubmitProgram(node.Self(), parsed[i])
					if !errors.Is(err, cluster.ErrOverload) {
						break
					}
					// Shed: admission control pushed the wait onto the
					// client.  Back off and retry; the backoff stays
					// inside the client-observed latency.
					shedN.Add(1)
					time.Sleep(500 * time.Microsecond)
				}
				if err != nil {
					status[i], waited[i] = cluster.StatusAborted, true
					lat[i] = time.Since(t0)
					continue
				}
				st, done := h.Wait(opt.waitTxn)
				lat[i] = time.Since(t0)
				status[i], waited[i] = st, done
			}
		}()
	}
	wg.Wait()
	res.duration = time.Since(start)

	res.shed = int(shedN.Load())
	for i := range status {
		switch {
		case !waited[i]:
			res.timeouts++
		case status[i] == cluster.StatusCommitted:
			res.committed++
			res.latencies = append(res.latencies, lat[i])
		default:
			res.aborted++
			res.latencies = append(res.latencies, lat[i])
		}
	}

	// Quiescence: wait for in-flight protocol state (prepared txns,
	// locks, outcome-request loops, polyvalues) to drain on every node
	// before the conservation audit — a participant can briefly hold a
	// decided-but-unapplied update after the client's Wait returns.
	deadline := time.Now().Add(opt.settle)
	settled := false
	for !time.Now().After(deadline) {
		quiet := true
		for _, n := range nodes {
			if !nodeQuiet(n) {
				quiet = false
				break
			}
		}
		if quiet {
			settled = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	res.auditErr = auditInproc(opt, nodes, init)
	if res.auditErr != nil && !settled {
		var states []string
		for _, n := range nodes {
			if info, err := n.SiteInfo(n.Self()); err == nil {
				states = append(states, fmt.Sprintf("%s{poly=%d prepared=%d locks=%d awaits=%d}",
					n.Self(), info.PolyItems, info.Prepared, info.Locks, info.Awaits))
			}
		}
		res.auditErr = fmt.Errorf("%w (cluster never quiesced within -settle %v: %s)",
			res.auditErr, opt.settle, strings.Join(states, " "))
	}
	// A failed fsync under a -disk-faults plan durability-panics the
	// site, and polybench has no rebuilder (that is RunDiskChaos's
	// job) — name the dead sites instead of a bare audit failure.
	if res.auditErr != nil && opt.diskFlts != "" {
		var lost []string
		for _, n := range nodes {
			if n.DurabilityLost(n.Self()) {
				lost = append(lost, string(n.Self()))
			}
		}
		if len(lost) > 0 {
			res.auditErr = fmt.Errorf("%w; site(s) %s took durability panics under -disk-faults and stay down until rebuilt — benchmark gray failures (slow/readflip) here, use `make diskchaos` for fsync/ENOSPC torture",
				res.auditErr, strings.Join(lost, " "))
		}
	}
	res.flushes, res.batchN, res.batchSum = batchCounters(reg)
	return res, nil
}

// nodeQuiet reports whether a node has no protocol state in flight.
func nodeQuiet(n *cluster.Cluster) bool {
	info, err := n.SiteInfo(n.Self())
	if err != nil {
		return false
	}
	return info.PolyItems == 0 && info.Prepared == 0 && info.Locks == 0 && info.Awaits == 0
}

// auditInproc checks the invariant the workload promises: every item is
// certain at quiescence, and for the bank workload money is conserved.
// Replicated runs audit the freshest replica by version — a committed
// write reaches only W of the K copies synchronously, and gossip may
// still be converging the rest when the settle window closes.
func auditInproc(opt options, nodes []*cluster.Cluster, init map[string]polyvalue.Poly) error {
	var total, want int64
	for item, v0 := range init {
		p, err := readFreshest(opt, nodes, item)
		if err != nil {
			return err
		}
		v, ok := p.IsCertain()
		if !ok {
			return fmt.Errorf("item %s still uncertain after settle: %v", item, p)
		}
		if opt.kind == "bank" || opt.kind == "overload" {
			n, _ := value.AsInt(v)
			total += n
			w, _ := v0.IsCertain()
			n0, _ := value.AsInt(w)
			want += n0
		}
	}
	if (opt.kind == "bank" || opt.kind == "overload") && total != want {
		return fmt.Errorf("conservation violated: total=%d want=%d", total, want)
	}
	return nil
}

// readFreshest returns an item's value for the audit: the owning node's
// copy, or under replication the max-version replica across the nodes
// hosting one.
func readFreshest(opt options, nodes []*cluster.Cluster, item string) (polyvalue.Poly, error) {
	if opt.replicas == 0 {
		for _, n := range nodes {
			if n.Local(item) {
				return n.Read(item), nil
			}
		}
		return polyvalue.Poly{}, fmt.Errorf("item %s has no owning node", item)
	}
	var best polyvalue.Poly
	var bestVer uint64
	found := false
	for i := 0; i < opt.replicas; i++ {
		phys := replica.Name(item, i)
		for _, n := range nodes {
			if !n.Local(phys) {
				continue
			}
			ver := n.Store(n.Self()).Version(phys)
			if !found || ver > bestVer {
				best, bestVer, found = n.Read(phys), ver, true
			}
		}
	}
	if !found {
		return polyvalue.Poly{}, fmt.Errorf("item %s has no hosted replica", item)
	}
	return best, nil
}

// ---------------------------------------------------------------------
// procs mode: parent re-execs itself as one child per site
// ---------------------------------------------------------------------

type childProc struct {
	id   protocol.SiteID
	cmd  *exec.Cmd
	in   *bufio.Writer
	inMu sync.Mutex
	ctrl chan string // non-RESULT replies, in command order
}

func (c *childProc) send(line string) error {
	c.inMu.Lock()
	defer c.inMu.Unlock()
	if _, err := c.in.WriteString(line + "\n"); err != nil {
		return err
	}
	return c.in.Flush()
}

// call sends one control command and waits for its single-line reply.
func (c *childProc) call(line string, timeout time.Duration) (string, error) {
	if err := c.send(line); err != nil {
		return "", err
	}
	select {
	case reply, ok := <-c.ctrl:
		if !ok {
			return "", fmt.Errorf("child %s exited", c.id)
		}
		return reply, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("child %s: no reply to %q", c.id, line)
	}
}

type resultMsg struct {
	status  string
	latency time.Duration
}

func runProcs(opt options) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	names := siteNames(opt.sites)
	children := make([]*childProc, opt.sites)
	pending := struct {
		sync.Mutex
		m map[int]chan resultMsg
	}{m: map[int]chan resultMsg{}}

	defer func() {
		for _, c := range children {
			if c != nil {
				c.send("EXIT")
				c.cmd.Wait()
			}
		}
	}()

	addrs := make([]string, opt.sites)
	for i, id := range names {
		cmd := exec.Command(exe,
			"-child", "-site", string(id),
			"-sites", strconv.Itoa(opt.sites),
			"-workload", opt.kind,
			"-items", strconv.Itoa(opt.items),
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-txns", strconv.Itoa(opt.txns),
			"-batch="+strconv.FormatBool(opt.batch),
			"-txn-timeout", opt.waitTxn.String(),
			"-settle", opt.settle.String(),
			"-gogc", strconv.Itoa(opt.gogc),
			"-batch-max", strconv.Itoa(opt.batchMax),
			"-admission", strconv.Itoa(opt.admit),
			"-txn-deadline", opt.deadline.String(),
			"-decision-plane", planeName(opt),
			"-spans", strconv.Itoa(opt.spansN),
			"-lanes", strconv.Itoa(opt.lanes),
			"-durable="+strconv.FormatBool(opt.durable),
			"-group-commit-window", opt.gcWindow.String(),
			"-disk-faults", opt.diskFlts,
			"-disk-fault-seed", strconv.FormatInt(opt.diskSd, 10),
		)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start child %s: %w", id, err)
		}
		c := &childProc{id: id, cmd: cmd, in: bufio.NewWriter(stdin), ctrl: make(chan string, 4)}
		children[i] = c

		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		if !sc.Scan() {
			return nil, fmt.Errorf("child %s died before ADDR", id)
		}
		addr, ok := strings.CutPrefix(sc.Text(), "ADDR ")
		if !ok {
			return nil, fmt.Errorf("child %s: want ADDR, got %q", id, sc.Text())
		}
		addrs[i] = addr
		// Demux the child's stdout: RESULT lines resolve pending
		// submissions, everything else answers the last control command.
		go func(c *childProc, sc *bufio.Scanner) {
			defer close(c.ctrl)
			for sc.Scan() {
				line := sc.Text()
				rest, ok := strings.CutPrefix(line, "RESULT ")
				if !ok {
					c.ctrl <- line
					continue
				}
				f := strings.Fields(rest)
				if len(f) != 3 {
					continue
				}
				id, _ := strconv.Atoi(f[0])
				ns, _ := strconv.ParseInt(f[2], 10, 64)
				pending.Lock()
				ch := pending.m[id]
				delete(pending.m, id)
				pending.Unlock()
				if ch != nil {
					ch <- resultMsg{status: f[1], latency: time.Duration(ns)}
				}
			}
		}(c, sc)
	}

	var peerList []string
	for i, id := range names {
		peerList = append(peerList, string(id)+"="+addrs[i])
	}
	peersLine := "PEERS " + strings.Join(peerList, ",")
	for _, c := range children {
		reply, err := c.call(peersLine, 10*time.Second)
		if err != nil {
			return nil, err
		}
		if reply != "READY" {
			return nil, fmt.Errorf("child %s: want READY, got %q", c.id, reply)
		}
	}
	if opt.verbose {
		fmt.Fprintf(os.Stderr, "polybench: %d children ready\n", opt.sites)
	}

	progs, _, err := programs(opt)
	if err != nil {
		return nil, err
	}
	res := &runResult{latencies: make([]time.Duration, 0, opt.txns)}
	lat := make([]time.Duration, opt.txns)
	statuses := make([]string, opt.txns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opt.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opt.txns {
					return
				}
				c := children[i%opt.sites]
				ch := make(chan resultMsg, 1)
				pending.Lock()
				pending.m[i] = ch
				pending.Unlock()
				if err := c.send(fmt.Sprintf("SUBMIT %d %s", i, progs[i])); err != nil {
					statuses[i] = "error"
					continue
				}
				select {
				case r := <-ch:
					statuses[i], lat[i] = r.status, r.latency
				case <-time.After(opt.waitTxn + 5*time.Second):
					statuses[i] = "timeout"
					pending.Lock()
					delete(pending.m, i)
					pending.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.duration = time.Since(start)

	for i, st := range statuses {
		switch st {
		case "committed":
			res.committed++
			res.latencies = append(res.latencies, lat[i])
		case "aborted":
			res.aborted++
			res.latencies = append(res.latencies, lat[i])
		default:
			res.timeouts++
		}
	}

	// Audit + transport stats come from the children, which wait for
	// their local polyvalues to drain before answering SUM.
	var total, want int64
	var polys int64
	for _, c := range children {
		reply, err := c.call("SUM", opt.settle+10*time.Second)
		if err != nil {
			return nil, err
		}
		var sum, w, p int64
		if _, err := fmt.Sscanf(reply, "SUMOK %d %d %d", &sum, &w, &p); err != nil {
			return nil, fmt.Errorf("child %s: bad SUM reply %q", c.id, reply)
		}
		total, want, polys = total+sum, want+w, polys+p

		reply, err = c.call("STATS", 10*time.Second)
		if err != nil {
			return nil, err
		}
		var fl, bn, shd int64
		var bsum float64
		if _, err := fmt.Sscanf(reply, "STATSOK %d %d %g %d", &fl, &bn, &bsum, &shd); err != nil {
			return nil, fmt.Errorf("child %s: bad STATS reply %q", c.id, reply)
		}
		res.flushes += fl
		res.batchN += bn
		res.batchSum += bsum
		res.shed += int(shd)
	}
	if polys > 0 {
		res.auditErr = fmt.Errorf("%d items still uncertain after settle", polys)
	} else if (opt.kind == "bank" || opt.kind == "overload") && total != want {
		res.auditErr = fmt.Errorf("conservation violated: total=%d want=%d", total, want)
	}
	return res, nil
}

// ---------------------------------------------------------------------
// procs-mode child: one site, line protocol on stdin/stdout
// ---------------------------------------------------------------------

func runChild(opt options) error {
	if opt.siteArg == "" {
		return fmt.Errorf("-child requires -site")
	}
	self := protocol.SiteID(opt.siteArg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var outMu sync.Mutex
	emit := func(format string, args ...any) {
		outMu.Lock()
		fmt.Printf(format+"\n", args...)
		outMu.Unlock()
	}
	emit("ADDR %s", ln.Addr())

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !in.Scan() {
		return fmt.Errorf("stdin closed before PEERS")
	}
	rest, ok := strings.CutPrefix(in.Text(), "PEERS ")
	if !ok {
		return fmt.Errorf("want PEERS, got %q", in.Text())
	}
	peers := map[protocol.SiteID]string{}
	for _, part := range strings.Split(rest, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("bad PEERS entry %q", part)
		}
		peers[protocol.SiteID(id)] = addr
	}
	names := siteNames(opt.sites)
	reg := metrics.NewRegistry()
	var spans *trace.SpanLog
	if opt.spansN > 0 {
		spans = trace.NewSpanLogFor(string(self), opt.spansN)
	}
	fab := transport.NewTCPWithListener(tcpConfig(self, peers, reg, opt), ln)
	plane, policy, err := planeConfig(opt)
	if err != nil {
		return err
	}
	ccfg := cluster.Config{
		Sites: names, Metrics: reg, Spans: spans,
		AdmissionLimit: opt.admit, TxnDeadline: opt.deadline,
		DecisionPlane: plane, Policy: policy,
		Lanes: opt.lanes,
	}
	if opt.durable {
		dir, err := os.MkdirTemp("", "polybench-wal-"+string(self)+"-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ccfg.DataDir = dir
		ccfg.SyncWAL = true
		ccfg.GroupCommitWindow = opt.gcWindow
		if fs, err := diskFaultFS(opt, self, reg); err != nil {
			return err
		} else if fs != nil {
			ccfg.DiskFS = fs
		}
	}
	node, err := cluster.NewNode(ccfg, self, fab)
	if err != nil {
		return err
	}
	defer node.Close()

	_, init, err := programs(opt)
	if err != nil {
		return err
	}
	for item, v := range init {
		if node.Local(item) {
			if err := node.Load(item, v); err != nil {
				return err
			}
		}
	}
	emit("READY")

	var shedN atomic.Int64
	var wg sync.WaitGroup
	for in.Scan() {
		line := in.Text()
		cmd, rest, _ := strings.Cut(line, " ")
		switch cmd {
		case "SUBMIT":
			idStr, prog, ok := strings.Cut(rest, " ")
			if !ok {
				emit("RESULT %s error 0", idStr)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				var h *cluster.Handle
				var err error
				for {
					h, err = node.Submit(self, prog)
					if !errors.Is(err, cluster.ErrOverload) {
						break
					}
					shedN.Add(1)
					time.Sleep(500 * time.Microsecond)
				}
				if err != nil {
					emit("RESULT %s aborted %d", idStr, time.Since(t0).Nanoseconds())
					return
				}
				st, done := h.Wait(opt.waitTxn)
				name := "timeout"
				if done {
					if st == cluster.StatusCommitted {
						name = "committed"
					} else {
						name = "aborted"
					}
				}
				emit("RESULT %s %s %d", idStr, name, time.Since(t0).Nanoseconds())
			}()
		case "SUM":
			wg.Wait()
			deadline := time.Now().Add(opt.settle)
			for !nodeQuiet(node) && time.Now().Before(deadline) {
				time.Sleep(50 * time.Millisecond)
			}
			var total, want, polys int64
			for item, v0 := range init {
				if !node.Local(item) {
					continue
				}
				v, ok := node.Read(item).IsCertain()
				if !ok {
					polys++
					continue
				}
				n, _ := value.AsInt(v)
				total += n
				w, _ := v0.IsCertain()
				n0, _ := value.AsInt(w)
				want += n0
			}
			emit("SUMOK %d %d %d", total, want, polys)
		case "STATS":
			fl, bn, bsum := batchCounters(reg)
			emit("STATSOK %d %d %g %d", fl, bn, bsum, shedN.Load())
		case "EXIT":
			return nil
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// BENCH file
// ---------------------------------------------------------------------

type benchFile struct {
	Schema   int       `json:"schema"`
	Rev      string    `json:"rev"`
	When     string    `json:"when"`
	Go       string    `json:"go"`
	Settings []setting `json:"settings"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeBench merges s (by setting name) into the BENCH file at path.
func writeBench(path string, s setting) error {
	f := benchFile{Schema: 1}
	if raw, err := os.ReadFile(path); err == nil {
		json.Unmarshal(raw, &f) // corrupt file: start fresh
	}
	f.Schema = 1
	f.Rev = gitRev()
	f.When = time.Now().UTC().Format(time.RFC3339)
	f.Go = runtime.Version()
	replaced := false
	for i := range f.Settings {
		if f.Settings[i].Name == s.Name {
			f.Settings[i] = s
			replaced = true
		}
	}
	if !replaced {
		f.Settings = append(f.Settings, s)
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
