// Command polynode runs ONE site of a polyvalue cluster as its own OS
// process, speaking the internal/wire binary protocol to its peers over
// TCP.  Three terminals (or scripts/cluster_demo.sh) make a live
// cluster:
//
//	polynode -site A -peers A=:7001,B=:7002,C=:7003 -control :8001 -data /tmp/pv
//	polynode -site B -peers A=:7001,B=:7002,C=:7003 -control :8002 -data /tmp/pv
//	polynode -site C -peers A=:7001,B=:7002,C=:7003 -control :8003 -data /tmp/pv
//
// Each node exposes a line-based control port for clients and scripts:
//
//	PING                 liveness check
//	OWNER <item>         which site an item is placed at
//	LOAD <item> <int>    install an initial value (owner only)
//	READ <item>          current value: "certain <v>" or "poly <p>"
//	POLY                 list local items currently holding polyvalues
//	SUBMIT <program>     run a transaction, wait for the decision
//	ASYNC <program>      run a transaction, don't wait (returns the TID)
//	QUERY <expr>         read-only query, waits for the answer
//	ARMCRASH [point]     crash this site at a protocol crash point (default
//	                     before-decision, the paper's critical moment)
//	CRASHPOINTS          list the crash points ARMCRASH accepts
//	FAULT <cmd>          drive the fault-injection plane: drop/dup/delay/
//	                     corrupt/reset rules, partitions, heal, seed,
//	                     status, clear (see internal/fault plan grammar)
//	DISKFAULT <cmd>      drive the disk-fault plane under the WAL:
//	                     fsync/torn/enospc/readflip/slow rules, seed,
//	                     status, clear (the same internal/fault plan
//	                     grammar; needs -data)
//	SPANS                dump the structured span log as one JSON line
//	                     (pipe site dumps into polytrace; needs -spans)
//	STATS                cluster + transport counters
//
// Responses end with a line starting "OK" or "ERR"; intermediate lines
// are prefixed "| ".  Client mode sends one command and prints the
// response:
//
//	polynode -call 127.0.0.1:8001 SUBMIT 'a = a - 10 if a >= 10; b = b + 10 if a >= 10'
//	polynode -call 127.0.0.1:8001 FAULT 'partition a=A b=B heal=5s'
//
// Every node's transport is wrapped in the fault injector; with no
// -faults plan and no FAULT commands it is a transparent pass-through.
// The overload-protection plane is opt-in per flag: -admission caps
// in-flight transactions, -txn-deadline bounds each transaction end to
// end, -poly-budget/-dep-budget cap polyvalue and dependency-table
// growth (degrading to blocking 2PC at the cap), and -heartbeat starts
// the peer failure detector with its circuit breaker.
//
// Quorum replication is opt-in the same way: -replicas K spreads every
// logical item across K physical replicas (hash-placed on distinct
// sites) with -write-quorum/-read-quorum controlling W and R (W+R > K
// enforced; defaults: majority W, R = K+1-W).  All processes must pass
// identical replication flags; -place, whose pins name physical items,
// is refused with it.  LOAD then installs the replicas the
// receiving process hosts — send the same LOAD to every node — and the
// anti-entropy gossip plane keeps replicas converging across failures;
// when -heartbeat is set, gossip peer selection skips suspected peers.
//
// Durability is opt-in the same way: -data backs each site with a WAL,
// and -fsync makes every site event durable before its outputs leave
// the site, through a self-clocking group commit (one fsync covers
// every frame that arrived while the previous one was in flight).
//
// Observability is opt-in the same way: -telemetry serves /metrics
// (OpenMetrics), /healthz, /trace and pprof over HTTP, -spans retains
// structured per-transaction spans (queried via /trace or dumped with
// SPANS for polytrace).
//
// Every cluster knob is a flag here and nowhere else: cmd/polybench is a
// load client of these control ports and measures whatever the nodes
// were started with (-batch-max 1, frames of one message, is the
// transport-batching ablation).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
)

func main() {
	var (
		site     = flag.String("site", "", "site ID this process hosts (required in server mode)")
		peersArg = flag.String("peers", "", "comma-separated site=host:port transport addresses for every site (required)")
		listen   = flag.String("listen", "", "transport bind address override (default: this site's -peers entry)")
		control  = flag.String("control", "", "control-port listen address (required in server mode)")
		dataDir  = flag.String("data", "", "WAL directory; restarting over the same directory recovers durable state")
		stats    = flag.Bool("stats", false, "print transport and cluster stats on shutdown")
		waitT    = flag.Duration("wait-timeout", 250*time.Millisecond, "participant wait-phase timeout before installing polyvalues")
		retryT   = flag.Duration("retry-interval", 250*time.Millisecond, "outcome-request retry pacing for in-doubt sites")
		admit    = flag.Int("admission", 0, "max in-flight coordinated transactions; over it submissions shed with an overload error (0: unlimited)")
		txnDl    = flag.Duration("txn-deadline", 0, "end-to-end transaction deadline; expired work aborts (0: none)")
		polyBdg  = flag.Int("poly-budget", 0, "max local polyvalue population before in-doubt work degrades to blocking 2PC (0: unlimited)")
		depBdg   = flag.Int("dep-budget", 0, "max dependency-table size before the same degradation (0: unlimited)")
		hbeat    = flag.Duration("heartbeat", 0, "peer heartbeat interval for the failure detector + circuit breaker (0: disabled)")
		replicas = flag.Int("replicas", 0, "replicate each logical item across this many sites with quorum commit (0: no replication; every process must pass the same value)")
		wquorum  = flag.Int("write-quorum", 0, "replicas that must install a write (default: majority of -replicas; every process must pass the same value)")
		rquorum  = flag.Int("read-quorum", 0, "replicas that must answer a read (default: replicas+1-W; every process must pass the same value)")
		planeArg = flag.String("decision-plane", "wal", "commit decision plane: wal (coordinator WAL only), paxos (Paxos Commit over 2F+1 acceptors), or blocking2pc (wal plane, polyvalues off); every process must pass the same value")
		place    = flag.String("place", "", "comma-separated item=site placement pins (every process must pass the same value); unlisted items hash across sites")
		faults   = flag.String("faults", "", "initial fault plan, ';'-separated injector commands (e.g. 'drop to=B p=0.1; delay p=0.2 min=5ms max=40ms')")
		faultSd  = flag.Int64("fault-seed", 1, "PRNG seed for the fault injector (same seed, same fault decisions)")
		telAddr  = flag.String("telemetry", "", "serve /metrics, /healthz, /trace and pprof on this address (e.g. :9090; empty: disabled)")
		spansCap = flag.Int("spans", 0, "retain this many structured transaction spans (enables span tracing and the /trace endpoints; 0: disabled)")
		callAddr = flag.String("call", "", "client mode: send the remaining arguments as one command to this control address")
		fsync    = flag.Bool("fsync", false, "with -data: make every site event durable before its outputs leave the site (each event waits for the group commit covering its WAL records)")
		diskFlts = flag.String("disk-faults", "", "initial disk-fault plan for the WAL filesystem, ';'-separated disk-fault commands (e.g. 'fsync p=0.01 once; slow p=0.2 min=1ms max=10ms'); needs -data")
		diskSd   = flag.Int64("disk-fault-seed", 1, "PRNG seed for the disk-fault injector (same seed, same fault decisions)")
		batchMax = flag.Int("batch-max", 0, "messages per transport frame cap (0: transport default; 1: frames of one, the unbatched ablation)")
	)
	flag.Parse()

	if *callAddr != "" {
		os.Exit(runClient(*callAddr, strings.Join(flag.Args(), " ")))
	}
	if *site == "" || *peersArg == "" || *control == "" {
		fmt.Fprintln(os.Stderr, "polynode: -site, -peers and -control are required (or -call for client mode)")
		flag.Usage()
		os.Exit(2)
	}
	peers, err := parsePeers(*peersArg)
	if err != nil {
		fatal("%v", err)
	}
	self := protocol.SiteID(*site)
	if _, ok := peers[self]; !ok {
		fatal("site %s has no -peers entry", self)
	}
	// Membership order must agree across processes: sorted site IDs.
	sites := make([]protocol.SiteID, 0, len(peers))
	for id := range peers {
		sites = append(sites, id)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })

	reg := metrics.NewRegistry()
	// Observability instruments are pay-for-use: a nil span log keeps
	// every tracing branch in the hot path disabled.
	var spans *trace.SpanLog
	if *spansCap > 0 {
		spans = trace.NewSpanLogFor(*site, *spansCap)
		spans.Instrument(reg)
	}
	fab, err := transport.NewTCP(transport.TCPConfig{
		Self:     self,
		Peers:    peers,
		Listen:   *listen,
		Metrics:  reg,
		BatchMax: *batchMax,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "polynode[%s] transport: %s\n", self, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		fatal("%v", err)
	}
	// The fault plane sits between the cluster and the wire; with no
	// rules it forwards untouched.
	inj := fault.Wrap(fab, fault.Config{
		Self:    self,
		Seed:    *faultSd,
		Metrics: reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "polynode[%s] %s\n", self, fmt.Sprintf(format, args...))
		},
	})
	if *faults != "" {
		if err := inj.ApplyPlan(*faults); err != nil {
			fatal("-faults: %v", err)
		}
	}
	placement, err := parsePlacement(*place, peers, *replicas)
	if err != nil {
		fatal("%v", err)
	}
	// With -heartbeat the failure detector sits on top of the fault
	// plane: heartbeats cross the injector like any other traffic, so a
	// partition makes peers suspect and trips the circuit breaker.
	var fabric transport.Transport = inj
	var det *guard.Detector
	if *hbeat > 0 {
		det = guard.NewDetector(inj, guard.DetectorConfig{
			Self:     self,
			Peers:    sites,
			Interval: *hbeat,
			Metrics:  reg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "polynode[%s] detector: %s\n", self, fmt.Sprintf(format, args...))
			},
		})
		fabric = det
	}
	var plane cluster.DecisionPlane
	policy := cluster.PolicyPolyvalue
	switch *planeArg {
	case "", "wal":
		plane = cluster.PlaneWAL
	case "paxos":
		plane = cluster.PlanePaxos
	case "blocking2pc":
		plane = cluster.PlaneWAL
		policy = cluster.PolicyBlocking
	default:
		fatal("unknown -decision-plane %q (want wal, paxos, or blocking2pc)", *planeArg)
	}
	// The disk-fault plane sits under the WAL the same way the fault
	// injector sits under the wire: with no rules it forwards untouched.
	// It only exists with -data (there is no disk path without a WAL).
	var disk *fault.Disk
	if *dataDir != "" {
		disk = fault.NewDisk(storage.OSFS, fault.DiskConfig{
			Seed:    *diskSd,
			Metrics: reg,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "polynode[%s] %s\n", self, fmt.Sprintf(format, args...))
			},
		})
		if *diskFlts != "" {
			if err := disk.ApplyPlan(*diskFlts); err != nil {
				fatal("-disk-faults: %v", err)
			}
		}
	} else if *diskFlts != "" {
		fatal("-disk-faults needs -data (there is no WAL to inject against)")
	}
	cfg := cluster.Config{
		Sites:          sites,
		DecisionPlane:  plane,
		Policy:         policy,
		WaitTimeout:    *waitT,
		RetryInterval:  *retryT,
		AdmissionLimit: *admit,
		TxnDeadline:    *txnDl,
		MaxPolyBudget:  *polyBdg,
		MaxDepBudget:   *depBdg,
		Metrics:        reg,
		Placement:      placement,
		DataDir:        *dataDir,
		Spans:          spans,
		SyncWAL:        *fsync,
	}
	if disk != nil {
		cfg.DiskFS = disk
	}
	if *replicas > 0 {
		w := *wquorum
		if w == 0 {
			w = *replicas/2 + 1
		}
		r := *rquorum
		if r == 0 {
			r = *replicas + 1 - w
		}
		cfg.Replication = &cluster.ReplicationConfig{K: *replicas, W: w, R: r}
	}
	node, err := cluster.NewNode(cfg, self, fabric)
	if err != nil {
		fatal("%v", err)
	}

	ctl, err := net.Listen("tcp", *control)
	if err != nil {
		fatal("control listen %s: %v", *control, err)
	}
	srv := &server{self: self, node: node, inj: inj, disk: disk, spans: spans}
	if det, ok := fabric.(*guard.Detector); ok {
		srv.det = det
	}
	go srv.serve(ctl)
	var tel *telemetry.Server
	if *telAddr != "" {
		tel, err = telemetry.Serve(*telAddr, telemetry.Config{
			Registry: reg,
			Spans:    spans,
			Health:   srv.health,
		})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("polynode[%s] telemetry=http://%s\n", self, tel.Addr)
	}
	fmt.Printf("polynode[%s] transport=%s control=%s peers=%d\n",
		self, fab.Addr(), ctl.Addr(), len(peers)-1)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	ctl.Close()
	if tel != nil {
		tel.Close()
	}
	node.Close() // closes fab and the WAL
	if *stats {
		st := node.Stats()
		fmt.Printf("polynode[%s] cluster: committed=%d aborted=%d in_doubt=%d poly_installs=%d poly_reductions=%d\n",
			self, st.Committed, st.Aborted, st.InDoubt, st.PolyInstalls, st.PolyReductions)
		fmt.Printf("polynode[%s] %s\n", self, transportTotals(reg))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "polynode: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

// parsePeers parses "A=host:port,B=host:port" into a peer map.
func parsePeers(s string) (map[protocol.SiteID]string, error) {
	peers := map[protocol.SiteID]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want site=host:port)", part)
		}
		peers[protocol.SiteID(id)] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

// parsePlacement builds a placement override from "item=site,..." pins;
// nil (the cluster default, replica.Placement) when s is empty.  Pins
// name physical items, while under -replicas programs name logical
// ones, so the two flags are refused together here, at flag-parse time.
func parsePlacement(s string, peers map[protocol.SiteID]string, replicas int) (func(string) protocol.SiteID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	if replicas > 0 {
		return nil, fmt.Errorf("-place cannot be combined with -replicas: pins name physical items, replicated programs name logical ones")
	}
	pins := map[string]protocol.SiteID{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		item, site, ok := strings.Cut(part, "=")
		if !ok || item == "" || site == "" {
			return nil, fmt.Errorf("bad -place entry %q (want item=site)", part)
		}
		id := protocol.SiteID(site)
		if _, known := peers[id]; !known {
			return nil, fmt.Errorf("-place pins %q to unknown site %q", item, site)
		}
		pins[item] = id
	}
	// Unpinned items fall back to the cluster default over the sorted
	// membership, which every process computes alike.
	sites := make([]protocol.SiteID, 0, len(peers))
	for id := range peers {
		sites = append(sites, id)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	fallback := replica.Placement(sites)
	return func(item string) protocol.SiteID {
		if id, ok := pins[item]; ok {
			return id
		}
		return fallback(item)
	}, nil
}

// ---------------------------------------------------------------------
// Control server
// ---------------------------------------------------------------------

type server struct {
	self  protocol.SiteID
	node  *cluster.Cluster
	inj   *fault.Injector
	disk  *fault.Disk     // nil unless -data was given
	det   *guard.Detector // nil unless -heartbeat was given
	spans *trace.SpanLog  // nil unless -spans was given
}

// health feeds the /healthz app section; it also refreshes the trace
// occupancy gauges so every scrape sees current levels.
func (s *server) health() any {
	s.refreshTraceGauges()
	st := s.node.Stats()
	doc := map[string]any{
		"site":      string(s.self),
		"committed": st.Committed,
		"aborted":   st.Aborted,
		"in_doubt":  st.InDoubt,
	}
	if s.det != nil {
		suspects := s.det.Suspects()
		sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
		names := make([]string, len(suspects))
		for i, id := range suspects {
			names[i] = string(id)
		}
		doc["suspects"] = names
	}
	return doc
}

// refreshTraceGauges re-publishes the span-log occupancy gauges (an
// idempotent level refresh).
func (s *server) refreshTraceGauges() {
	if s.spans != nil {
		s.spans.Instrument(s.node.Metrics())
	}
}

func (s *server) serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.session(conn)
	}
}

// controlIdleTimeout bounds how long a control session may sit silent
// between lines; the deadline refreshes per command, so an interactive
// session stays up as long as it keeps talking.
const controlIdleTimeout = 5 * time.Minute

// controlMaxLine bounds one control command; a client exceeding it (or
// going silent past the idle timeout) has its session closed rather
// than holding memory or a goroutine hostage.
const controlMaxLine = 64 << 10

func (s *server) session(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), controlMaxLine)
	w := bufio.NewWriter(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(controlIdleTimeout))
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		for _, out := range s.execute(line) {
			fmt.Fprintln(w, out)
		}
		w.Flush()
	}
}

// execute runs one command; the last returned line starts "OK" or "ERR".
func (s *server) execute(line string) []string {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch strings.ToUpper(cmd) {
	case "PING":
		return []string{"OK pong " + string(s.self)}
	case "OWNER":
		if rest == "" {
			return []string{"ERR usage: OWNER <item>"}
		}
		return []string{"OK " + string(s.node.Placement(rest))}
	case "LOAD":
		item, num, ok := strings.Cut(rest, " ")
		if !ok {
			return []string{"ERR usage: LOAD <item> <int>"}
		}
		n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
		if err != nil {
			return []string{"ERR bad int: " + err.Error()}
		}
		// With -replicas this loads the replicas this process hosts (send
		// the same LOAD to every node); without, it is owner-only.
		if err := s.node.LoadReplicated(item, polyvalue.Simple(value.Int(n))); err != nil {
			return []string{"ERR " + err.Error()}
		}
		return []string{"OK loaded"}
	case "READ":
		if rest == "" {
			return []string{"ERR usage: READ <item>"}
		}
		if !s.node.Local(rest) {
			return []string{"ERR item " + rest + " is at remote site " + string(s.node.Placement(rest))}
		}
		return []string{"OK " + formatPoly(s.node.Read(rest))}
	case "POLY":
		items := s.node.PolyItems()
		return []string{fmt.Sprintf("OK %d %s", len(items), strings.Join(items, " "))}
	case "SUBMIT":
		if rest == "" {
			return []string{"ERR usage: SUBMIT <program>"}
		}
		h, err := s.node.Submit(s.self, rest)
		if err != nil {
			return []string{"ERR " + err.Error()}
		}
		st, done := h.Wait(15 * time.Second)
		if !done {
			return []string{"ERR timeout; transaction " + string(h.TID) + " still " + st.String()}
		}
		if st == cluster.StatusAborted {
			return []string{fmt.Sprintf("OK aborted %s reason=%q", h.TID, h.Reason())}
		}
		return []string{"OK committed " + string(h.TID)}
	case "ASYNC":
		if rest == "" {
			return []string{"ERR usage: ASYNC <program>"}
		}
		h, err := s.node.Submit(s.self, rest)
		if err != nil {
			return []string{"ERR " + err.Error()}
		}
		return []string{"OK submitted " + string(h.TID)}
	case "QUERY":
		if rest == "" {
			return []string{"ERR usage: QUERY <expr>"}
		}
		qh, err := s.node.Query(s.self, rest)
		if err != nil {
			return []string{"ERR " + err.Error()}
		}
		p, qerr, done := qh.Wait(15 * time.Second)
		if !done {
			return []string{"ERR query timeout"}
		}
		if qerr != nil {
			return []string{"ERR " + qerr.Error()}
		}
		return []string{"OK " + formatPoly(p)}
	case "ARMCRASH":
		point := cluster.CrashBeforeDecision
		if rest != "" {
			point = cluster.CrashPoint(rest)
		}
		if err := s.node.ArmCrash(s.self, point); err != nil {
			return []string{"ERR " + err.Error()}
		}
		return []string{"OK armed " + string(point)}
	case "CRASHPOINTS":
		var out []string
		for _, p := range cluster.CrashPoints() {
			out = append(out, "| "+string(p))
		}
		return append(out, "OK")
	case "FAULT":
		return planReply(s.inj.Apply, rest, "FAULT <cmd> (drop|dup|delay|corrupt|reset|partition|heal|seed|status|clear)")
	case "DISKFAULT":
		if s.disk == nil {
			return []string{"ERR disk-fault plane disabled (start with -data)"}
		}
		return planReply(s.disk.Apply, rest, "DISKFAULT <cmd> (fsync|torn|enospc|readflip|slow|seed|status|clear)")
	case "SPANS":
		if s.spans == nil {
			return []string{"ERR span tracing disabled (start with -spans N)"}
		}
		raw, err := json.Marshal(s.spans.Spans())
		if err != nil {
			return []string{"ERR " + err.Error()}
		}
		return []string{"| " + string(raw), "OK"}
	case "STATS":
		s.refreshTraceGauges()
		st := s.node.Stats()
		out := []string{
			fmt.Sprintf("| committed=%d aborted=%d in_doubt=%d poly_installs=%d poly_reductions=%d refused=%d",
				st.Committed, st.Aborted, st.InDoubt, st.PolyInstalls, st.PolyReductions, st.Refused),
		}
		if s.spans != nil {
			out = append(out, fmt.Sprintf("| trace: spans=%d span_dropped=%d", s.spans.Len(), s.spans.Dropped()))
		}
		if s.det != nil {
			suspects := s.det.Suspects()
			sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
			parts := make([]string, len(suspects))
			for i, id := range suspects {
				parts[i] = string(id)
			}
			out = append(out, fmt.Sprintf("| detector suspects=%d [%s]", len(suspects), strings.Join(parts, " ")))
		}
		out = append(out, "| "+transportTotals(s.node.Metrics()))
		return append(out, "OK")
	default:
		return []string{"ERR unknown command " + cmd}
	}
}

// planReply runs one FAULT or DISKFAULT command and frames the plane's
// reply: each line as "| line", then OK.
func planReply(apply func(string) (string, error), cmd, usage string) []string {
	if cmd == "" {
		return []string{"ERR usage: " + usage}
	}
	msg, err := apply(cmd)
	if err != nil {
		return []string{"ERR " + err.Error()}
	}
	var out []string
	for _, l := range strings.Split(strings.TrimRight(msg, "\n"), "\n") {
		out = append(out, "| "+l)
	}
	return append(out, "OK")
}

// transportTotals sums the fabric's registry series over peers, message
// types and reasons into one line.
func transportTotals(reg *metrics.Registry) string {
	snap := reg.Snapshot()
	return fmt.Sprintf("transport: sent=%d delivered=%d dropped=%d reconnects=%d conn_errors=%d queue_dropped=%d decode_errors=%d",
		snap.Total("network.sent"), snap.Total("network.delivered"), snap.Total("network.dropped"),
		snap.Total("transport.reconnects"), snap.Total("transport.conn.errors"),
		snap.Total("transport.queue.dropped"), snap.Total("transport.decode.errors"))
}

// formatPoly renders a value as "certain <v>" or "poly <p>".
func formatPoly(p polyvalue.Poly) string {
	if v, ok := p.IsCertain(); ok {
		return "certain " + v.String()
	}
	return "poly " + p.String()
}

// ---------------------------------------------------------------------
// Client mode
// ---------------------------------------------------------------------

// runClient sends one command and prints the response; exit status 0 on
// an OK-terminated response, 1 otherwise.
func runClient(addr, command string) int {
	if strings.TrimSpace(command) == "" {
		fmt.Fprintln(os.Stderr, "polynode -call: no command given")
		return 2
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "polynode -call: %v\n", err)
		return 1
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintln(conn, command)
	sc := bufio.NewScanner(conn)
	// Span dumps (SPANS) come back as one long JSON line; allow 8 MiB.
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if strings.HasPrefix(line, "OK") {
			return 0
		}
		if strings.HasPrefix(line, "ERR") {
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "polynode -call: connection closed without a terminator")
	return 1
}
