package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/value"
)

// An audit inspects a settled run and returns the violations it found.
type audit func(*run) []string

// scenario declares one wall-clock torture run.  RunChaos, RunDiskChaos
// and RunOverload each fill one in and hand it to runScenario; the
// fixture builds every site's stack from what is declared here, so a
// scenario may combine planes no exported entry point does.
type scenario struct {
	name    string // progress-line and temp-dir prefix: chaos, diskchaos, overload
	seed    int64
	sites   int           // clamped to [3, 5]
	items   int           // accounts it0..itN-1, round-robin over the sites, 100 each
	settle  time.Duration // bound on the quiescence wait; default 45s
	dataDir string        // "" = a harness-owned temp dir, removed unless the run fails
	spanCap int           // per-site span retention; 0 = 65536, negative = tracing off
	logf    func(format string, args ...any)
	// faultLogf receives one line per injected network or disk fault;
	// nil discards them (overload's background loss fires thousands).
	faultLogf func(format string, args ...any)

	// The load: txns guarded transfers of 1..maxAmt — or, when txns is 0,
	// as many as fit in loadFor — each followed by a seeded pause of
	// pace[0]+[0,pace[1]) milliseconds.
	txns    int
	loadFor time.Duration
	maxAmt  int
	pace    [2]int
	// killCycles hard kills are spread evenly over a txns-bounded load.
	// Each arms crashPoint on its victim (unset: a random point, half the
	// time), with strand also submits a transfer that the crash leaves in
	// doubt, and takes extraKills more sites down at the same instant.
	killCycles int
	crashPoint cluster.CrashPoint
	strand     bool
	extraKills int

	// net and disk are the network and disk plans, called before every
	// transfer with the step index.  A site runs over a fault.Injector
	// iff net is set, over a fault.Disk with SyncWAL (so injected
	// fsync failures have teeth) iff disk is set, and under a
	// guard.Detector iff heartbeat is set.
	net, disk func(r *run, step int) error
	heartbeat time.Duration
	// node adjusts a site's cluster.Config after the fixture filled it.
	node func(*cluster.Config)
	// quiet is an extra quiescence condition checked on every settle pass.
	quiet audit
	// audits run after the generic ones (so after teardown): they see the
	// registries, the tallies and the WAL sweep, not live sites.
	audits []audit
}

// ScenarioReport is the part of a report every wall-clock scenario
// fills.  Violations empty means every audit held.
type ScenarioReport struct {
	Seed  int64
	Sites int
	// Committed/Aborted/Pending tally the submitted transfers' handles.
	// A killed coordinator takes its clients' answers with it, so Pending
	// is not a failure: the server-side state is what the audits verify.
	Committed, Aborted, Pending int
	// Kills counts hard node kills (kill cycles × victims).
	Kills      int
	SettleTime time.Duration
	// Violations lists every failed assertion: quiescence, conservation,
	// invariant breaks, lost spans or incomplete timelines, goroutine
	// leaks, WAL non-idempotence, frontier-sweep failures, and whatever
	// the scenario adds.  Sorted.
	Violations []string
	// Totals is a per-series roll-up across sites of the counters under
	// rolledUp: faults injected (network and disk), frames rejected,
	// queue drops, resends, paxos traffic, durability panics, budget
	// flips, deadline expiries, detector transitions.
	Totals map[string]int64
	// Spans is the total number of structured spans collected.
	Spans int
	// BlockedItemSeconds sums item.blocked.seconds across sites, by
	// cause (lock, indoubt, degraded) — the paper's availability claim
	// in one number: polyvalue runs should show (near-)zero indoubt
	// blocking where budget-degraded runs pile it up.
	BlockedItemSeconds map[string]float64
	// FrontierFrames / FrontierTorn total the crash-recovery frontier
	// sweep over every site's final WAL: complete-frame prefixes and
	// torn-tail variants recovered with all invariants intact.
	FrontierFrames int
	FrontierTorn   int
}

func (r *ScenarioReport) status() string {
	if len(r.Violations) > 0 {
		return fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return "PASS"
}

// site is one member of the fixture.  reg, spans and disk outlive an
// incarnation — a restarted site keeps accumulating into the same
// series and span log, and the fault.Disk is the disk under the node, not
// part of it — so the audits see the whole history.  node is nil while
// the site is killed.
type site struct {
	id    protocol.SiteID
	ln    net.Listener // bound at bring-up, consumed by the first start
	reg   *metrics.Registry
	spans *trace.SpanLog
	disk  *fault.Disk
	node  *cluster.Cluster
	inj   *fault.Injector
}

// run is the wall-cluster fixture plus the state of one scenario on it.
type run struct {
	sc       *scenario
	rep      *ScenarioReport
	rng      *rand.Rand
	ids      []protocol.SiteID
	sites    map[protocol.SiteID]*site
	peers    map[protocol.SiteID]string
	dir      string
	ownDir   bool
	baseline int // goroutines before bring-up
	handles  []*cluster.Handle
	// committed holds the TIDs the tally saw commit, for the span audit.
	committed []string
	// counters sums the rolled-up counters by name over sites and labels.
	counters map[string]int64
	shed     int // submissions refused with ErrOverload
	rebuilds int // node rebuilds forced by durability panics
	netCmds  int // network-weather commands applied
	diskCmds int // disk-weather commands applied
	diskKind int // round-robin position of diskWeather
}

const initialBalance = 100

func itemName(i int) string { return "it" + strconv.Itoa(i) }

// transferText is the one workload every scenario runs: move amt from
// src to dst if src can cover it.  The guard makes conservation the
// invariant — committed or aborted, the sum over accounts never changes.
func transferText(src, dst string, amt int) string {
	return fmt.Sprintf("%s = %s - %d if %s >= %d; %s = %s + %d if %s >= %d",
		src, src, amt, src, amt, dst, dst, amt, src, amt)
}

func (r *run) logf(format string, args ...any) {
	if r.sc.logf != nil {
		r.sc.logf(r.sc.name+": "+format, args...)
	}
}

func (r *run) placement(item string) protocol.SiteID {
	n, _ := strconv.Atoi(strings.TrimPrefix(item, "it"))
	return r.ids[n%len(r.ids)]
}

func (r *run) pick() protocol.SiteID { return r.ids[r.rng.Intn(len(r.ids))] }

// bringUp builds the fixture: data dir, one loopback listener per site
// (so every site knows every address before any starts), the per-site
// state that outlives incarnations, the nodes, and the loaded accounts.
// On failure it has already torn down whatever it built.
func bringUp(sc scenario, rep *ScenarioReport) (*run, error) {
	sc.sites = min(max(sc.sites, 3), 5)
	if sc.settle <= 0 {
		sc.settle = 45 * time.Second
	}
	if sc.spanCap == 0 {
		sc.spanCap = 1 << 16
	}
	r := &run{
		sc: &sc, rep: rep, rng: rand.New(rand.NewSource(sc.seed)),
		sites: map[protocol.SiteID]*site{}, peers: map[protocol.SiteID]string{},
		dir: sc.dataDir, baseline: runtime.NumGoroutine(),
	}
	*rep = ScenarioReport{Seed: sc.seed, Sites: sc.sites,
		Totals: map[string]int64{}, BlockedItemSeconds: map[string]float64{}}
	if r.dir == "" {
		dir, err := os.MkdirTemp("", sc.name+"-*")
		if err != nil {
			return nil, err
		}
		r.dir, r.ownDir = dir, true
	}
	if err := r.boot(); err != nil {
		r.close()
		return nil, err
	}
	r.logf("seed=%d sites=%v items=%d txns=%d kills=%d dir=%s",
		sc.seed, r.ids, sc.items, sc.txns, sc.killCycles, r.dir)
	return r, nil
}

func (r *run) boot() error {
	sc := r.sc
	for i := 0; i < sc.sites; i++ {
		id := protocol.SiteID(string(rune('A' + i)))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		s := &site{id: id, ln: ln, reg: metrics.NewRegistry()}
		if sc.spanCap > 0 {
			s.spans = trace.NewSpanLogFor(string(id), sc.spanCap)
		}
		if sc.disk != nil {
			s.disk = fault.NewDisk(storage.OSFS, fault.DiskConfig{
				Seed: sc.seed ^ int64(sum(id)), Metrics: s.reg, Logf: sc.faultLogf,
			})
		}
		r.ids, r.sites[id], r.peers[id] = append(r.ids, id), s, ln.Addr().String()
	}
	for _, id := range r.ids {
		if err := r.start(id); err != nil {
			return err
		}
	}
	for i := 0; i < sc.items; i++ {
		item := itemName(i)
		if err := r.sites[r.placement(item)].node.Load(item, polyvalue.Simple(value.Int(initialBalance))); err != nil {
			return fmt.Errorf("load %s: %w", item, err)
		}
	}
	return nil
}

func sum(id protocol.SiteID) int {
	s := 0
	for _, r := range string(id) {
		s += int(r)
	}
	return s
}

// start boots one incarnation of a site: cluster over detector over
// injector over TCP, each wrapper present iff the scenario declares its
// plane.  The first start consumes the bring-up listener; later ones
// are restarts of a killed site — same WAL, same disk, and the same
// address rebound, retrying while the dead incarnation's socket tears
// down.  One registry spans the whole stack.
func (r *run) start(id protocol.SiteID) error {
	s, sc := r.sites[id], r.sc
	ln := s.ln
	s.ln = nil
	for tries := 0; ln == nil; tries++ {
		l, err := net.Listen("tcp", r.peers[id])
		switch {
		case err == nil:
			ln = l
		case tries == 100:
			return fmt.Errorf("rebind %s: %w", r.peers[id], err)
		default:
			time.Sleep(20 * time.Millisecond)
		}
	}
	var fab transport.Transport = transport.NewTCPWithListener(transport.TCPConfig{
		Self:       id,
		Peers:      r.peers,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 100 * time.Millisecond,
		Seed:       sc.seed + int64(len(id)),
		Metrics:    s.reg,
	}, ln)
	var inj *fault.Injector
	if sc.net != nil {
		inj = fault.Wrap(fab, fault.Config{
			Self: id, Seed: sc.seed ^ int64(sum(id)), Metrics: s.reg, Logf: sc.faultLogf,
		})
		fab = inj
	}
	if sc.heartbeat > 0 {
		fab = guard.NewDetector(fab, guard.DetectorConfig{
			Self: id, Peers: r.ids, Interval: sc.heartbeat, SuspectAfter: 5, Metrics: s.reg,
		})
	}
	cfg := cluster.Config{
		Sites:         r.ids,
		WaitTimeout:   100 * time.Millisecond,
		ReadyTimeout:  500 * time.Millisecond,
		RetryInterval: 100 * time.Millisecond,
		Placement:     r.placement,
		Metrics:       s.reg,
		DataDir:       r.dir,
		Spans:         s.spans,
	}
	if s.disk != nil {
		cfg.DiskFS, cfg.SyncWAL = s.disk, true
	}
	if sc.node != nil {
		sc.node(&cfg)
	}
	node, err := cluster.NewNode(cfg, id, fab)
	if err != nil {
		fab.Close() // the outermost wrapper closes the ones under it
		return fmt.Errorf("NewNode(%s): %w", id, err)
	}
	s.node, s.inj = node, inj
	return nil
}

// kill is kill -9: the incarnation and its whole transport stack go.
func (r *run) kill(id protocol.SiteID) {
	s := r.sites[id]
	s.node.Close()
	s.node, s.inj = nil, nil
}

func (r *run) killAll() {
	for _, s := range r.sites {
		if s.node != nil {
			r.kill(s.id)
		}
	}
}

// rebuild replaces a site's incarnation entirely: the node closes, its
// disk rules are cleared (a durability panic demands a disk the site
// can trust again — the model is fsck plus hardware replacement), and a
// fresh node recovers from the on-disk WAL bytes.  This is the ONLY way
// back for a durability-lost site: cluster.Restart is refused because
// that incarnation's memory may run ahead of its disk.
func (r *run) rebuild(id protocol.SiteID, why string) error {
	s := r.sites[id]
	if s.disk != nil {
		s.disk.Clear()
	}
	if s.node != nil {
		r.kill(id)
	}
	if err := r.start(id); err != nil {
		return err
	}
	r.rebuilds++
	r.logf("REBUILD %s (%s)", id, why)
	return nil
}

// close tears the fixture down on every return path.  A failed run
// keeps its data dir — WALs, quarantined *.wal.corrupt, span dumps and
// rendered timelines — and says where; anything else removes the dir
// if the harness made it.
func (r *run) close() {
	r.killAll()
	for _, s := range r.sites {
		if s.ln != nil {
			s.ln.Close()
		}
	}
	switch {
	case len(r.rep.Violations) > 0:
		r.dumpTraceArtifacts()
		r.logf("data dir kept at %s", r.dir)
	case r.ownDir:
		os.RemoveAll(r.dir)
	}
}

// runScenario is the one runner: bring-up, load, settle, audits,
// teardown.  A non-nil error means the run could not execute;
// protocol-level failures land in rep.Violations.
func runScenario(sc scenario, rep *ScenarioReport) (*run, error) {
	r, err := bringUp(sc, rep)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.load(); err != nil {
		return nil, err
	}
	rep.Violations = r.settle()
	rep.Committed, rep.Aborted, rep.Pending = tally(r.handles, func(i int) {
		r.committed = append(r.committed, string(r.handles[i].TID))
	})
	audits := []audit{(*run).auditConservation, (*run).rollUp, (*run).auditSpans,
		(*run).auditLeaks, (*run).auditRecovery, (*run).auditFrontier}
	for _, a := range append(audits, r.sc.audits...) {
		rep.Violations = append(rep.Violations, a(r)...)
	}
	sort.Strings(rep.Violations)
	return r, nil
}

// ----- load ---------------------------------------------------------------

func (r *run) load() error {
	sc := r.sc
	killAt := map[int]bool{}
	if sc.killCycles > 0 {
		stride := max(sc.txns/(sc.killCycles+1), 1)
		for k := 1; k <= sc.killCycles; k++ {
			killAt[k*stride] = true
		}
	}
	end := time.Now().Add(sc.loadFor)
	for i := 0; i < sc.txns || (sc.txns == 0 && time.Now().Before(end)); i++ {
		// A durability-panicked site cannot restart: rebuild it so the
		// schedule keeps running against a mostly-live cluster.  (Asking
		// costs a round trip through the site's queue, so only sites on
		// a disk that is made to fail are asked; settle asks everyone.)
		for _, id := range r.ids {
			if s := r.sites[id]; s.disk != nil && s.node != nil && s.node.DurabilityLost(id) {
				if err := r.rebuild(id, "durability panic"); err != nil {
					return err
				}
			}
		}
		for _, plan := range []func(*run, int) error{sc.net, sc.disk} {
			if plan != nil {
				if err := plan(r, i); err != nil {
					return err
				}
			}
		}
		if killAt[i] {
			if err := r.killCycle(i); err != nil {
				return err
			}
		}
		if err := r.transfer(); err != nil {
			return err
		}
		time.Sleep(time.Duration(sc.pace[0]+r.rng.Intn(sc.pace[1])) * time.Millisecond)
	}
	return nil
}

// transfer submits one guarded transfer between two random accounts via
// a random live coordinator.
func (r *run) transfer() error {
	sc := r.sc
	src, dst := itemName(r.rng.Intn(sc.items)), itemName(r.rng.Intn(sc.items))
	for dst == src {
		dst = itemName(r.rng.Intn(sc.items))
	}
	amt := 1 + r.rng.Intn(sc.maxAmt)
	coord := r.pick()
	if r.sites[coord].node == nil {
		return nil
	}
	return r.submit(coord, transferText(src, dst, amt))
}

func (r *run) submit(coord protocol.SiteID, txt string) error {
	h, err := r.sites[coord].node.Submit(coord, txt)
	switch {
	case errors.Is(err, cluster.ErrOverload):
		r.shed++
	case err != nil:
		return fmt.Errorf("submit via %s: %w", coord, err)
	default:
		r.handles = append(r.handles, h)
	}
	return nil
}

// netWeather is the network plan of the stepped scenarios: roughly every
// third step one site's injector gets a random fault-plan command,
// biased toward self-limiting faults (probabilistic rules the settle
// phase clears, partitions with scheduled heals).
func netWeather(r *run, step int) error {
	if r.rng.Float64() >= 0.35 {
		return nil
	}
	id := r.pick()
	s := r.sites[id]
	if s.node == nil {
		return nil
	}
	a, b := r.pick(), r.pick()
	for b == a {
		b = r.pick()
	}
	var cmd string
	switch r.rng.Intn(6) {
	case 0:
		cmd = fmt.Sprintf("drop to=%s p=%.2f", b, 0.05+0.25*r.rng.Float64())
	case 1:
		cmd = fmt.Sprintf("dup p=%.2f", 0.05+0.20*r.rng.Float64())
	case 2:
		cmd = fmt.Sprintf("delay p=%.2f min=5ms max=%dms", 0.10+0.30*r.rng.Float64(), 20+r.rng.Intn(60))
	case 3:
		cmd = fmt.Sprintf("corrupt to=%s p=%.2f", b, 0.05+0.15*r.rng.Float64())
	case 4:
		cmd = fmt.Sprintf("reset to=%s p=%.2f", b, 0.02+0.08*r.rng.Float64())
	default:
		oneway := ""
		if r.rng.Intn(2) == 0 {
			oneway = " oneway"
		}
		cmd = fmt.Sprintf("partition a=%s b=%s heal=%dms%s", a, b, 200+r.rng.Intn(800), oneway)
	}
	if _, err := s.inj.Apply(cmd); err != nil {
		return fmt.Errorf("fault %q: %w", cmd, err)
	}
	r.netCmds++
	r.logf("step %d: %s: FAULT %s", step, id, cmd)
	return nil
}

// diskWeather is the disk plan of the stepped scenarios: roughly every
// other step one site's disk misbehaves.  The kind cycles round-robin —
// every run of at least four weather steps injects a fsync failure, a
// torn write, an ENOSPC and a slow-disk window — while the seeded rng
// draws the parameters.  Failures are one-shot: a single fsync failure
// is already fatal to the incarnation (the FileLog error is sticky and
// the site durability-panics), so persistent-medium rules would only
// serialize the run behind rebuilds.
func diskWeather(r *run, step int) error {
	if r.rng.Float64() >= 0.5 {
		return nil
	}
	id := r.pick()
	cmd := [...]string{"fsync p=1 once", "torn p=1 once", "enospc p=1 once", ""}[r.diskKind%4]
	r.diskKind++
	if cmd == "" {
		cmd = fmt.Sprintf("slow p=%.2f min=1ms max=%dms", 0.2+0.3*r.rng.Float64(), 2+r.rng.Intn(8))
	}
	return r.diskFault(step, id, cmd)
}

func (r *run) diskFault(step int, id protocol.SiteID, cmd string) error {
	if _, err := r.sites[id].disk.Apply(cmd); err != nil {
		return fmt.Errorf("disk fault %q: %w", cmd, err)
	}
	r.diskCmds++
	r.logf("step %d: %s: DISK %s", step, id, cmd)
	return nil
}

// killCycle takes a victim through a crash point (the process dies
// mid-protocol) or not, then a hard kill, and restarts it over the same
// WAL.  With a disk plan the victim's disk rules are cleared first (the
// restart models a machine replacement) and, half the time, a one-shot
// read-path bit-flip is armed against the restart's recovery read: CRC
// must catch it and the re-read heal it.
func (r *run) killCycle(step int) error {
	sc := r.sc
	victim := r.pick()
	s := r.sites[victim]
	if s.node == nil {
		return nil
	}
	if s.disk != nil {
		s.disk.Clear()
	}
	point := sc.crashPoint
	if point == "" && r.rng.Intn(2) == 0 {
		pts := cluster.CrashPoints()
		point = pts[r.rng.Intn(len(pts))]
	}
	if point != "" {
		_ = s.node.ArmCrash(victim, point)
		r.logf("step %d: %s: armed crash point %s", step, victim, point)
	}
	if sc.crashPoint != "" && sc.strand {
		if err := r.strandTransfer(step, victim); err != nil {
			return err
		}
	}
	if s.disk != nil && r.rng.Intn(2) == 0 {
		if err := r.diskFault(step, victim, "readflip p=1 once"); err != nil {
			return err
		}
	}
	// extraKills widens the blast radius: additional distinct live sites
	// die at the same moment as the armed victim (F acceptors plus the
	// coordinator, in the paxos scenario).
	victims := []protocol.SiteID{victim}
	for tries := 0; len(victims) < 1+sc.extraKills && len(victims) < len(r.ids) && tries < 64; tries++ {
		cand := r.pick()
		dup := r.sites[cand].node == nil
		for _, v := range victims {
			dup = dup || v == cand
		}
		if !dup {
			victims = append(victims, cand)
		}
	}
	time.Sleep(time.Duration(50+r.rng.Intn(150)) * time.Millisecond)
	for _, v := range victims {
		r.logf("step %d: KILL %s", step, v)
		r.kill(v)
		r.rep.Kills++
	}
	time.Sleep(time.Duration(100+r.rng.Intn(200)) * time.Millisecond)
	for _, v := range victims {
		if err := r.start(v); err != nil {
			return err
		}
		r.logf("step %d: RESTART %s", step, v)
	}
	return nil
}

// strandTransfer submits a guarded transfer between two items owned by
// a single site other than victim, coordinated by victim itself.  With
// a crash point armed at the victim, the decision kills the coordinator
// and leaves that co-located participant in doubt holding both writes.
// Random weather rarely leaves a participant in the prepared-but-
// unresolved window; this makes every kill cycle do it.  A no-op when no
// other site owns two items.
func (r *run) strandTransfer(step int, victim protocol.SiteID) error {
	byOwner := map[protocol.SiteID][]string{}
	for i := 0; i < r.sc.items; i++ {
		owner := r.placement(itemName(i))
		byOwner[owner] = append(byOwner[owner], itemName(i))
	}
	for _, w := range r.ids {
		if items := byOwner[w]; w != victim && len(items) >= 2 {
			txt := transferText(items[0], items[1], 1+r.rng.Intn(5))
			r.logf("step %d: %s: strand transfer against %s: %s", step, victim, w, txt)
			return r.submit(victim, txt)
		}
	}
	return nil
}

// ----- settle -------------------------------------------------------------

// settle ends the weather — every fault rule cleared, every partition
// healed — and waits for quiescence, reviving sites as it goes.  It
// returns what still blocked quiescence at the deadline.
func (r *run) settle() []string {
	for _, s := range r.sites {
		if s.inj != nil {
			s.inj.Clear()
		}
		if s.disk != nil {
			s.disk.Clear()
		}
	}
	start := time.Now()
	issues := r.quiesce()
	for len(issues) > 0 && time.Since(start) < r.sc.settle {
		time.Sleep(200 * time.Millisecond)
		issues = r.quiesce()
	}
	r.rep.SettleTime = time.Since(start)
	// Fold still-open lock-hold intervals into the blocking accountant
	// before any item.blocked.seconds histogram is read.
	for _, s := range r.sites {
		if s.node != nil {
			s.node.SyncBlockedAccounting()
		}
	}
	return issues
}

// quiesce reports what still blocks quiescence — killed or crashed
// sites, whatever the settle audit finds at the running ones, the
// scenario's own condition — reviving crashed sites as a side
// effect: durability-lost incarnations rebuild from disk, ordinary
// crash-point casualties restart in place.
func (r *run) quiesce() []string {
	var issues []string
	for _, id := range r.ids {
		n := r.sites[id].node
		switch {
		case n == nil:
			issues = append(issues, fmt.Sprintf("site %s not running", id))
		case n.DurabilityLost(id):
			issues = append(issues, fmt.Sprintf("site %s durability-lost", id))
			if err := r.rebuild(id, "durability panic at settle"); err != nil {
				issues = append(issues, fmt.Sprintf("site %s: rebuild: %v", id, err))
			}
		case n.IsDown(id):
			n.Restart(id)
			issues = append(issues, fmt.Sprintf("site %s was down", id))
		default:
			issues = append(issues, settled(n, id)...)
		}
	}
	if r.sc.quiet != nil {
		issues = append(issues, r.sc.quiet(r)...)
	}
	return issues
}

// read returns an item's value at its owning site; false while that
// site is killed.
func (r *run) read(item string) (polyvalue.Poly, bool) {
	n := r.sites[r.placement(item)].node
	if n == nil {
		return polyvalue.Poly{}, false
	}
	return n.Read(item), true
}

// ----- generic audits -----------------------------------------------------

// settled is the settle audit, §3.3's promise once failures heal: no
// site holds an unreduced polyvalue, a dependency-table entry or an
// await entry, and c's invariants hold.  sites are the sites c runs.
func settled(c *cluster.Cluster, sites ...protocol.SiteID) []string {
	var out []string
	for _, id := range sites {
		st := c.Store(id)
		if polys := st.PolyItems(); len(polys) > 0 {
			out = append(out, fmt.Sprintf("site %s: unreduced polyvalues %v", id, polys))
		}
		if tids := st.DepTIDs(); len(tids) > 0 {
			out = append(out, fmt.Sprintf("site %s retains dependency entries %v", id, tids))
		}
		if aw := st.Awaits(); len(aw) > 0 {
			out = append(out, fmt.Sprintf("site %s retains await entries %v", id, aw))
		}
	}
	return append(out, c.CheckInvariants()...)
}

// conservation checks the bank invariant over items as read returns
// them: every value certain, an integer, and the sum equal to want.  It
// also returns the sum.
func conservation(items []string, read func(string) (polyvalue.Poly, bool), want int64) (int64, []string) {
	var out []string
	var total int64
	for _, item := range items {
		p, ok := read(item)
		if !ok {
			out = append(out, fmt.Sprintf("item %s: owning site not running at end", item))
			continue
		}
		v, certain := p.IsCertain()
		if !certain {
			out = append(out, fmt.Sprintf("item %s still uncertain at end: %v", item, p))
			continue
		}
		n, ok := value.AsInt(v)
		if !ok {
			out = append(out, fmt.Sprintf("item %s not an int: %v", item, v))
			continue
		}
		total += n
	}
	if total != want {
		out = append(out, fmt.Sprintf("conservation broken: total %d, want %d", total, want))
	}
	return total, out
}

func (r *run) auditConservation() []string {
	items := make([]string, r.sc.items)
	for i := range items {
		items[i] = itemName(i)
	}
	_, out := conservation(items, r.read, int64(initialBalance*len(items)))
	return out
}

// rolledUp names, by prefix, the counters the report totals over sites.
var rolledUp = []string{
	"transport.fault.", "transport.decode.", "transport.queue.", "transport.peer.",
	"network.dropped", "txn.decision.resends", "txn.outcome.retries", "paxos.",
	"storage.fault.", "storage.corrupt.", "site.durability.", "site.budget.",
	"txn.deadline.", "txn.degraded.",
}

// rollUp folds every site's registry into the report.  It cannot fail.
func (r *run) rollUp() []string {
	r.counters = map[string]int64{}
	for _, id := range r.ids {
		reg := r.sites[id].reg
		collectBlockedSeconds(r.rep.BlockedItemSeconds, reg)
		for _, pt := range reg.Snapshot().Points {
			if pt.Kind != metrics.KindCounter || pt.Value == 0 {
				continue
			}
			for _, prefix := range rolledUp {
				if strings.HasPrefix(pt.Name, prefix) {
					r.rep.Totals[pt.Key()] += pt.Value
					r.counters[pt.Name] += pt.Value
					break
				}
			}
		}
	}
	return nil
}

// auditLeaks closes every node and checks that everything they spawned
// winds down.
func (r *run) auditLeaks() []string {
	r.killAll()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > r.baseline+4 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > r.baseline+4 {
		return []string{fmt.Sprintf("goroutine leak: %d running, baseline %d", got, r.baseline)}
	}
	return nil
}

// eachWAL runs check over every site's final WAL bytes.
func (r *run) eachWAL(check func(data []byte) []string) []string {
	var out []string
	for _, id := range r.ids {
		data, err := os.ReadFile(filepath.Join(r.dir, string(id)+".wal"))
		if err != nil {
			out = append(out, fmt.Sprintf("site %s: read WAL: %v", id, err))
			continue
		}
		for _, v := range check(data) {
			out = append(out, fmt.Sprintf("site %s: %s", id, v))
		}
	}
	return out
}

// auditRecovery checks WAL recovery idempotence: recovering each site's
// log, and recovering the recovery's own log, must converge on the same
// state.
func (r *run) auditRecovery() []string {
	return r.eachWAL(func(data []byte) []string {
		s1, err := storage.Recover(data)
		if err != nil {
			return []string{fmt.Sprintf("WAL recovery: %v", err)}
		}
		s2, err := storage.Recover(s1.WALBytes())
		if err != nil {
			return []string{fmt.Sprintf("second-generation recovery: %v", err)}
		}
		if a, b := fmt.Sprint(s1.Items()), fmt.Sprint(s2.Items()); a != b {
			return []string{fmt.Sprintf("recovery not idempotent: %s vs %s", a, b)}
		}
		return nil
	})
}

// frontierBytes bounds the frontier sweep's input.  The sweep recovers
// from every frame boundary, so it is quadratic in frames: 8 KiB (about
// 280 frames, under a second) holds the whole WAL of every stepped
// scenario at full size (they end below 5 KiB per site); overload's
// ~100 KiB logs would take over a minute each, and are swept over their
// first 8 KiB — the sweep walks the well-formed prefix of what it gets.
const frontierBytes = 8 << 10

// auditFrontier runs the crash-recovery frontier sweep over every final
// WAL: recovery from every frame boundary and torn tail a power cut
// could have left behind.
func (r *run) auditFrontier() []string {
	return r.eachWAL(func(data []byte) []string {
		fr := storage.FrontierSweep(data[:min(len(data), frontierBytes)])
		r.rep.FrontierFrames += fr.Frames
		r.rep.FrontierTorn += fr.Torn
		return fr.Violations
	})
}
