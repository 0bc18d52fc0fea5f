package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/value"
)

// testbed is one in-process cluster: numSites nodes over loopback TCP,
// each its own cluster.NewNode, exactly as `polybench -mode inproc`
// boots them.  Message delay injected between nodes: none.
type testbed struct {
	w     workload
	names []protocol.SiteID
	nodes []*cluster.Cluster
	reg   *metrics.Registry
	rec   *recorder                       // nil on untraced runs
	disks map[protocol.SiteID]*fsRecorder // durable traced runs only
	// restarts[k] counts the times site k was restarted after a crash
	// (bumped just before the restart), so a client can tell that the
	// coordinator it is waiting on has lost its memory of the request.
	restarts [numSites]atomic.Int64
	// cursor is the pool index the next phase (warm-up or window) starts
	// from: phases walk on through the pool instead of replaying its
	// head, so a later window's crash does not land on the transfer — and
	// the accounts the chaser drained — of an earlier one.
	cursor int
}

func siteNames() []protocol.SiteID {
	out := make([]protocol.SiteID, numSites)
	for i := range out {
		out[i] = protocol.SiteID(fmt.Sprintf("s%d", i))
	}
	return out
}

// boot listens, builds the nodes and loads every account.  rec, when
// set, interposes the tracing wrappers; otherwise each node gets its
// bare *transport.TCP and (durable) a sync filesystem with no recorder.
func boot(w workload, o runOpts, rec *recorder) (*testbed, error) {
	tb := &testbed{w: w, names: siteNames(), reg: metrics.NewRegistry(), rec: rec,
		disks: map[protocol.SiteID]*fsRecorder{}}
	lns := make([]net.Listener, numSites)
	peers := map[protocol.SiteID]string{}
	closeListeners := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i, id := range tb.names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners()
			return nil, err
		}
		lns[i] = ln
		peers[id] = ln.Addr().String()
	}
	mem := newMemFS()
	for i, id := range tb.names {
		tcp := transport.NewTCPWithListener(transport.TCPConfig{Self: id, Peers: peers, Metrics: tb.reg}, lns[i])
		lns[i] = nil // owned by the transport from here on
		var fab transport.Transport = tcp
		if rec != nil {
			fab = newTracedTransport(tcp, rec)
		}
		cfg := cluster.Config{Sites: tb.names, Metrics: tb.reg, Policy: o.policy}
		if w.outage {
			cfg.Placement = outagePlacement
		}
		if w.durable {
			disk := &syncFS{inner: mem, delay: syncDelay}
			if rec != nil {
				disk.rec = &fsRecorder{armed: &rec.armed}
				tb.disks[id] = disk.rec
			}
			cfg.DataDir, cfg.SyncWAL, cfg.Lanes, cfg.DiskFS = "wal", true, 4, disk
		}
		node, err := cluster.NewNode(cfg, id, fab)
		if err != nil {
			fab.Close()
			closeListeners()
			tb.close()
			return nil, err
		}
		tb.nodes = append(tb.nodes, node)
	}
	if err := tb.load(); err != nil {
		tb.close()
		return nil, err
	}
	return tb, nil
}

// outagePlacement keeps every account off s0, so the site that crashes
// is a pure coordinator and the in-doubt items all live on survivors.
func outagePlacement(item string) protocol.SiteID {
	if fnv32(item)%2 == 0 {
		return "s1"
	}
	return "s2"
}

func (tb *testbed) close() {
	for _, n := range tb.nodes {
		n.Close()
	}
	tb.nodes = nil
}

// load installs every account at its owner, the sites in parallel (a
// durable site pays one sync per Load, and the three logs are
// independent).
func (tb *testbed) load() error {
	errs := make([]error, len(tb.nodes))
	var wg sync.WaitGroup
	for i, node := range tb.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < numAccounts; a++ {
				item := accountName(a)
				if !node.Local(item) {
					continue
				}
				if err := node.Load(item, polyvalue.Simple(value.Int(startMoney))); err != nil {
					errs[i] = fmt.Errorf("load %s at %s: %w", item, node.Self(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// quiet reports whether no site has protocol state in flight, and
// renders every site's SiteInfo for the failure message.
func (tb *testbed) quiet() (bool, string) {
	ok := true
	var states []string
	for _, n := range tb.nodes {
		info, err := n.SiteInfo(n.Self())
		if err != nil {
			return false, err.Error()
		}
		if info.Down || info.PolyItems != 0 || info.Prepared != 0 || info.Locks != 0 || info.Awaits != 0 {
			ok = false
		}
		states = append(states, fmt.Sprintf("%s{down=%v items=%d poly=%d prepared=%d locks=%d awaits=%d wal=%dB}",
			info.ID, info.Down, info.Items, info.PolyItems, info.Prepared, info.Locks, info.Awaits, info.WALBytes))
	}
	return ok, strings.Join(states, " ")
}

// settle waits (at most settleLimit) for every site to go quiet.
func (tb *testbed) settle() error {
	deadline := time.Now().Add(settleLimit)
	for {
		ok, states := tb.quiet()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not settle within %v: %s", settleLimit, states)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// audit is the correctness gate: once the cluster has settled, every
// account must be certain and money conserved.  The balances are read
// one by one, so the reading is only a consistent cut if nothing
// committed meanwhile — a straggler whose client gave up waiting can
// still be crossing the network with every site looking quiet.  The
// audit therefore repeats (settling again first) until the cluster was
// quiet before and after it and decided nothing during it.
func (tb *testbed) audit() error {
	decided := func() int64 {
		return tb.reg.Counter("txn.committed").Value() + tb.reg.Counter("txn.aborted").Value()
	}
	for attempt := 0; attempt < 5; attempt++ {
		if err := tb.settle(); err != nil {
			return err
		}
		before := decided()
		err := tb.readBalances()
		if quiet, _ := tb.quiet(); quiet && decided() == before {
			return err
		}
	}
	_, states := tb.quiet()
	return fmt.Errorf("audit: transactions kept deciding while the balances were read, five times over; sites: %s", states)
}

func (tb *testbed) readBalances() error {
	var total int64
	for a := 0; a < numAccounts; a++ {
		item := accountName(a)
		var owner *cluster.Cluster
		for _, n := range tb.nodes {
			if n.Local(item) {
				owner = n
			}
		}
		if owner == nil {
			return fmt.Errorf("audit: %s has no owning node", item)
		}
		p := owner.Read(item)
		v, certain := p.IsCertain()
		if !certain {
			_, states := tb.quiet()
			return fmt.Errorf("audit: %s still uncertain after settle: %v; sites: %s", item, p, states)
		}
		n, _ := value.AsInt(v)
		total += n
	}
	if want := int64(numAccounts * startMoney); total != want {
		_, states := tb.quiet()
		return fmt.Errorf("audit: conservation violated: total=%d want=%d; sites: %s", total, want, states)
	}
	return nil
}

// ---------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------

// tally is what one client (or the whole open loop) saw.
type tally struct {
	attempted, committed int
	firstTry             int     // committed without a resubmission
	latNS                []int64 // committed transactions only
	submitNS             []int64 // SubmitProgram call durations (traced runs only)
	lateNS               []int64 // open loop: pickup − due, every request
	dropped              int     // open loop: requests the full queue refused
	retries              int     // resubmissions after a definite abort
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.committed += o.committed
	t.firstTry += o.firstTry
	t.latNS = append(t.latNS, o.latNS...)
	t.submitNS = append(t.submitNS, o.submitNS...)
	t.lateNS = append(t.lateNS, o.lateNS...)
	t.dropped += o.dropped
	t.retries += o.retries
}

// submit runs one transfer to its client-visible end and accounts for
// it.  k is the coordinator's index; start is when the latency clock
// began: the submit call for a closed loop, the due time for an open
// loop.  The client is an at-least-once client: a definite abort (a
// refusal, a timeout the coordinator declared, a coordinator that was
// down or overloaded) is resubmitted after a doubling back-off, at a
// live coordinator, until retryFor has passed since the first abort; the
// latency of the transfer runs from start to the commit it finally got.
// Only a transfer that got no answer within o.wait, or none but aborts
// within retryFor, counts as failed.
func (tb *testbed) submit(t *tally, k int, prog expr.Program, start int64, o runOpts) bool {
	t.attempted++
	rec := tb.rec
	recording := rec != nil && rec.armed.Load()
	tryStart, firstAbort := start, int64(0)
	for backoff := retryFirst; ; backoff = min(2*backoff, retryMax) {
		coord := tb.nodes[k]
		epoch := tb.restarts[k].Load()
		var t0, t1 int64
		if recording {
			t0 = nowNS()
		}
		h, err := coord.SubmitProgram(coord.Self(), prog)
		st := cluster.StatusAborted // a refused submission is an abort the client saw at once
		if err == nil {
			if recording {
				t1 = nowNS()
				t.submitNS = append(t.submitNS, t1-t0)
			}
			st = tb.await(h, k, epoch, o.wait)
		}
		end := nowNS()
		if recording && err == nil && sampled(h.TID) {
			rec.client(clientEvent{tid: h.TID, coord: coord.Self(), start: tryStart, submitEnd: t1, done: end, committed: st == cluster.StatusCommitted})
		}
		switch {
		case st == cluster.StatusCommitted:
			t.committed++
			if firstAbort == 0 {
				t.firstTry++
			}
			t.latNS = append(t.latNS, end-start)
			return true
		case st == cluster.StatusPending:
			return false
		case firstAbort == 0:
			firstAbort = end
		case time.Duration(end-firstAbort) >= retryFor:
			return false
		}
		t.retries++
		time.Sleep(backoff)
		for n := 0; n < numSites && tb.nodes[k].IsDown(tb.names[k]); n++ {
			k = (k + 1) % numSites
		}
		tryStart = nowNS()
	}
}

// await waits for the coordinator's answer.  A coordinator that crashes
// leaves its handles pending for ever, so the client does what the
// protocol's participants do: once the coordinator is back it asks for
// the outcome, and under presumed abort a restarted coordinator with no
// record of the transaction can only ever answer abort.  Pending is
// returned when o.wait passes with no answer at all.
func (tb *testbed) await(h *cluster.Handle, k int, epoch int64, wait time.Duration) cluster.Status {
	coord, id := tb.nodes[k], tb.names[k]
	deadline := time.Now().Add(wait)
	for {
		if st, done := h.Wait(inquireEvery); done {
			return st
		}
		if tb.restarts[k].Load() != epoch && !coord.IsDown(id) {
			if committed, known := coord.Store(id).Outcome(h.TID); known && committed {
				return cluster.StatusCommitted
			}
			return cluster.StatusAborted
		}
		if time.Now().After(deadline) {
			return cluster.StatusPending
		}
	}
}

// closedLoop runs w.clients clients, each submitting its next transfer
// only after the previous one returned, until stop says so.  Client c
// takes pool entries cursor+c, cursor+c+clients, …; entry i is
// coordinated by site i mod numSites (round-robin).
func (tb *testbed) closedLoop(pool *transferPool, o runOpts, stop func(done int64) bool) *tally {
	var issued atomic.Int64
	tallies := make([]tally, tb.w.clients)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[c]
			for i := tb.cursor + c; !stop(issued.Add(1) - 1); i += tb.w.clients {
				tb.submit(t, i%numSites, pool.prog[i%poolSize], nowNS(), o)
			}
		}()
	}
	wg.Wait()
	tb.cursor += int(issued.Load())
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

// Open-loop sizing: enough workers that requests hung on a crashed
// coordinator for the full client wait never starve the schedule, and a
// queue that holds over a second of backlog before refusing.
const (
	openWorkers = 256
	openQueue   = 4096
)

// openLoop issues n requests on a fixed schedule — request i is due at
// start + i/rate — regardless of how the system keeps up.  A dispatcher
// releases each request at its due time into a bounded queue; workers
// pick requests up and call fn with the due time and the pickup time,
// so the caller can time latency from when the request was due and
// account for how late it started.  A request that finds the queue full
// is dropped and counted.  Returns after every picked-up request's fn
// has returned.
func openLoop(start time.Time, rate, n, workers, queue int, fn func(worker, i int, due, picked time.Time)) (dropped int) {
	ch := make(chan int, queue)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(w, i, dueTime(start, rate, i), time.Now())
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := time.Until(dueTime(start, rate, i)); d > 0 {
			time.Sleep(d)
		}
		select {
		case ch <- i:
		default:
			dropped++
		}
	}
	close(ch)
	wg.Wait()
	return dropped
}

func dueTime(start time.Time, rate, i int) time.Time {
	return start.Add(time.Duration(int64(i) * int64(time.Second) / int64(rate)))
}

// outageState is shared between the open-loop clients, the crash
// controller and the chaser during one outage window.
type outageState struct {
	down      atomic.Bool  // s0 is crashed: clients route around it
	crashedAt atomic.Int64 // nowNS of the crash, for the chaser's start
}

// liveCoordinator picks request i's coordinator round-robin, skipping
// s0 while it is down.
func liveCoordinator(i int, st *outageState) int {
	k := i % numSites
	if k == 0 && st != nil && st.down.Load() {
		k = 1 + (i/numSites)%(numSites-1)
	}
	return k
}

func (tb *testbed) openLoopRun(pool *transferPool, o runOpts, n int, st *outageState) *tally {
	tallies := make([]tally, openWorkers)
	start, base := time.Now(), tb.cursor
	dropped := openLoop(start, tb.w.rate, n, openWorkers, openQueue, func(w, i int, due, picked time.Time) {
		t := &tallies[w]
		t.lateNS = append(t.lateNS, int64(picked.Sub(due)))
		tb.submit(t, liveCoordinator(i, st), pool.prog[(base+i)%poolSize], int64(due.Sub(processStart)), o)
	})
	tb.cursor += n
	total := &tally{dropped: dropped, attempted: dropped}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

// warm runs the workload's own traffic shape for a fixed count of
// transactions, so that work moved into set-up shows up in setup_s.
func (tb *testbed) warm(pool *transferPool, o runOpts) {
	n := int64(tb.w.warmup)
	if tb.w.rate > 0 {
		tb.openLoopRun(pool, o, int(n), nil)
		return
	}
	tb.closedLoop(pool, o, func(done int64) bool { return done >= n })
}

// ---------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------

// windowResult is one measured window, before any per-layer analysis.
type windowResult struct {
	planned time.Duration // the window asked for
	// seconds is the window as it ran, to the last answer: a closed loop
	// finishes the transfers in flight when the time is up, an open loop
	// those still unanswered after its last due time.
	seconds float64
	main    *tally // the workload's own clients
	chaser  *tally // outage workloads: transfers out of in-doubt accounts
	outage  outageLog
	// polys are polyvalues read off the surviving sites while the chaser
	// ran (traced runs only): the inputs of the polyvalue kernels.
	polys []polyvalue.Poly
}

// outageLog is what the crash controller observed.
type outageLog struct {
	cycles       int
	installs     []int64   // polyvalue installs per cycle (registry poly.installs delta)
	indoubtMS    []float64 // crash → first polyvalue visible
	resolveMS    []float64 // Restart → no polyvalue left
	peakItems    int
	neverCrashed int // cycles whose armed crash point never fired
}

func (tb *testbed) measure(pool *transferPool, o runOpts) *windowResult {
	res := &windowResult{planned: o.window}
	t0 := time.Now()
	if tb.w.outage {
		st := &outageState{}
		stop := make(chan struct{})
		var side sync.WaitGroup
		side.Add(2)
		go func() { defer side.Done(); res.outage = tb.crashController(o, t0, st) }()
		go func() { defer side.Done(); res.chaser, res.polys = tb.chaser(o, st, stop) }()
		n := int(o.window.Seconds() * float64(tb.w.rate))
		res.main = tb.openLoopRun(pool, o, n, st)
		res.seconds = time.Since(t0).Seconds()
		close(stop)
		side.Wait()
		return res
	}
	end := t0.Add(o.window)
	res.main = tb.closedLoop(pool, o, func(int64) bool { return !time.Now().Before(end) })
	res.seconds = time.Since(t0).Seconds()
	return res
}

// polyCount is the number of polyvalued items on the surviving sites
// (an atomic read per store, cheap enough to poll every millisecond).
func (tb *testbed) polyCount() int {
	n := 0
	for _, node := range tb.nodes[1:] {
		n += node.Store(node.Self()).PolyCount()
	}
	return n
}

// crashController runs the window's crash plan against s0: arm the
// crash point, wait for the next commit through s0 to trip it, keep the
// site down for plan.down, restart it, and watch the polyvalue
// population throughout.
func (tb *testbed) crashController(o runOpts, start time.Time, st *outageState) outageLog {
	var log outageLog
	s0 := tb.nodes[0]
	id := s0.Self()
	installs := tb.reg.Counter("poly.installs")
	tick := func() {
		if n := tb.polyCount(); n > log.peakItems {
			log.peakItems = n
		}
		time.Sleep(time.Millisecond)
	}
	end := start.Add(o.window)
	var restartAt time.Time // zero once the last outage's polyvalues are gone
	resolved := func() {
		if !restartAt.IsZero() && tb.polyCount() == 0 {
			log.resolveMS = append(log.resolveMS, ms(time.Since(restartAt)))
			restartAt = time.Time{}
		}
	}
	for k := 0; k < o.crash.cycles(o.window); k++ {
		at := start.Add(o.crash.first + time.Duration(k)*o.crash.every)
		for time.Now().Before(at) {
			resolved()
			tick()
		}
		before := installs.Value()
		if err := s0.ArmCrash(id, crashPoints[k%len(crashPoints)]); err != nil {
			panic(err) // the points are constants of this file
		}
		armed := time.Now()
		for !s0.IsDown(id) && time.Since(armed) < o.crash.every/2 {
			time.Sleep(200 * time.Microsecond)
		}
		if !s0.IsDown(id) {
			log.neverCrashed++
			continue
		}
		crashed := time.Now()
		st.crashedAt.Store(nowNS())
		st.down.Store(true)
		log.cycles++
		seen := false
		for time.Since(crashed) < o.crash.down {
			if !seen && tb.polyCount() > 0 {
				seen = true
				log.indoubtMS = append(log.indoubtMS, ms(time.Since(crashed)))
			}
			tick()
		}
		tb.restarts[0].Add(1)
		s0.Restart(id)
		st.down.Store(false)
		restartAt = time.Now()
		log.installs = append(log.installs, installs.Value()-before)
	}
	for time.Now().Before(end) {
		resolved()
		tick()
	}
	if s0.IsDown(id) {
		// A crash point that fired after its cycle was written off: do
		// not leave the site down for the settle to trip over (the
		// missing cycle already fails the gate).
		tb.restarts[0].Add(1)
		s0.Restart(id)
		st.down.Store(false)
	}
	return log
}

// chaser is the polytransaction client: from chaseAfter into an outage
// until the restart it repeatedly transfers a small amount OUT of an
// account the crash left in doubt — polyvalued, or still prepared under
// the dead coordinator — into a random account, closed loop,
// coordinated by a surviving site.  Under the polyvalue policy these
// commit as polytransactions at the first try; under blocking 2PC the
// account stays locked and they are refused until the coordinator is
// back, which is the difference the workload exists to see and what
// polytxn.ok_ratio (committed at the first try / attempted) reports.
func (tb *testbed) chaser(o runOpts, st *outageState, stop <-chan struct{}) (*tally, []polyvalue.Poly) {
	t := &tally{}
	var polys []polyvalue.Poly
	rng := rand.New(rand.NewSource(o.seed ^ 0x63686173)) // "chas"
	var targets []string
	var refreshed time.Time
	for n := 0; ; n++ {
		select {
		case <-stop:
			return t, polys
		default:
		}
		if !st.down.Load() || nowNS()-st.crashedAt.Load() < int64(chaseAfter) {
			targets = nil
			time.Sleep(time.Millisecond)
			continue
		}
		if since := time.Since(refreshed); since > 100*time.Millisecond || (len(targets) == 0 && since > 10*time.Millisecond) {
			targets = tb.inDoubtItems()
			refreshed = time.Now()
		}
		if len(targets) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		// Round-robin, not random: a participant frees a transfer's
		// locks only after the client has its answer, so coming
		// straight back to the same account would conflict with the
		// chaser's own previous transfer.
		from := targets[n%len(targets)]
		to := accountName(rng.Intn(numAccounts))
		if to == from {
			continue
		}
		if tb.rec != nil && len(polys) < capturePolys {
			for _, node := range tb.nodes[1:] {
				if p := node.Read(from); p.NumPairs() > 1 {
					polys = append(polys, p)
				}
			}
		}
		prog, err := expr.Parse(transferSource(from, to, 1+rng.Intn(20)))
		if err != nil {
			panic(err) // generated by transferSource
		}
		tb.submit(t, 1+n%(numSites-1), prog, nowNS(), o)
	}
}

// inDoubtItems lists the accounts the current outage left in doubt on
// the surviving sites: every polyvalued item, plus every item written
// by a transaction still prepared under coordinator s0.
func (tb *testbed) inDoubtItems() []string {
	seen := map[string]bool{}
	s0 := string(tb.names[0])
	for _, node := range tb.nodes[1:] {
		store := node.Store(node.Self())
		for _, item := range store.PolyItems() {
			seen[item] = true
		}
		for _, p := range store.PreparedTxns() {
			if p.Coordinator != s0 {
				continue
			}
			for item := range p.Writes {
				seen[item] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for item := range seen {
		out = append(out, item)
	}
	sort.Strings(out)
	return out
}
