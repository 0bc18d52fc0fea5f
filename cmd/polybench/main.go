// Command polybench is a seeded closed-loop load client for a running
// polynode cluster.  It speaks only control-port verbs (LOAD, SUBMIT,
// POLY, QUERY), so whatever the nodes were started with — decision
// plane, replication, durability, admission, batching — is what
// gets measured, and polybench names none of it:
//
//	polybench -control 127.0.0.1:8001,127.0.0.1:8002,127.0.0.1:8003 \
//	    -workers 16 -txns 20000 -seed 7
//
// (make bench-procs NODE_FLAGS=… BENCH_FLAGS=… boots the nodes, runs
// this and tears them down.)  A run loads the workload's initial state,
// drives -txns transactions through -workers connections (the programs
// are a pure function of -workload, -items and -seed), waits for the
// cluster to quiesce and audits it.  It prints a human summary and one
// JSON line, records nothing, and exits non-zero when the audit fails.
// Regressions are judged by the fixed benchmark in benchmark/, not here.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/value"
	"repro/internal/workload"
)

type options struct {
	control, kind        string
	workers, txns, items int
	seed                 int64
	waitTxn, settle      time.Duration
	verbose              bool
}

func main() {
	var opt options
	flag.StringVar(&opt.control, "control", "", "comma-separated control-port addresses of the running polynode cluster (required)")
	flag.IntVar(&opt.workers, "workers", 16, "concurrent closed-loop connections; worker w submits through node w mod N")
	flag.IntVar(&opt.txns, "txns", 2000, "total transactions to run")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed (same seed, same programs)")
	flag.StringVar(&opt.kind, "workload", "bank", "workload kind: bank, reservations, inventory")
	flag.IntVar(&opt.items, "items", 64, "distinct items (accounts/flights/SKUs)")
	flag.DurationVar(&opt.waitTxn, "txn-timeout", 20*time.Second, "per-transaction client wait bound (the node gives up after 15s)")
	flag.DurationVar(&opt.settle, "settle", 15*time.Second, "post-run bound for the cluster to quiesce and pass the audit")
	flag.BoolVar(&opt.verbose, "v", false, "log progress to stderr")
	flag.Parse()
	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "polybench: %v\n", err)
		os.Exit(1)
	}
}

// result is the JSON line; latencies cover decided transactions only.
type result struct {
	Workload  string  `json:"workload"`
	Workers   int     `json:"workers"`
	Txns      int     `json:"txns"`
	Seed      int64   `json:"seed"`
	Committed int     `json:"committed"`
	Aborted   int     `json:"aborted"`
	Timeouts  int     `json:"timeouts"`
	Shed      int     `json:"shed"`
	Seconds   float64 `json:"seconds"`
	CommitTPS float64 `json:"commit_tps"`
	P50       float64 `json:"p50_ms"`
	P90       float64 `json:"p90_ms"`
	P99       float64 `json:"p99_ms"`
	Mean      float64 `json:"mean_ms"`
	Audit     string  `json:"audit"` // "ok" or the failure
}

func run(opt options, out io.Writer) error {
	if opt.control == "" || opt.workers < 1 || opt.txns < 1 {
		return fmt.Errorf("need -control (the control addresses of a running polynode cluster), -workers >= 1 and -txns >= 1")
	}
	addrs := strings.Split(opt.control, ",")
	kind, ok := map[string]workload.Kind{"bank": workload.Bank, "reservations": workload.Reservations, "inventory": workload.Inventory}[opt.kind]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want bank, reservations or inventory)", opt.kind)
	}
	gen, err := workload.New(workload.Config{Kind: kind, Items: opt.items, Seed: opt.seed})
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		if opt.verbose {
			fmt.Fprintf(os.Stderr, "polybench: "+format+"\n", args...)
		}
	}

	// One admin session per node for loading, settling and the audit.
	admin, err := dialAll(addrs, len(addrs))
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range admin {
			c.conn.Close()
		}
	}()
	initial := map[string]int64{}
	for item, p := range gen.InitialState() {
		v, _ := p.IsCertain()
		initial[item], _ = value.AsInt(v)
	}
	if err := load(admin, initial); err != nil {
		return err
	}
	logf("loaded %d items on %d nodes", len(initial), len(admin))

	// Pre-generate every program: the Generator is not thread-safe, and
	// a fixed list makes the run a pure function of the flags.
	progs := make([]string, opt.txns)
	for i := range progs {
		progs[i] = gen.Next()
	}
	workers, err := dialAll(addrs, opt.workers)
	if err != nil {
		return err
	}
	tallies := make([]tally, opt.workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[w] = drive(workers[w], progs, &next, opt.waitTxn)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// A participant can briefly hold a decided-but-unapplied update (or a
	// polyvalue) after the client has its answer, and the audit's reads
	// are not one snapshot: retry it until it passes or -settle expires.
	var auditErr error
	for deadline := time.Now().Add(opt.settle); ; time.Sleep(50 * time.Millisecond) {
		if auditErr = audit(admin, initial, kind == workload.Bank); auditErr == nil || time.Now().After(deadline) {
			break
		}
	}
	logf("settled %v after the load phase", time.Since(start)-elapsed)

	res := summarize(tallies, elapsed)
	res.Workload, res.Workers, res.Txns, res.Seed = opt.kind, opt.workers, opt.txns, opt.seed
	res.Timeouts = opt.txns - res.Committed - res.Aborted
	res.Audit = "ok"
	if auditErr != nil {
		res.Audit = auditErr.Error()
	}
	fmt.Fprintf(out, "%s × %d nodes × %d workers: %d txns in %.2fs — %.0f commits/s (%d committed, %d aborted, %d timeouts, %d shed)\n",
		res.Workload, len(addrs), res.Workers, res.Txns, res.Seconds, res.CommitTPS, res.Committed, res.Aborted, res.Timeouts, res.Shed)
	fmt.Fprintf(out, "  latency ms: p50=%.2f p90=%.2f p99=%.2f mean=%.2f\n", res.P50, res.P90, res.P99, res.Mean)
	fmt.Fprintf(out, "  audit: %s\n", res.Audit)
	if err := json.NewEncoder(out).Encode(res); err != nil {
		return err
	}
	if auditErr != nil {
		return fmt.Errorf("audit failed: %w", auditErr)
	}
	return nil
}

type client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
}

// dialAll opens n sessions, the i-th to node i mod N.
func dialAll(addrs []string, n int) ([]*client, error) {
	cs := make([]*client, n)
	for i := range cs {
		addr := strings.TrimSpace(addrs[i%len(addrs)])
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		cs[i] = &client{addr: addr, conn: conn, r: bufio.NewReader(conn)}
	}
	return cs, nil
}

// call sends one command and returns the line that ends its response
// ("OK …" or "ERR …"), skipping "| " continuation lines.  After an
// error the session is out of step and must not be reused.
func (c *client) call(cmd string, timeout time.Duration) (string, error) {
	c.conn.SetDeadline(time.Now().Add(timeout))
	fmt.Fprintln(c.conn, cmd) // a failed write fails the read below
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			verb, _, _ := strings.Cut(cmd, " ")
			return "", fmt.Errorf("node %s: %s: %w", c.addr, verb, err)
		}
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			return line, nil
		}
	}
}

// load sends every LOAD to every node.  A replicated cluster installs
// the replicas each node hosts; an unreplicated one accepts an item at
// its owner only, so there each item must be accepted exactly once and
// the only refusal tolerated is the non-owners' "placed at remote site".
func load(admin []*client, initial map[string]int64) error {
	for item, v := range initial {
		accepted := 0
		for _, c := range admin {
			reply, err := c.call(fmt.Sprintf("LOAD %s %d", item, v), ctlTimeout)
			switch {
			case err != nil:
				return err
			case strings.HasPrefix(reply, "OK"):
				accepted++
			case !strings.Contains(reply, "remote site"):
				return fmt.Errorf("node %s: LOAD %s: %s", c.addr, item, reply)
			}
		}
		if accepted == 0 {
			return fmt.Errorf("LOAD %s: no node in -control owns it (is every node of the cluster listed?)", item)
		}
	}
	return nil
}

const (
	// ctlTimeout bounds every call but SUBMIT.
	ctlTimeout = 20 * time.Second
	// shedReply is how a node's SUBMIT reports cluster.ErrOverload;
	// polynode's control-protocol test pins the text.
	shedReply = "request shed"
	// shedBackoff is the pause before retrying a shed submission (the
	// shed response is immediate, so the client, not the site, pays for
	// the overload); it stays inside the client-observed latency.
	shedBackoff = 500 * time.Microsecond
)

type tally struct {
	committed, aborted, shed int
	lat                      []time.Duration // decided transactions only
}

// drive is one closed-loop worker: it claims the next program, submits
// it and waits for the decision, until the list is exhausted.  A worker
// whose session times out or breaks stops (the session is out of step):
// that transaction stays undecided and the others take the rest.
func drive(c *client, progs []string, next *atomic.Int64, wait time.Duration) (t tally) {
	defer c.conn.Close()
	for {
		i := int(next.Add(1)) - 1
		if i >= len(progs) {
			return t
		}
		t0 := time.Now()
		reply, err := c.call("SUBMIT "+progs[i], wait)
		for err == nil && strings.Contains(reply, shedReply) {
			t.shed++
			time.Sleep(shedBackoff)
			reply, err = c.call("SUBMIT "+progs[i], wait)
		}
		switch {
		case err != nil:
			return t
		case strings.HasPrefix(reply, "OK committed"):
			t.committed++
			t.lat = append(t.lat, time.Since(t0))
		case strings.HasPrefix(reply, "OK aborted"):
			t.aborted++
			t.lat = append(t.lat, time.Since(t0))
		}
		// Any other ERR (the node's own 15s wait expired): undecided.
	}
}

// audit checks what the workload promises at quiescence: no node holds
// a polyvalue, every item reads certain, and for the bank mix money is
// conserved.  QUERY answers with the owner's value on an unreplicated
// cluster and the read-quorum winner on a replicated one.
func audit(admin []*client, initial map[string]int64, conserve bool) error {
	for _, c := range admin {
		reply, err := c.call("POLY", ctlTimeout)
		if err != nil {
			return err
		}
		if reply != "OK 0" {
			return fmt.Errorf("node %s still holds polyvalues: %s", c.addr, reply)
		}
	}
	var total, want int64
	for item, v0 := range initial {
		reply, err := admin[0].call("QUERY "+item, ctlTimeout)
		if err != nil {
			return err
		}
		v, ok := strings.CutPrefix(reply, "OK certain ")
		if !ok {
			return fmt.Errorf("item %s is not certain: %s", item, reply)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("item %s: %w", item, err)
		}
		total, want = total+n, want+v0
	}
	if conserve && total != want {
		return fmt.Errorf("conservation violated: total=%d want=%d", total, want)
	}
	return nil
}

func summarize(tallies []tally, elapsed time.Duration) result {
	res := result{Seconds: elapsed.Seconds()}
	var ls []time.Duration
	for _, t := range tallies {
		res.Committed += t.committed
		res.Aborted += t.aborted
		res.Shed += t.shed
		ls = append(ls, t.lat...)
	}
	res.CommitTPS = float64(res.Committed) / elapsed.Seconds()
	if len(ls) == 0 {
		return res
	}
	slices.Sort(ls)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(q float64) float64 { return ms(ls[int(q*float64(len(ls)-1))]) }
	var sum time.Duration
	for _, d := range ls {
		sum += d
	}
	res.P50, res.P90, res.P99, res.Mean = pct(0.5), pct(0.9), pct(0.99), ms(sum)/float64(len(ls))
	return res
}
