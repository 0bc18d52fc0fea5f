// Package repl implements the interactive cluster console behind
// cmd/polyrepl: a small command language for loading data, submitting
// transactions, injecting failures, advancing simulated time and
// inspecting polyvalues.  The interpreter is a library so the whole
// surface is unit-testable; cmd/polyrepl just wires it to stdin/stdout.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/value"
)

// REPL is one interactive session over a cluster it owns.
type REPL struct {
	c       *cluster.Cluster
	spans   *trace.SpanLog
	out     io.Writer
	handles map[string]*cluster.Handle
	queries map[string]*cluster.QueryHandle
	nextH   int
	nextQ   int
	done    bool
}

// New builds a REPL over a fresh cluster with the given number of sites
// (named site0..siteN-1).
func New(sites int, policy cluster.Policy, seed int64, out io.Writer) (*REPL, error) {
	if sites < 1 {
		return nil, fmt.Errorf("repl: need at least one site")
	}
	ids := make([]protocol.SiteID, sites)
	for i := range ids {
		ids[i] = protocol.SiteID(fmt.Sprintf("site%d", i))
	}
	spans := trace.NewSpanLog(5000)
	c, err := cluster.New(cluster.Config{
		Sites:  ids,
		Net:    network.Config{Latency: 10 * time.Millisecond, Seed: seed},
		Policy: policy,
		Spans:  spans,
	})
	if err != nil {
		return nil, err
	}
	return &REPL{
		c: c, spans: spans, out: out,
		handles: map[string]*cluster.Handle{},
		queries: map[string]*cluster.QueryHandle{},
	}, nil
}

// Close releases the cluster.
func (r *REPL) Close() { r.c.Close() }

// Cluster exposes the underlying cluster (tests and embedding).
func (r *REPL) Cluster() *cluster.Cluster { return r.c }

// Done reports whether a quit command was executed.
func (r *REPL) Done() bool { return r.done }

// Run reads commands until EOF or quit.
func (r *REPL) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	for !r.done && sc.Scan() {
		if err := r.Execute(sc.Text()); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
	}
	return sc.Err()
}

// Execute runs one command line.  Unknown commands and bad arguments
// return errors; the session continues.
func (r *REPL) Execute(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		r.printHelp()
	case "quit", "exit":
		r.done = true
	case "sites":
		for _, id := range r.c.Sites() {
			info, err := r.c.SiteInfo(id)
			if err != nil {
				return err
			}
			state := "up"
			if info.Down {
				state = "DOWN"
			}
			fmt.Fprintf(r.out, "%s\t%s\titems=%d polys=%d prepared=%d awaits=%d locks=%d wal=%dB\n",
				id, state, info.Items, info.PolyItems, info.Prepared, info.Awaits, info.Locks, info.WALBytes)
		}
	case "load":
		if len(args) != 2 {
			return fmt.Errorf("usage: load <item> <int>")
		}
		n, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		if err := r.c.Load(args[0], polyvalue.Simple(value.Int(n))); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "%s = %d\n", args[0], n)
	case "submit":
		if len(args) < 2 {
			return fmt.Errorf("usage: submit <site> <program>")
		}
		h, err := r.c.Submit(protocol.SiteID(args[0]), strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		r.nextH++
		name := fmt.Sprintf("h%d", r.nextH)
		r.handles[name] = h
		fmt.Fprintf(r.out, "%s: submitted %s at %s\n", name, h.TID, args[0])
	case "query":
		if len(args) < 2 {
			return fmt.Errorf("usage: query <site> <expr>")
		}
		qh, err := r.c.Query(protocol.SiteID(args[0]), strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		r.nextQ++
		name := fmt.Sprintf("q%d", r.nextQ)
		r.queries[name] = qh
		fmt.Fprintf(r.out, "%s: query submitted at %s\n", name, args[0])
	case "queryc":
		if len(args) < 3 {
			return fmt.Errorf("usage: queryc <site> <wait> <expr> (withhold until certain)")
		}
		wait, err := time.ParseDuration(args[1])
		if err != nil {
			return fmt.Errorf("queryc: %w", err)
		}
		qh, err := r.c.QueryCertain(protocol.SiteID(args[0]), strings.Join(args[2:], " "), wait)
		if err != nil {
			return err
		}
		r.nextQ++
		name := fmt.Sprintf("q%d", r.nextQ)
		r.queries[name] = qh
		fmt.Fprintf(r.out, "%s: certain-mode query submitted at %s (deadline %v)\n", name, args[0], wait)
	case "status":
		names := make([]string, 0, len(r.handles))
		for n := range r.handles {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := r.handles[n]
			line := fmt.Sprintf("%s\t%s\t%s", n, h.TID, h.Status())
			if reason := h.Reason(); reason != "" {
				line += "\t(" + reason + ")"
			}
			if lat, ok := h.Latency(); ok {
				line += fmt.Sprintf("\t%v", lat)
			}
			fmt.Fprintln(r.out, line)
		}
		qnames := make([]string, 0, len(r.queries))
		for n := range r.queries {
			qnames = append(qnames, n)
		}
		sort.Strings(qnames)
		for _, n := range qnames {
			p, err, done := r.queries[n].Result()
			switch {
			case !done:
				fmt.Fprintf(r.out, "%s\tpending\n", n)
			case err != nil:
				fmt.Fprintf(r.out, "%s\terror: %v\n", n, err)
			default:
				fmt.Fprintf(r.out, "%s\t%s\n", n, p)
			}
		}
	case "read":
		if len(args) != 1 {
			return fmt.Errorf("usage: read <item>")
		}
		fmt.Fprintf(r.out, "%s = %s\n", args[0], r.c.Read(args[0]))
	case "expected":
		if len(args) != 2 {
			return fmt.Errorf("usage: expected <item> <pCommit>")
		}
		pc, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return fmt.Errorf("expected: %w", err)
		}
		e, err := r.c.Read(args[0]).Expected(pc)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "E[%s | p=%g] = %g\n", args[0], pc, e)
	case "run":
		if len(args) != 1 {
			return fmt.Errorf("usage: run <duration> (e.g. 500ms, 2s)")
		}
		d, err := time.ParseDuration(args[0])
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		r.c.RunFor(d)
		fmt.Fprintf(r.out, "t = %v\n", r.c.Now())
	case "crash":
		if len(args) != 1 {
			return fmt.Errorf("usage: crash <site>")
		}
		if err := r.site(args[0]); err != nil {
			return err
		}
		r.c.Crash(protocol.SiteID(args[0]))
		fmt.Fprintf(r.out, "%s crashed\n", args[0])
	case "restart":
		if len(args) != 1 {
			return fmt.Errorf("usage: restart <site>")
		}
		if err := r.site(args[0]); err != nil {
			return err
		}
		r.c.Restart(protocol.SiteID(args[0]))
		fmt.Fprintf(r.out, "%s restarted\n", args[0])
	case "armcrash":
		if len(args) != 1 {
			return fmt.Errorf("usage: armcrash <site>")
		}
		if err := r.site(args[0]); err != nil {
			return err
		}
		r.c.ArmCrashBeforeDecision(protocol.SiteID(args[0]))
		fmt.Fprintf(r.out, "%s will crash at its next commit decision\n", args[0])
	case "partition":
		if len(args) != 2 {
			return fmt.Errorf("usage: partition <a> <b>")
		}
		r.c.Partition(protocol.SiteID(args[0]), protocol.SiteID(args[1]))
		fmt.Fprintf(r.out, "link %s--%s cut\n", args[0], args[1])
	case "heal":
		if len(args) != 2 {
			return fmt.Errorf("usage: heal <a> <b>")
		}
		r.c.Heal(protocol.SiteID(args[0]), protocol.SiteID(args[1]))
		fmt.Fprintf(r.out, "link %s--%s healed\n", args[0], args[1])
	case "healall":
		r.c.HealAll()
		fmt.Fprintln(r.out, "all links healed")
	case "polys":
		items := r.c.PolyItems()
		if len(items) == 0 {
			fmt.Fprintln(r.out, "no polyvalued items")
			break
		}
		for _, item := range items {
			fmt.Fprintf(r.out, "%s = %s\n", item, r.c.Read(item))
		}
	case "stats":
		st := r.c.Stats()
		fmt.Fprintf(r.out, "committed=%d aborted=%d indoubt=%d polyInstalls=%d polyReductions=%d refused=%d\n",
			st.Committed, st.Aborted, st.InDoubt, st.PolyInstalls, st.PolyReductions, st.Refused)
		ns := r.c.Metrics().Snapshot()
		fmt.Fprintf(r.out, "net: sent=%d delivered=%d dropped=%d\n",
			ns.Total("network.sent"), ns.Total("network.delivered"), ns.Total("network.dropped"))
	case "check":
		violations := r.c.CheckInvariants()
		if len(violations) == 0 {
			fmt.Fprintln(r.out, "all invariants hold")
			break
		}
		for _, v := range violations {
			fmt.Fprintln(r.out, "VIOLATION:", v)
		}
	case "trace":
		n := 5
		if len(args) == 1 {
			parsed, err := strconv.Atoi(args[0])
			if err != nil || parsed < 1 {
				return fmt.Errorf("usage: trace [n]")
			}
			n = parsed
		}
		tls := trace.BuildTimelines(r.spans.Spans())
		if len(tls) > n {
			tls = tls[len(tls)-n:]
		}
		fmt.Fprint(r.out, trace.RenderTimelines(tls))
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

// site validates a site name.
func (r *REPL) site(name string) error {
	for _, id := range r.c.Sites() {
		if string(id) == name {
			return nil
		}
	}
	return fmt.Errorf("unknown site %q", name)
}

func (r *REPL) printHelp() {
	fmt.Fprint(r.out, `commands:
  load <item> <int>            install an initial value
  submit <site> <program>      run a transaction (e.g. submit site0 x = x + 1)
  query <site> <expr>          read-only query (may return a polyvalue)
  queryc <site> <wait> <expr>  withhold the answer until certain (§3.4)
  status                       show transaction/query outcomes
  read <item>                  show an item's (possibly poly) value
  expected <item> <p>          probability-weighted expected value
  polys                        list all polyvalued items
  run <duration>               advance simulated time (500ms, 2s, ...)
  crash/restart <site>         fail / repair a site
  armcrash <site>              crash at the site's next commit decision
  partition/heal <a> <b>       cut / restore a link; healall restores all
  sites | stats                inspect the cluster
  trace [n]                    span timelines of the last n transactions (default 5)
  check                        verify global invariants (quiescent cluster)
  quit
`)
}
