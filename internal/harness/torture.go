package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// TortureConfig parameterizes a randomized crash-test run: a transfer
// workload interleaved with random coordinator failpoints, outright
// crashes, link cuts, heals and restarts, followed by a global repair and
// a full correctness audit.
type TortureConfig struct {
	// Seed drives every random choice; equal seeds replay identically.
	Seed int64
	// Sites is the cluster size (default 4).
	Sites int
	// Items is the database size (default 8).
	Items int
	// Txns is the number of transactions (default 40).
	Txns int
	// SettleTime drains recovery after global repair (default 120s
	// simulated).
	SettleTime time.Duration
}

func (c *TortureConfig) fillDefaults() {
	if c.Sites <= 1 {
		c.Sites = 4
	}
	if c.Items <= 1 {
		c.Items = 8
	}
	if c.Txns <= 0 {
		c.Txns = 40
	}
	if c.SettleTime <= 0 {
		c.SettleTime = 120 * time.Second
	}
}

// TortureReport is the audit result of one torture run.
type TortureReport struct {
	Committed, Aborted, Pending int
	// CrashesInjected counts failpoints + outright crashes; CutsInjected
	// counts link cuts.
	CrashesInjected, CutsInjected int
	// Violations lists every correctness failure found by the audit:
	// unresolved polyvalues, leaked bookkeeping, serial-equivalence
	// mismatches, conservation breaks, or invariant violations.
	Violations []string
}

// OK reports whether the audit found no violations.
func (r TortureReport) OK() bool { return len(r.Violations) == 0 }

// String summarizes the report.
func (r TortureReport) String() string {
	return fmt.Sprintf("committed=%d aborted=%d pending=%d crashes=%d cuts=%d violations=%d",
		r.Committed, r.Aborted, r.Pending, r.CrashesInjected, r.CutsInjected, len(r.Violations))
}

// Torture runs one randomized failure schedule and audits the outcome.
// The audit asserts the paper's end-to-end guarantees: once all failures
// heal, (1) no polyvalues remain, (2) no dependency/await bookkeeping
// remains, (3) the final state equals the serial execution of exactly
// the client-visible commits, (4) money is conserved, and (5) the
// cluster-wide invariants hold.
func Torture(cfg TortureConfig) (TortureReport, error) {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sites := make([]protocol.SiteID, cfg.Sites)
	for i := range sites {
		sites[i] = protocol.SiteID(fmt.Sprintf("s%d", i))
	}
	c, err := cluster.New(cluster.Config{
		Sites: sites,
		Net:   network.Config{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: cfg.Seed},
	})
	if err != nil {
		return TortureReport{}, err
	}
	defer c.Close()

	state := map[string]value.V{}
	for i := 0; i < cfg.Items; i++ {
		name := fmt.Sprintf("acct%d", i)
		state[name] = value.Int(100)
		if err := c.Load(name, polyvalue.Simple(value.Int(100))); err != nil {
			return TortureReport{}, err
		}
	}

	var rep TortureReport
	type sub struct {
		src string
		h   *cluster.Handle
	}
	var subs []sub
	for i := 0; i < cfg.Txns; i++ {
		switch rng.Intn(8) {
		case 0:
			s := sites[rng.Intn(len(sites))]
			if !c.IsDown(s) {
				c.ArmCrashBeforeDecision(s)
				rep.CrashesInjected++
			}
		case 1:
			s := sites[rng.Intn(len(sites))]
			if !c.IsDown(s) {
				c.Crash(s)
				rep.CrashesInjected++
			}
		case 2:
			a, b := sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]
			if a != b {
				c.Partition(a, b)
				rep.CutsInjected++
			}
		case 3:
			c.HealAll()
			for _, s := range sites {
				if c.IsDown(s) {
					c.Restart(s)
					break
				}
			}
		}
		// Keep at least one site alive to coordinate.
		allDown := true
		for _, s := range sites {
			if !c.IsDown(s) {
				allDown = false
				break
			}
		}
		if allDown {
			c.Restart(sites[rng.Intn(len(sites))])
		}
		coord := sites[rng.Intn(len(sites))]
		for c.IsDown(coord) {
			coord = sites[rng.Intn(len(sites))]
		}
		a := rng.Intn(cfg.Items)
		b := (a + 1 + rng.Intn(cfg.Items-1)) % cfg.Items
		amt := 1 + rng.Intn(20)
		guard := fmt.Sprintf("acct%d >= %d", a, amt)
		if i%2 == 1 {
			// Each share reads the other's item, so neither site is a
			// source and the transfer runs the read round.
			guard += fmt.Sprintf(" && acct%d >= 0", b)
		}
		src := fmt.Sprintf("acct%d = acct%d - %d if %s; acct%d = acct%d + %d if %s",
			a, a, amt, guard, b, b, amt, guard)
		h, err := c.Submit(coord, src)
		if err != nil {
			return TortureReport{}, err
		}
		subs = append(subs, sub{src: src, h: h})
		c.RunFor(2 * time.Second)
	}

	// Global repair and settle.
	c.HealAll()
	for _, s := range sites {
		if c.IsDown(s) {
			c.Restart(s)
		}
	}
	c.RunFor(cfg.SettleTime)

	// Audit.
	if polys := c.PolyItems(); len(polys) != 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("unresolved polyvalues after settle: %v", polys))
	}
	for _, id := range sites {
		if tids := c.Store(id).DepTIDs(); len(tids) != 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("site %s retains dependency entries %v", id, tids))
		}
		if aw := c.Store(id).Awaits(); len(aw) != 0 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("site %s retains await entries %v", id, aw))
		}
	}
	for _, s := range subs {
		switch s.h.Status() {
		case cluster.StatusCommitted:
			rep.Committed++
			prog := expr.MustParse(s.src)
			writes, err := prog.Eval(expr.MapEnv(state))
			if err != nil {
				return TortureReport{}, err
			}
			for k, v := range writes {
				state[k] = v
			}
		case cluster.StatusAborted:
			rep.Aborted++
		default:
			rep.Pending++
		}
	}
	var total int64
	for i := 0; i < cfg.Items; i++ {
		name := fmt.Sprintf("acct%d", i)
		got, ok := c.Read(name).IsCertain()
		if !ok {
			rep.Violations = append(rep.Violations, fmt.Sprintf("%s uncertain after settle", name))
			continue
		}
		if !got.Equal(state[name]) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s = %v, serial oracle says %v", name, got, state[name]))
		}
		if n, ok := value.AsInt(got); ok {
			total += n
		}
	}
	if want := int64(cfg.Items) * 100; total != want {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("conservation broken: total %d, want %d", total, want))
	}
	rep.Violations = append(rep.Violations, c.CheckInvariants()...)
	return rep, nil
}
