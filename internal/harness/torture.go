package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/network"
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
	_, balances := bank(cfg.Items)
	s, _, err := newSim(cluster.Config{
		Sites: siteIDs("s", cfg.Sites),
		Net:   network.Config{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: cfg.Seed},
	}, balances)
	if err != nil {
		return TortureReport{}, err
	}
	defer s.Close()
	draw := func() protocol.SiteID { return s.sites[rng.Intn(len(s.sites))] }

	var rep TortureReport
	var srcs []string
	for i := 0; i < cfg.Txns; i++ {
		switch rng.Intn(8) {
		case 0:
			if id := draw(); !s.IsDown(id) {
				s.ArmCrashBeforeDecision(id)
				rep.CrashesInjected++
			}
		case 1:
			if id := draw(); !s.IsDown(id) {
				s.Crash(id)
				rep.CrashesInjected++
			}
		case 2:
			if a, b := draw(), draw(); a != b {
				s.Partition(a, b)
				rep.CutsInjected++
			}
		case 3:
			s.HealAll()
			for _, id := range s.sites {
				if s.IsDown(id) {
					s.Restart(id)
					break
				}
			}
		}
		// Keep at least one site alive to coordinate.
		if s.down() == len(s.sites) {
			s.Restart(draw())
		}
		coord := s.live(draw)
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
		if _, err := s.submit(coord, src); err != nil {
			return TortureReport{}, err
		}
		srcs = append(srcs, src)
		s.RunFor(2 * time.Second)
	}

	s.repair()
	s.RunFor(cfg.SettleTime)

	// The serial oracle: exactly the client-visible commits, in
	// submission order.
	state := map[string]value.V{}
	for _, item := range s.items {
		state[item] = value.Int(initialBalance)
	}
	rep.Violations = settled(s.Cluster, s.sites...)
	rep.Committed, rep.Aborted, rep.Pending = tally(s.handles, func(i int) {
		writes, err := expr.MustParse(srcs[i]).Eval(expr.MapEnv(state))
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("serial oracle: %v", err))
		}
		for k, v := range writes {
			state[k] = v
		}
	})
	for _, item := range s.items {
		if got, ok := s.Read(item).IsCertain(); ok && !got.Equal(state[item]) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s = %v, serial oracle says %v", item, got, state[item]))
		}
	}
	_, broken := conservation(s.items, s.read, int64(initialBalance*cfg.Items))
	rep.Violations = append(rep.Violations, broken...)
	return rep, nil
}
