package cluster

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
)

// CheckInvariants validates the cluster's global well-formedness and
// returns a description of every violation (empty = healthy).  The full
// set of checks assumes a quiescent cluster — all submitted transactions
// settled, all failures healed, outcome propagation drained; mid-run
// some conditions (locks held, prepared entries, await loops) are
// legitimately transient, so those checks are only meaningful at
// quiescence.  Failure-injection tests call this after their settle
// phase to prove the paper's §3.3 cleanup claims.
//
// Checks, per site:
//
//  1. every stored polyvalue satisfies the complete-and-disjoint
//     invariant (§3);
//  2. every dependency a stored polyvalue has is covered by a §3.3
//     dependency-table entry listing that item at that site (otherwise
//     outcome news could never reduce it);
//  3. no await entry exists for a transaction whose outcome the site
//     already knows (it should have been resolved and cleared);
//  4. no locks are held (quiescence);
//  5. under the polyvalue policy, no prepared entries remain
//     (quiescence: every in-doubt window was converted or settled);
//  6. under PlanePaxos, no acceptor state remains (every registered
//     decision settled and was garbage-collected);
//  8. outside PolicyArbitrary, no site was told both outcomes of one
//     transaction (txn.outcome.conflicts{site} is zero) — the atomicity
//     the paper promises.  PolicyArbitrary breaks it by design.
//
// Under quorum replication one cross-site check is added:
//
//  7. replica convergence — every live replica of a logical item holds
//     the same certain value at the same version (anti-entropy has
//     drained; a W-of-K commit left no permanently stale copy).
func (c *Cluster) CheckInvariants() []string {
	var violations []string
	var snap metrics.Snapshot
	if c.cfg.Policy != PolicyArbitrary {
		snap = c.reg.Snapshot()
	}
	for _, id := range c.order {
		site := c.sites[id]
		if site == nil {
			continue // node mode: remote sites are other processes
		}
		site.do(func() {
			st := site.store
			// 1 & 2: polyvalue well-formedness and dependency coverage.
			for _, item := range st.Items() {
				p := st.Get(item)
				if _, certain := p.IsCertain(); certain {
					continue
				}
				if !p.WellFormed() {
					violations = append(violations,
						fmt.Sprintf("site %s: item %q holds ill-formed polyvalue %s", id, item, p))
				}
				for _, dep := range p.DependsOn() {
					items, _ := st.Deps(dep)
					covered := false
					for _, it := range items {
						if it == item {
							covered = true
							break
						}
					}
					if !covered {
						violations = append(violations,
							fmt.Sprintf("site %s: item %q depends on %s but the dependency table does not cover it", id, item, dep))
					}
				}
			}
			// 3: awaits imply unknown outcomes.
			for tid := range st.Awaits() {
				if _, known := st.Outcome(tid); known {
					violations = append(violations,
						fmt.Sprintf("site %s: await entry for %s whose outcome is already known", id, tid))
				}
			}
			// 4: no locks at quiescence.
			if n := len(site.locks); n != 0 {
				violations = append(violations,
					fmt.Sprintf("site %s: %d locks held at quiescence", id, n))
			}
			// 5: no prepared entries at quiescence (polyvalue policy).
			if c.cfg.Policy == PolicyPolyvalue {
				if n := len(st.PreparedTxns()); n != 0 {
					violations = append(violations,
						fmt.Sprintf("site %s: %d prepared entries at quiescence", id, n))
				}
			}
			// 6: paxos plane — every registered decision has settled and
			// its acceptor state was garbage-collected.
			if c.cfg.DecisionPlane == PlanePaxos {
				for _, tid := range st.PaxosTxns() {
					if _, known := st.Outcome(tid); known {
						violations = append(violations,
							fmt.Sprintf("site %s: paxos acceptor state for %s outlived its known outcome", id, tid))
					} else {
						violations = append(violations,
							fmt.Sprintf("site %s: undecided paxos state for %s at quiescence", id, tid))
					}
				}
			}
			// 8: no conflicting outcome reports (snap is empty under
			// PolicyArbitrary).
			if n := snap.Counter("txn.outcome.conflicts", metrics.L("site", string(id))); n != 0 {
				violations = append(violations,
					fmt.Sprintf("site %s: told both outcomes of a transaction %d times", id, n))
			}
		})
	}
	// 7: replica convergence (quorum replication only).  Runs outside
	// the per-site loop — it compares replicas ACROSS sites — reading
	// the thread-safe stores directly and the transport's crash view
	// (down sites legitimately hold stale replicas until they rejoin
	// and gossip catches them up).
	if c.cfg.Replication != nil {
		type rep struct {
			site protocol.SiteID
			item string
			p    polyvalue.Poly
			ver  uint64
		}
		byLogical := map[string][]rep{}
		for _, id := range c.order {
			site := c.sites[id]
			if site == nil || c.fab.IsDown(id) {
				continue
			}
			for _, item := range site.store.Items() {
				logical, _, ok := replica.Logical(item)
				if !ok {
					continue
				}
				byLogical[logical] = append(byLogical[logical],
					rep{site: id, item: item, p: site.store.Get(item), ver: site.store.Version(item)})
			}
		}
		for _, logical := range sortedKeys(byLogical) {
			reps := byLogical[logical]
			ref := reps[0]
			for _, r := range reps {
				if _, certain := r.p.IsCertain(); !certain {
					violations = append(violations,
						fmt.Sprintf("site %s: replica %s still uncertain at quiescence: %s", r.site, r.item, r.p))
					continue
				}
				if !r.p.Equal(ref.p) || r.ver != ref.ver {
					violations = append(violations,
						fmt.Sprintf("replica divergence on %q: %s@%s=%s v%d vs %s@%s=%s v%d",
							logical, r.item, r.site, r.p, r.ver, ref.item, ref.site, ref.p, ref.ver))
				}
			}
		}
	}
	return violations
}
