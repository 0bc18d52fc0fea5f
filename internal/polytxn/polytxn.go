// Package polytxn implements §3.2 of the paper: executing a transaction
// whose inputs may be polyvalues.
//
// "Each polytransaction T consists of a set of alternative transactions
// {T_c}, each of which performs the transaction T on a different database
// state."  When an alternative with condition c reads an item whose
// polyvalue is {⟨v_i, c_i⟩}, it partitions into alternatives with
// conditions c∧c_i, each reading v_i.  Alternatives whose condition is
// logically false are discarded before computing anything.  The outputs
// are reassembled into polyvalues — one per written item — whose
// conditions are complete and disjoint by construction.
package polytxn

import (
	"fmt"

	"repro/internal/condition"
	"repro/internal/expr"
	"repro/internal/polyvalue"
	"repro/internal/txn"
	"repro/internal/value"
)

// DefaultMaxAlternatives bounds the partitioning fan-out.  Each
// polyvalued input multiplies the alternative count by its pair count;
// the paper's analysis (§4) shows polyvalue populations stay small, but a
// defensive cap turns pathological blow-ups into a clean error instead of
// an unbounded computation.
const DefaultMaxAlternatives = 4096

// Result is the outcome of the compute phase of a (poly)transaction.
type Result struct {
	// Writes maps each written item to its new (possibly poly) value.
	Writes map[string]polyvalue.Poly
	// Alternatives is the number of alternative transactions that were
	// actually computed (after pruning false conditions).
	Alternatives int
	// Certain reports whether every written value is a simple value —
	// i.e. the transaction did not propagate any uncertainty (§3.2:
	// "any transaction whose outputs do not depend on the exact correct
	// value of a polyvalued input produces simple values").
	Certain bool
}

// Executor runs transaction programs against polyvalued states.
type Executor struct {
	// MaxAlternatives caps the partitioning fan-out; 0 means
	// DefaultMaxAlternatives.
	MaxAlternatives int
}

// alternative is one T_c: a condition plus the concrete input values its
// database state assigns to the read items.
type alternative struct {
	cond condition.Cond
	env  expr.MapEnv
}

// Execute computes the writes of t given the current (possibly
// polyvalued) values of the items it accesses.  lookup must return the
// current value of any item in t's item set; items never written are
// polyvalue.Simple(value.Nil{}).
//
// The returned Result's Writes cover t's entire write set: an item whose
// guard failed in some alternatives keeps its previous value under those
// alternatives' conditions, per §3.2 ("or is the previous value of the
// item if transaction T_i does not compute a new value for the item").
//
// When every read is certain — the common case the paper's §4 argues for
// — there is one alternative, under true, and the program runs once over
// the bound values; the general partition-and-compose path runs only
// when some read is polyvalued.  Both return the same Result.
func (e *Executor) Execute(t txn.T, lookup func(item string) polyvalue.Poly) (Result, error) {
	reads := t.ReadSet()
	env := make(expr.MapEnv, len(reads))
	for _, item := range reads {
		v, ok := lookup(item).IsCertain()
		if !ok {
			return e.execute(t, lookup)
		}
		env[item] = v
	}
	w, err := t.Program.Eval(env)
	if err != nil {
		return Result{}, fmt.Errorf("polytxn %s under true: %w", t.ID, err)
	}
	writeSet := t.WriteSet()
	out := make(map[string]polyvalue.Poly, len(writeSet))
	certain := true
	for _, item := range writeSet {
		if v, ok := w[item]; ok {
			out[item] = polyvalue.Simple(v)
			continue
		}
		// Guard failed: the previous value persists, polyvalued or not.
		prev := lookup(item)
		if _, ok := prev.IsCertain(); !ok {
			certain = false
		}
		out[item] = prev
	}
	return Result{Writes: out, Alternatives: 1, Certain: certain}, nil
}

// execute is the general §3.2 path: partition on polyvalued reads, run
// the program once per surviving alternative, compose the outputs.
func (e *Executor) execute(t txn.T, lookup func(item string) polyvalue.Poly) (Result, error) {
	maxAlts := e.MaxAlternatives
	if maxAlts <= 0 {
		maxAlts = DefaultMaxAlternatives
	}

	// Partition on polyvalued *read* items only.  Items that are written
	// but never read cannot affect the computation, so they never cause
	// partitioning — the paper's "one can also recognize cases where the
	// actual value of an item accessed by a transaction does not affect
	// the computation performed by the transaction".
	reads := t.ReadSet()
	inputs := make(map[string]polyvalue.Poly, len(reads))
	for _, item := range reads {
		inputs[item] = lookup(item)
	}

	alts := []alternative{{cond: condition.True(), env: expr.MapEnv{}}}
	for _, item := range reads {
		poly := inputs[item]
		pairs := poly.Pairs()
		if len(pairs) == 1 {
			// Certain input: no partitioning, just bind the value.
			for i := range alts {
				alts[i].env[item] = pairs[0].Val
			}
			continue
		}
		next := make([]alternative, 0, len(alts)*len(pairs))
		for _, a := range alts {
			for _, pr := range pairs {
				c := a.cond.And(pr.Cond)
				if c.IsFalse() {
					continue // discard impossible alternatives (§3.2)
				}
				env := make(expr.MapEnv, len(a.env)+1)
				for k, v := range a.env {
					env[k] = v
				}
				env[item] = pr.Val
				next = append(next, alternative{cond: c, env: env})
			}
		}
		if len(next) > maxAlts {
			return Result{}, fmt.Errorf("polytxn %s: %d alternatives exceed limit %d", t.ID, len(next), maxAlts)
		}
		if len(next) == 0 {
			return Result{}, fmt.Errorf("polytxn %s: no satisfiable alternative (inconsistent inputs)", t.ID)
		}
		alts = next
	}

	// Run the program once per alternative.
	writeSet := t.WriteSet()
	type altWrites struct {
		cond   condition.Cond
		writes map[string]value.V
	}
	computed := make([]altWrites, len(alts))
	for i, a := range alts {
		w, err := t.Program.Eval(a.env)
		if err != nil {
			return Result{}, fmt.Errorf("polytxn %s under %s: %w", t.ID, a.cond, err)
		}
		computed[i] = altWrites{cond: a.cond, writes: w}
	}

	// Assemble one output polyvalue per write-set item.
	out := make(map[string]polyvalue.Poly, len(writeSet))
	certain := true
	for _, item := range writeSet {
		prev, fetched := inputs[item]
		composed := make([]polyvalue.Alternative, 0, len(computed))
		for _, aw := range computed {
			if v, ok := aw.writes[item]; ok {
				composed = append(composed, polyvalue.Alternative{
					Cond: aw.cond, Val: polyvalue.Simple(v),
				})
				continue
			}
			// Guard failed in this alternative: previous value persists.
			if !fetched {
				prev = lookup(item)
				fetched = true
			}
			composed = append(composed, polyvalue.Alternative{Cond: aw.cond, Val: prev})
		}
		p := polyvalue.Compose(composed)
		if _, ok := p.IsCertain(); !ok {
			certain = false
		}
		out[item] = p
	}

	return Result{Writes: out, Alternatives: len(alts), Certain: certain}, nil
}

// EvalQuery evaluates a read-only expression against a polyvalued state,
// returning a polyvalue for the answer.  This implements §3.4: system
// outputs may themselves be uncertain, and the caller chooses to present
// the uncertainty or wait.  The same partition-prune-compose machinery
// applies, with the expression's value in place of assignment writes.
func (e *Executor) EvalQuery(node expr.Node, lookup func(item string) polyvalue.Poly) (polyvalue.Poly, error) {
	maxAlts := e.MaxAlternatives
	if maxAlts <= 0 {
		maxAlts = DefaultMaxAlternatives
	}
	alts := []alternative{{cond: condition.True(), env: expr.MapEnv{}}}
	for _, item := range expr.Vars(node) {
		pairs := lookup(item).Pairs()
		next := make([]alternative, 0, len(alts)*len(pairs))
		for _, a := range alts {
			for _, pr := range pairs {
				c := a.cond.And(pr.Cond)
				if c.IsFalse() {
					continue
				}
				env := make(expr.MapEnv, len(a.env)+1)
				for k, v := range a.env {
					env[k] = v
				}
				env[item] = pr.Val
				next = append(next, alternative{cond: c, env: env})
			}
		}
		if len(next) > maxAlts {
			return polyvalue.Poly{}, fmt.Errorf("polytxn query: %d alternatives exceed limit %d", len(next), maxAlts)
		}
		alts = next
	}

	composed := make([]polyvalue.Alternative, 0, len(alts))
	for _, a := range alts {
		v, err := expr.EvalExpr(node, a.env)
		if err != nil {
			return polyvalue.Poly{}, fmt.Errorf("polytxn query under %s: %w", a.cond, err)
		}
		composed = append(composed, polyvalue.Alternative{Cond: a.cond, Val: polyvalue.Simple(v)})
	}
	return polyvalue.Compose(composed), nil
}
