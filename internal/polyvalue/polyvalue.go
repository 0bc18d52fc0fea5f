// Package polyvalue implements the paper's primary contribution: the
// polyvalue, "a bookkeeping tool for keeping more than one value for an
// item" (Montgomery, SOSP 1979, §3).
//
// A polyvalue is a set of ⟨v, c⟩ pairs where v is a simple value and c is
// a condition over transaction identifiers.  The conditions of a
// well-formed polyvalue are complete and disjoint: exactly one pair's
// condition holds under any assignment of outcomes to the transactions
// involved, and that pair's value is the item's true value.
//
// A simple (certain) value is represented as a polyvalue with a single
// pair ⟨v, true⟩, so one type flows through the whole system; IsCertain
// distinguishes the two.  Poly values are immutable.
package polyvalue

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/condition"
	"repro/internal/value"
)

// Pair couples a simple value with the condition under which it is the
// item's true value.
type Pair struct {
	Val  value.V
	Cond condition.Cond
}

// String renders the pair in the paper's ⟨v,c⟩ notation.
func (p Pair) String() string {
	return fmt.Sprintf("<%s, %s>", p.Val, p.Cond)
}

// Poly is a polyvalue.  The zero value is not meaningful; construct with
// Simple, New, Uncertain, or Compose.  Invariants maintained by every
// constructor and operation:
//
//   - at least one pair;
//   - pair conditions are complete and disjoint;
//   - no pair's condition is false (simplification rule 3);
//   - no two pairs carry equal values (rule 2 merges them);
//   - pairs are in canonical order, so Equal is structural.
type Poly struct {
	pairs []Pair
}

// alwaysTrue is the condition of every certain value.  Conditions are
// immutable, so one instance serves them all.
var alwaysTrue = condition.True()

// Simple wraps a certain value as the trivial polyvalue ⟨v, true⟩.
func Simple(v value.V) Poly {
	return Poly{pairs: []Pair{{Val: v, Cond: alwaysTrue}}}
}

// New builds a polyvalue from explicit pairs, simplifying and validating
// the completeness/disjointness invariant.
func New(pairs []Pair) (Poly, error) {
	p := simplify(pairs)
	if len(p.pairs) == 0 {
		return Poly{}, fmt.Errorf("polyvalue: no pair with satisfiable condition")
	}
	conds := make([]condition.Cond, len(p.pairs))
	for i, pr := range p.pairs {
		conds[i] = pr.Cond
	}
	if !condition.CompleteAndDisjoint(conds) {
		return Poly{}, fmt.Errorf("polyvalue: conditions not complete and disjoint: %s", p)
	}
	return p, nil
}

// MustNew is New that panics on invalid input; for tests and constants.
func MustNew(pairs []Pair) Poly {
	p, err := New(pairs)
	if err != nil {
		panic(err)
	}
	return p
}

// Uncertain constructs the polyvalue a site installs when transaction t's
// outcome is unknown (§3.1): the new value under "t committed", the
// previous value under "t aborted".  Both operands may themselves be
// polyvalues; nesting is flattened per simplification rule 1.
func Uncertain(t condition.TID, newV, oldV Poly) Poly {
	alts := []Alternative{
		{Cond: condition.Committed(t), Val: newV},
		{Cond: condition.Aborted(t), Val: oldV},
	}
	return Compose(alts)
}

// Alternative pairs a condition with the (possibly poly) value computed
// by one alternative transaction (§3.2).
type Alternative struct {
	Cond condition.Cond
	Val  Poly
}

// Compose builds the output polyvalue of a polytransaction from its
// alternatives.  Rule 1 flattening: each alternative's value may be a
// polyvalue ⟨v_i, c_i⟩; the result contains ⟨v_i, c ∧ c_i⟩.  Alternatives
// whose condition is false contribute nothing.  The caller guarantees the
// alternative conditions are complete and disjoint (the partitioning
// rules of §3.2 ensure this); Compose preserves that invariant.
func Compose(alts []Alternative) Poly {
	if len(alts) == 1 && isConstTrue(alts[0].Cond) {
		// true ∧ c_i is c_i, and the value is already simplified: a
		// query over certain inputs lands here.
		return alts[0].Val
	}
	var flat []Pair
	for _, a := range alts {
		if a.Cond.IsFalse() {
			continue
		}
		for _, pr := range a.Val.pairs {
			flat = append(flat, Pair{Val: pr.Val, Cond: a.Cond.And(pr.Cond)})
		}
	}
	return simplify(flat)
}

// simplify applies the paper's three §3.1 simplification rules to raw
// pairs (rule 1, flattening, happens in Compose where nesting arises):
// rule 2 merges pairs with equal values by disjoining conditions; rule 3
// keeps SOP form and drops pairs with false conditions.  Pairs are then
// put in canonical order.
func simplify(pairs []Pair) Poly {
	var out []Pair
	for _, p := range pairs {
		if p.Cond.IsFalse() {
			continue // rule 3
		}
		merged := false
		for i := range out {
			if out[i].Val.Equal(p.Val) {
				out[i].Cond = out[i].Cond.Or(p.Cond) // rule 2
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, p)
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool {
			a := value.MarshalBinary(out[i].Val)
			b := value.MarshalBinary(out[j].Val)
			if c := bytes.Compare(a, b); c != 0 {
				return c < 0
			}
			return out[i].Cond.String() < out[j].Cond.String()
		})
	}
	return Poly{pairs: out}
}

// isConstTrue reports whether c is the constant true itself, not merely
// a tautology: only then is c ∧ d structurally d.
func isConstTrue(c condition.Cond) bool {
	return c.NumProducts() == 1 && c.NumLiterals() == 0
}

// Pairs returns a copy of the pairs in canonical order.
func (p Poly) Pairs() []Pair {
	out := make([]Pair, len(p.pairs))
	copy(out, p.pairs)
	return out
}

// NumPairs returns the number of alternatives the polyvalue tracks.
func (p Poly) NumPairs() int { return len(p.pairs) }

// IsCertain reports whether the polyvalue denotes a single known value,
// and returns it.  This is the paper's "simple value" case: exactly one
// pair, whose condition is then necessarily a tautology.
func (p Poly) IsCertain() (value.V, bool) {
	if len(p.pairs) == 1 {
		return p.pairs[0].Val, true
	}
	return nil, false
}

// Possible returns every value the item could turn out to hold, in
// canonical order.
func (p Poly) Possible() []value.V {
	out := make([]value.V, len(p.pairs))
	for i, pr := range p.pairs {
		out[i] = pr.Val
	}
	return out
}

// DependsOn returns the transaction identifiers whose outcomes the
// polyvalue depends on, sorted.  Certain values depend on nothing.
func (p Poly) DependsOn() []condition.TID {
	if len(p.pairs) <= 1 {
		return nil
	}
	seen := map[condition.TID]bool{}
	var out []condition.TID
	for _, pr := range p.pairs {
		for _, t := range pr.Cond.Vars() {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mentions reports whether the polyvalue depends on transaction t.
func (p Poly) Mentions(t condition.TID) bool {
	for _, pr := range p.pairs {
		if pr.Cond.Mentions(t) {
			return true
		}
	}
	return false
}

// Resolve substitutes a now-known outcome for transaction t (§3.3) and
// returns the reduced polyvalue.  When every pending outcome has been
// resolved the result is a single certain value.
func (p Poly) Resolve(t condition.TID, committed bool) Poly {
	pairs := make([]Pair, len(p.pairs))
	for i, pr := range p.pairs {
		pairs[i] = Pair{Val: pr.Val, Cond: pr.Cond.Assign(t, committed)}
	}
	return simplify(pairs)
}

// ResolveAll applies Resolve for every recorded outcome.
func (p Poly) ResolveAll(outcomes map[condition.TID]bool) Poly {
	out := p
	for t, committed := range outcomes {
		out = out.Resolve(t, committed)
	}
	return out
}

// ValueUnder returns the value the polyvalue denotes under a complete
// outcome assignment.  ok is false if the assignment does not decide the
// polyvalue.  Well-formedness guarantees exactly one pair matches a
// deciding assignment.
func (p Poly) ValueUnder(asn map[condition.TID]bool) (value.V, bool) {
	for _, pr := range p.pairs {
		if v, ok := pr.Cond.Eval(asn); ok && v {
			return pr.Val, true
		}
	}
	return nil, false
}

// MinMax returns the smallest and largest possible numeric values.  The
// reservation application of §5 grants a booking when the largest
// possible count is still under capacity.  ok is false if any possible
// value is non-numeric.
func (p Poly) MinMax() (min, max float64, ok bool) {
	for i, pr := range p.pairs {
		f, isNum := value.AsFloat(pr.Val)
		if !isNum {
			return 0, 0, false
		}
		if i == 0 || f < min {
			min = f
		}
		if i == 0 || f > max {
			max = f
		}
	}
	return min, max, len(p.pairs) > 0
}

// Equal reports structural equality; canonical form makes this decide
// "same pairs with same canonical conditions".
func (p Poly) Equal(q Poly) bool {
	if len(p.pairs) != len(q.pairs) {
		return false
	}
	for i := range p.pairs {
		if !p.pairs[i].Val.Equal(q.pairs[i].Val) || !p.pairs[i].Cond.Equal(q.pairs[i].Cond) {
			return false
		}
	}
	return true
}

// String renders the polyvalue in the paper's notation,
// e.g. "{<101, T7>, <100, !T7>}"; certain values render bare.
func (p Poly) String() string {
	if v, ok := p.IsCertain(); ok {
		return v.String()
	}
	parts := make([]string, len(p.pairs))
	for i, pr := range p.pairs {
		parts[i] = pr.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// WellFormed re-checks the completeness/disjointness invariant; used by
// property tests and storage-recovery validation.
func (p Poly) WellFormed() bool {
	if len(p.pairs) == 0 {
		return false
	}
	conds := make([]condition.Cond, len(p.pairs))
	for i, pr := range p.pairs {
		if pr.Cond.IsFalse() {
			return false
		}
		conds[i] = pr.Cond
	}
	for i := range p.pairs {
		for j := i + 1; j < len(p.pairs); j++ {
			if p.pairs[i].Val.Equal(p.pairs[j].Val) {
				return false
			}
		}
	}
	return condition.CompleteAndDisjoint(conds)
}
