package polyvalue

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/condition"
	"repro/internal/value"
)

func TestSimple(t *testing.T) {
	p := Simple(value.Int(100))
	v, ok := p.IsCertain()
	if !ok || !v.Equal(value.Int(100)) {
		t.Fatalf("Simple not certain: %v", p)
	}
	if p.NumPairs() != 1 {
		t.Errorf("NumPairs = %d", p.NumPairs())
	}
	if len(p.DependsOn()) != 0 {
		t.Errorf("Simple depends on %v", p.DependsOn())
	}
	if p.String() != "100" {
		t.Errorf("String = %q", p.String())
	}
	if !p.WellFormed() {
		t.Error("Simple not well-formed")
	}
}

func TestUncertainBasic(t *testing.T) {
	// §3.1: a site in doubt about T7 installs {<new, T7>, <old, !T7>}.
	p := Uncertain("T7", Simple(value.Int(50)), Simple(value.Int(100)))
	if _, ok := p.IsCertain(); ok {
		t.Fatal("uncertain value reported certain")
	}
	if p.NumPairs() != 2 {
		t.Fatalf("NumPairs = %d, want 2", p.NumPairs())
	}
	if !p.WellFormed() {
		t.Fatalf("not well-formed: %v", p)
	}
	deps := p.DependsOn()
	if len(deps) != 1 || deps[0] != "T7" {
		t.Errorf("DependsOn = %v", deps)
	}
	if !p.Mentions("T7") || p.Mentions("T8") {
		t.Error("Mentions wrong")
	}
	if !strings.Contains(p.String(), "T7") {
		t.Errorf("String = %q", p.String())
	}
}

func TestUncertainSameValueCollapses(t *testing.T) {
	// Rule 2: if the transaction writes the value already present, the
	// polyvalue collapses to a certain value — no uncertainty results.
	p := Uncertain("T1", Simple(value.Int(5)), Simple(value.Int(5)))
	v, ok := p.IsCertain()
	if !ok || !v.Equal(value.Int(5)) {
		t.Fatalf("equal-value update did not collapse: %v", p)
	}
}

func TestUncertainNestedFlattens(t *testing.T) {
	// Rule 1: updating a polyvalued item while in doubt about a second
	// transaction nests polyvalues; the result must be flat.
	inner := Uncertain("T1", Simple(value.Int(10)), Simple(value.Int(0)))
	outer := Uncertain("T2", Simple(value.Int(99)), inner)
	if !outer.WellFormed() {
		t.Fatalf("nested result not well-formed: %v", outer)
	}
	if outer.NumPairs() != 3 {
		t.Fatalf("NumPairs = %d, want 3 (99|T2, 10|!T2&T1, 0|!T2&!T1): %v", outer.NumPairs(), outer)
	}
	deps := outer.DependsOn()
	if len(deps) != 2 {
		t.Errorf("DependsOn = %v", deps)
	}
	// Under T2 committed the inner uncertainty is irrelevant.
	r := outer.Resolve("T2", true)
	if v, ok := r.IsCertain(); !ok || !v.Equal(value.Int(99)) {
		t.Errorf("Resolve(T2,commit) = %v", r)
	}
	// Under T2 aborted the inner uncertainty survives.
	r = outer.Resolve("T2", false)
	if _, ok := r.IsCertain(); ok {
		t.Errorf("Resolve(T2,abort) should stay uncertain: %v", r)
	}
	if v, ok := r.Resolve("T1", true).IsCertain(); !ok || !v.Equal(value.Int(10)) {
		t.Errorf("full resolution wrong: %v", r.Resolve("T1", true))
	}
}

func TestResolveEliminatesDependence(t *testing.T) {
	p := Uncertain("T1", Simple(value.Int(1)), Simple(value.Int(2)))
	for _, committed := range []bool{true, false} {
		r := p.Resolve("T1", committed)
		if r.Mentions("T1") {
			t.Errorf("resolved polyvalue still mentions T1: %v", r)
		}
		want := value.Int(2)
		if committed {
			want = value.Int(1)
		}
		if v, ok := r.IsCertain(); !ok || !v.Equal(want) {
			t.Errorf("Resolve(commit=%v) = %v, want %v", committed, r, want)
		}
	}
}

func TestResolveIrrelevantTID(t *testing.T) {
	p := Uncertain("T1", Simple(value.Int(1)), Simple(value.Int(2)))
	if !p.Resolve("T9", true).Equal(p) {
		t.Error("resolving unrelated transaction changed the polyvalue")
	}
}

func TestResolveAll(t *testing.T) {
	inner := Uncertain("T1", Simple(value.Int(10)), Simple(value.Int(0)))
	outer := Uncertain("T2", Simple(value.Int(99)), inner)
	r := outer.ResolveAll(map[condition.TID]bool{"T2": false, "T1": false})
	if v, ok := r.IsCertain(); !ok || !v.Equal(value.Int(0)) {
		t.Errorf("ResolveAll = %v, want 0", r)
	}
}

func TestValueUnder(t *testing.T) {
	p := Uncertain("T1", Simple(value.Int(1)), Simple(value.Int(2)))
	if v, ok := p.ValueUnder(map[condition.TID]bool{"T1": true}); !ok || !v.Equal(value.Int(1)) {
		t.Errorf("ValueUnder(T1=commit) = %v,%v", v, ok)
	}
	if v, ok := p.ValueUnder(map[condition.TID]bool{"T1": false}); !ok || !v.Equal(value.Int(2)) {
		t.Errorf("ValueUnder(T1=abort) = %v,%v", v, ok)
	}
	if _, ok := p.ValueUnder(map[condition.TID]bool{}); ok {
		t.Error("ValueUnder decided without assignment")
	}
}

func TestMinMax(t *testing.T) {
	// §5 reservations: grant if the largest possible count is under
	// capacity.
	p := Uncertain("T1", Simple(value.Int(42)), Simple(value.Int(40)))
	min, max, ok := p.MinMax()
	if !ok || min != 40 || max != 42 {
		t.Errorf("MinMax = %g,%g,%v", min, max, ok)
	}
	q := Uncertain("T1", Simple(value.Str("x")), Simple(value.Int(1)))
	if _, _, ok := q.MinMax(); ok {
		t.Error("MinMax on non-numeric should fail")
	}
}

func TestNewValidation(t *testing.T) {
	// Incomplete conditions must be rejected.
	_, err := New([]Pair{{Val: value.Int(1), Cond: condition.Committed("T1")}})
	if err == nil {
		t.Error("incomplete pair set accepted")
	}
	// Overlapping conditions must be rejected.
	_, err = New([]Pair{
		{Val: value.Int(1), Cond: condition.Committed("T1")},
		{Val: value.Int(2), Cond: condition.True()},
	})
	if err == nil {
		t.Error("overlapping pair set accepted")
	}
	// All-false input must be rejected.
	_, err = New([]Pair{{Val: value.Int(1), Cond: condition.False()}})
	if err == nil {
		t.Error("all-false pair set accepted")
	}
	// A valid two-pair set is accepted and canonicalized.
	p, err := New([]Pair{
		{Val: value.Int(2), Cond: condition.Aborted("T1")},
		{Val: value.Int(1), Cond: condition.Committed("T1")},
	})
	if err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if !p.Equal(Uncertain("T1", Simple(value.Int(1)), Simple(value.Int(2)))) {
		t.Errorf("New result differs from Uncertain: %v", p)
	}
}

func TestComposeThreeWay(t *testing.T) {
	// §3.2: a polytransaction with three alternatives, conditions
	// {T1&T2, T1&!T2, !T1}.
	alts := []Alternative{
		{Cond: condition.MustParse("T1&T2"), Val: Simple(value.Int(1))},
		{Cond: condition.MustParse("T1&!T2"), Val: Simple(value.Int(2))},
		{Cond: condition.MustParse("!T1"), Val: Simple(value.Int(3))},
	}
	p := Compose(alts)
	if !p.WellFormed() || p.NumPairs() != 3 {
		t.Fatalf("Compose = %v", p)
	}
	if v, _ := p.ValueUnder(map[condition.TID]bool{"T1": true, "T2": false}); !v.Equal(value.Int(2)) {
		t.Errorf("ValueUnder = %v", v)
	}
}

func TestComposeMergesAcrossAlternatives(t *testing.T) {
	// Two alternatives computing the same value merge (rule 2): the
	// polytransaction's output is certain even though inputs were not.
	alts := []Alternative{
		{Cond: condition.Committed("T1"), Val: Simple(value.Bool(true))},
		{Cond: condition.Aborted("T1"), Val: Simple(value.Bool(true))},
	}
	p := Compose(alts)
	if v, ok := p.IsCertain(); !ok || !v.Equal(value.Bool(true)) {
		t.Errorf("identical alternatives did not merge: %v", p)
	}
}

func TestComposeSkipsFalseAlternatives(t *testing.T) {
	alts := []Alternative{
		{Cond: condition.True(), Val: Simple(value.Int(7))},
		{Cond: condition.False(), Val: Simple(value.Int(8))},
	}
	p := Compose(alts)
	if v, ok := p.IsCertain(); !ok || !v.Equal(value.Int(7)) {
		t.Errorf("false alternative contaminated output: %v", p)
	}
}

func TestPossibleAndPairs(t *testing.T) {
	p := Uncertain("T1", Simple(value.Int(1)), Simple(value.Int(2)))
	poss := p.Possible()
	if len(poss) != 2 {
		t.Fatalf("Possible = %v", poss)
	}
	pairs := p.Pairs()
	pairs[0].Val = value.Int(999) // must not alias internal state
	if p.Possible()[0].Equal(value.Int(999)) {
		t.Error("Pairs exposes internal state")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	vals := []Poly{
		Simple(value.Int(42)),
		Simple(value.Nil{}),
		Uncertain("T1", Simple(value.Int(1)), Simple(value.Int(2))),
		Uncertain("T2", Simple(value.Str("new")),
			Uncertain("T1", Simple(value.Int(10)), Simple(value.Bool(false)))),
	}
	for _, p := range vals {
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %v: %v", p, err)
		}
		var back Poly
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", p, err)
		}
		if !back.Equal(p) {
			t.Errorf("round trip %v -> %v", p, back)
		}
	}
}

func TestBinaryRejectsMalformed(t *testing.T) {
	// Hand-craft an encoding whose conditions are not complete: one pair
	// with condition "T1".
	var buf []byte
	buf = append(buf, 1) // one pair
	buf = value.AppendBinary(buf, value.Int(1))
	buf = condition.Committed("T1").AppendBinary(buf)
	var p Poly
	if err := p.UnmarshalBinary(buf); err == nil {
		t.Error("malformed polyvalue accepted")
	}
	if err := p.UnmarshalBinary(nil); err == nil {
		t.Error("empty buffer accepted")
	}
}

func TestStringNotation(t *testing.T) {
	p := Uncertain("T7", Simple(value.Int(50)), Simple(value.Int(100)))
	s := p.String()
	if !strings.HasPrefix(s, "{<") || !strings.Contains(s, "!T7") {
		t.Errorf("String = %q", s)
	}
}

// TestDecodeOnePairAgreesWithNew: DecodeBinary builds a one-pair
// encoding directly instead of through New.  On every single pair —
// certain, false, non-tautological, and tautologies that are not the
// constant true — it must return what New returns for the decoded pair,
// value or error, and so still reject a lone condition that can fail.
func TestDecodeOnePairAgreesWithNew(t *testing.T) {
	t1, t2 := condition.Committed("T1"), condition.Committed("T2")
	conds := []condition.Cond{
		condition.True(), condition.False(), t1, condition.Aborted("T2"),
		t1.Or(t2),
		t1.Or(t1.Not()),                      // canonicalizes to the constant true
		t1.Or(t2.Not()).Or(t1.Not().And(t2)), // a tautology in another shape
	}
	r := rand.New(rand.NewSource(1))
	vars := []condition.TID{"T1", "T2", "T3"}
	for i := 0; i < 200; i++ {
		c := condition.False()
		for p := 0; p < 1+r.Intn(3); p++ {
			prod := condition.True()
			for l := 0; l < 1+r.Intn(3); l++ {
				lit := condition.Committed(vars[r.Intn(len(vars))])
				if r.Intn(2) == 0 {
					lit = lit.Not()
				}
				prod = prod.And(lit)
			}
			c = c.Or(prod)
		}
		if r.Intn(3) == 0 {
			c = c.Or(c.Not())
		}
		conds = append(conds, c)
	}
	accepted, rejected := 0, 0
	for _, c := range conds {
		v := value.Int(7)
		buf := binary.AppendUvarint(nil, 1)
		buf = value.AppendBinary(buf, v)
		buf = c.AppendBinary(buf)
		got, n, gotErr := DecodeBinary(buf)
		dc, _, err := condition.DecodeBinary(c.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := New([]Pair{{Val: v, Cond: dc}})
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("cond %s: DecodeBinary error %v, New error %v", c, gotErr, wantErr)
		}
		if gotErr != nil {
			rejected++
			continue
		}
		accepted++
		if n != len(buf) || !got.Equal(want) || got.Pairs()[0].Cond.String() != want.Pairs()[0].Cond.String() {
			t.Fatalf("cond %s: decoded %v (%d of %d bytes), New built %v", c, got, n, len(buf), want)
		}
	}
	if accepted < 3 || rejected < 3 {
		t.Fatalf("accepted %d, rejected %d: the cases do not cover both verdicts", accepted, rejected)
	}
	if _, _, err := DecodeBinary(append(binary.AppendUvarint(nil, 1),
		t1.AppendBinary(value.AppendBinary(nil, value.Int(1)))...)); err == nil {
		t.Fatal("a single pair under T1 decoded: a certain value's condition must be a tautology")
	}
}
