package polytxn

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/condition"
	"repro/internal/expr"
	"repro/internal/polyvalue"
	"repro/internal/txn"
	"repro/internal/value"
)

// scenario is a random polytransaction case: a store with some
// polyvalued items and a random arithmetic program over them.
type scenario struct {
	Seed int64
}

func (scenario) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(scenario{Seed: r.Int63()})
}

// build materializes the scenario: 4 input items (each either certain or
// a 2-pair polyvalue on its own transaction), and a program combining
// them with random operators and an optional guard.
func (s scenario) build() (txn.T, map[string]polyvalue.Poly, []condition.TID) {
	r := rand.New(rand.NewSource(s.Seed))
	store := map[string]polyvalue.Poly{}
	var pending []condition.TID
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("in%d", i)
		base := value.Int(r.Int63n(20) + 1)
		if r.Intn(2) == 0 {
			tid := condition.TID(fmt.Sprintf("P%d", i))
			store[name] = polyvalue.Uncertain(tid,
				polyvalue.Simple(value.Int(r.Int63n(20)+1)), polyvalue.Simple(base))
			pending = append(pending, tid)
		} else {
			store[name] = polyvalue.Simple(base)
		}
	}
	ops := []string{"+", "-", "*"}
	src := fmt.Sprintf("out = in0 %s in1 %s in2 %s in3",
		ops[r.Intn(3)], ops[r.Intn(3)], ops[r.Intn(3)])
	if r.Intn(2) == 0 {
		src += fmt.Sprintf(" if in%d >= %d", r.Intn(4), r.Int63n(15))
	}
	if r.Intn(3) == 0 {
		src += fmt.Sprintf("; aux = in%d + %d", r.Intn(4), r.Int63n(5))
	}
	return txn.MustNew("TX", src), store, pending
}

// TestPropExecuteAgreesWithBruteForce: for every outcome assignment of
// the pending transactions, the composed output polyvalue denotes
// exactly what evaluating the program against the resolved inputs would
// produce — §3.2's correctness in full generality.
func TestPropExecuteAgreesWithBruteForce(t *testing.T) {
	ex := &Executor{}
	f := func(s scenario) bool {
		tx, store, pending := s.build()
		res, err := ex.Execute(tx, func(item string) polyvalue.Poly {
			if p, ok := store[item]; ok {
				return p
			}
			return polyvalue.Simple(value.Nil{})
		})
		if err != nil {
			return false
		}
		// Enumerate every assignment of the pending outcomes.
		total := 1 << len(pending)
		for m := 0; m < total; m++ {
			asn := map[condition.TID]bool{}
			for i, tid := range pending {
				asn[tid] = m&(1<<uint(i)) != 0
			}
			// Brute force: resolve every input, evaluate directly.
			env := expr.MapEnv{}
			for name, p := range store {
				v, ok := p.ResolveAll(asn).IsCertain()
				if !ok {
					return false
				}
				env[name] = v
			}
			writes, err := tx.Program.Eval(env)
			if err != nil {
				return false
			}
			for _, item := range tx.WriteSet() {
				want, wrote := writes[item]
				if !wrote {
					// Guard failed: previous value (Nil — outputs are
					// fresh items here).
					want = value.Nil{}
				}
				got, ok := res.Writes[item].ValueUnder(asn)
				if !ok || !got.Equal(want) {
					return false
				}
			}
		}
		// Well-formedness of every output.
		for _, p := range res.Writes {
			if !p.WellFormed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestPropCertainFlagAccurate: Result.Certain is true exactly when every
// written value is a one-pair polyvalue.
func TestPropCertainFlagAccurate(t *testing.T) {
	ex := &Executor{}
	f := func(s scenario) bool {
		tx, store, _ := s.build()
		res, err := ex.Execute(tx, func(item string) polyvalue.Poly {
			if p, ok := store[item]; ok {
				return p
			}
			return polyvalue.Simple(value.Nil{})
		})
		if err != nil {
			return false
		}
		allCertain := true
		for _, p := range res.Writes {
			if _, ok := p.IsCertain(); !ok {
				allCertain = false
			}
		}
		return res.Certain == allCertain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// pathCase is a random program over four read items and two items it may
// write but never reads, each input certain or polyvalued by mode: 0 all
// certain, 1 all polyvalued, 2 mixed.
func pathCase(seed int64) (txn.T, map[string]polyvalue.Poly) {
	r := rand.New(rand.NewSource(seed))
	mode := r.Intn(3)
	store := map[string]polyvalue.Poly{}
	for i, name := range []string{"in0", "in1", "in2", "in3", "w0", "w1"} {
		v := polyvalue.Simple(value.Int(r.Int63n(20)))
		if mode == 1 || (mode == 2 && r.Intn(2) == 0) {
			v = polyvalue.Uncertain(condition.TID(fmt.Sprintf("P%d", i)),
				polyvalue.Simple(value.Int(r.Int63n(20))), v)
		}
		store[name] = v
	}
	ops := []string{"+", "-", "*"}
	targets := []string{"in0", "in2", "w0", "w1", "out"}
	var stmts []string
	for _, target := range targets {
		if r.Intn(3) == 0 {
			continue
		}
		stmt := fmt.Sprintf("%s = in%d %s in%d", target, r.Intn(4), ops[r.Intn(3)], r.Intn(4))
		switch r.Intn(6) {
		case 0, 1, 2: // a guard that may hold or fail
			stmt += fmt.Sprintf(" if in%d >= %d", r.Intn(4), r.Int63n(20))
		case 3: // a guard that never holds
			stmt += " if in1 < 0 && in1 > 0"
		case 4: // not a boolean: both paths must fail the same way
			if r.Intn(4) == 0 {
				stmt += " if in3"
			}
		}
		stmts = append(stmts, stmt)
	}
	if len(stmts) == 0 {
		stmts = append(stmts, "out = in0 + 1")
	}
	return txn.MustNew("TX", strings.Join(stmts, "; ")), store
}

// TestPropCertainPathMatchesGeneral: Execute's certain path returns what
// the general partition-and-compose path returns — Result and error text
// alike — on certain, polyvalued and mixed inputs.  The certain path must
// keep an unwritten item's previous value even when that value is a
// polyvalue the program never reads.
func TestPropCertainPathMatchesGeneral(t *testing.T) {
	ex := &Executor{}
	keptPoly := 0
	for seed := int64(0); seed < 2000; seed++ {
		tx, store := pathCase(seed)
		lookup := storeOf(store)
		got, gotErr := ex.Execute(tx, lookup)
		want, wantErr := ex.execute(tx, lookup)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d %q: error %v, general path %v", seed, tx.Program, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.Alternatives != want.Alternatives || got.Certain != want.Certain || len(got.Writes) != len(want.Writes) {
			t.Fatalf("seed %d %q: %+v, general path %+v", seed, tx.Program, got, want)
		}
		for item, p := range want.Writes {
			if !got.Writes[item].Equal(p) {
				t.Fatalf("seed %d %q: %s = %v, general path %v", seed, tx.Program, item, got.Writes[item], p)
			}
		}
		if want.Alternatives == 1 {
			for _, item := range []string{"w0", "w1"} {
				if p, ok := got.Writes[item]; ok && p.NumPairs() > 1 {
					keptPoly++
				}
			}
		}
	}
	if keptPoly == 0 {
		t.Fatal("no case kept a polyvalued, written-but-unread item on the certain path")
	}
}

// TestCertainPathKeepsUnreadPolyvalue: the certain path's one subtle
// case, pinned.  w is written under a guard that fails and never read,
// so its polyvalue persists and the result is not certain.
func TestCertainPathKeepsUnreadPolyvalue(t *testing.T) {
	w := polyvalue.Uncertain("P", polyvalue.Simple(value.Int(1)), polyvalue.Simple(value.Int(2)))
	res, err := (&Executor{}).Execute(txn.MustNew("TX", "w = a + 1 if a < 0; b = a"), storeOf(map[string]polyvalue.Poly{
		"a": polyvalue.Simple(value.Int(5)), "w": w,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Certain || res.Alternatives != 1 || !res.Writes["w"].Equal(w) {
		t.Fatalf("res = %+v, want w kept as %v and Certain false", res, w)
	}
	if v, ok := res.Writes["b"].IsCertain(); !ok || !v.Equal(value.Int(5)) {
		t.Errorf("b = %v, want 5", res.Writes["b"])
	}
}
