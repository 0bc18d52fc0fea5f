package replica

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/value"
)

// ---------------------------------------------------------------------
// Marker-collision regression tests: user items whose names natively
// contain the _r<digits> suffix must be rejected at rewrite time, not
// silently treated as replicas of another item.
// ---------------------------------------------------------------------

func TestCheckNameRejectsMarkerCollisions(t *testing.T) {
	bad := []string{"audit_r3", "x_r0", "a_r1_r2", "acct_r007"}
	for _, name := range bad {
		if err := CheckName(name); err == nil {
			t.Errorf("CheckName(%q) accepted a replica-namespace collision", name)
		}
	}
	good := []string{"audit", "x", "audit_r", "audit_rx", "_r3", "r3", "a_r-1", "bal_r3b"}
	for _, name := range good {
		if err := CheckName(name); err != nil {
			t.Errorf("CheckName(%q) = %v", name, err)
		}
	}
}

func TestRewriteRejectsMarkerCollisions(t *testing.T) {
	cases := []string{
		"audit_r3 = audit_r3 + 1", // write target collides
		"x = audit_r3 + 1",        // read collides
		"x = y if audit_r3 > 0",   // guard collides
	}
	plan := Plan{
		Reads:  map[string]int{"audit_r3": 0, "y": 0},
		Writes: map[string][]int{"audit_r3": {0}, "x": {0}},
	}
	for _, src := range cases {
		if _, err := RewritePlan(expr.MustParse(src), plan); err == nil {
			t.Errorf("RewritePlan accepted %q", src)
		} else if !strings.Contains(err.Error(), "replica namespace") {
			t.Errorf("RewritePlan(%q) wrong error: %v", src, err)
		}
	}
	// A clean program still rewrites.
	if _, err := RewritePlan(expr.MustParse("audit = audit + 1"), Plan{
		Reads: map[string]int{"audit": 0}, Writes: map[string][]int{"audit": {0, 1}},
	}); err != nil {
		t.Errorf("clean program rejected: %v", err)
	}
}

// TestRewriteExprRejectsMarkerCollisions: a read-only query names
// logical items as a transaction does.  The quorum coordinator checks
// every item the query reads with CheckName, so a colliding read is
// refused; a clean one is read from the replica the plan picks.
func TestRewriteExprRejectsMarkerCollisions(t *testing.T) {
	checkReads := func(src string) (expr.Node, error) {
		n, err := expr.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range expr.Vars(n) {
			if err := CheckName(name); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	if _, err := checkReads("audit_r3 + 1"); err == nil {
		t.Error("query read of a colliding name accepted")
	} else if !strings.Contains(err.Error(), "replica namespace") {
		t.Errorf("wrong error: %v", err)
	}
	n, err := checkReads("audit + 1")
	if err != nil {
		t.Fatalf("query read of a clean name rejected: %v", err)
	}
	got, err := expr.ParseExpr(rewritePlanNode(n, map[string]int{"audit": 0}))
	if err != nil {
		t.Fatal(err)
	}
	want := expr.Binary{Op: "+", L: expr.Ref{Name: "audit_r0"}, R: expr.Lit{V: value.Int(1)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rewritten query = %v, want %v", got, want)
	}
}

func TestRewritePlanRejectsMarkerCollisions(t *testing.T) {
	p := expr.MustParse("audit_r3 = audit_r3 + 1")
	plan := Plan{Reads: map[string]int{"audit_r3": 0}, Writes: map[string][]int{"audit_r3": {0}}}
	if _, err := RewritePlan(p, plan); err == nil {
		t.Error("RewritePlan accepted a colliding name")
	}
}

// ---------------------------------------------------------------------
// RewritePlan: quorum-form rewrites.
// ---------------------------------------------------------------------

func TestRewritePlanReadsAndWrites(t *testing.T) {
	p := expr.MustParse("bal = bal - 50 if bal >= 50")
	plan := Plan{
		Reads:  map[string]int{"bal": 2},
		Writes: map[string][]int{"bal": {0, 2}},
	}
	r, err := RewritePlan(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	writes := r.WriteSet()
	if len(writes) != 2 || writes[0] != "bal_r0" || writes[1] != "bal_r2" {
		t.Errorf("WriteSet = %v", writes)
	}
	reads := r.ReadSet()
	if len(reads) != 1 || reads[0] != "bal_r2" {
		t.Errorf("ReadSet = %v", reads)
	}
	env := expr.MapEnv{"bal_r0": value.Int(70), "bal_r2": value.Int(100)}
	out, err := r.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	// Both chosen replicas take the value computed from the read replica.
	for _, it := range []string{"bal_r0", "bal_r2"} {
		if !out[it].Equal(value.Int(50)) {
			t.Errorf("%s = %v", it, out[it])
		}
	}
}

func TestRewritePlanMissingCoverage(t *testing.T) {
	p := expr.MustParse("a = b + 1")
	if _, err := RewritePlan(p, Plan{
		Reads: map[string]int{}, Writes: map[string][]int{"a": {0}},
	}); err == nil {
		t.Error("missing read coverage accepted")
	}
	if _, err := RewritePlan(p, Plan{
		Reads: map[string]int{"b": 0}, Writes: map[string][]int{},
	}); err == nil {
		t.Error("missing write coverage accepted")
	}
}

// ---------------------------------------------------------------------
// testing/quick property: a random expression tree rendered through the
// rewrite path, every read bound to one replica, and re-parsed equals
// the same tree with its item references structurally renamed — guards,
// operator precedence and call expressions all survive the string round
// trip.
// ---------------------------------------------------------------------

var binOps = []string{"||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"}
var refNames = []string{"bal", "seats", "audit", "acct.1", "x"}

// randNode builds a random expression tree of bounded depth.
func randNode(r *rand.Rand, depth int) expr.Node {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return expr.Lit{V: value.Int(int64(r.Intn(100)))}
		}
		return expr.Ref{Name: refNames[r.Intn(len(refNames))]}
	}
	switch r.Intn(8) {
	case 0:
		return expr.Lit{V: value.Int(int64(r.Intn(100)))}
	case 1:
		return expr.Ref{Name: refNames[r.Intn(len(refNames))]}
	case 2:
		op := "-"
		if r.Intn(2) == 0 {
			op = "!"
		}
		return expr.Unary{Op: op, X: randNode(r, depth-1)}
	case 3, 4, 5:
		return expr.Binary{
			Op: binOps[r.Intn(len(binOps))],
			L:  randNode(r, depth-1),
			R:  randNode(r, depth-1),
		}
	default:
		fn := []string{"min", "max", "abs"}[r.Intn(3)]
		nargs := 1
		if fn != "abs" {
			nargs = 1 + r.Intn(3)
		}
		args := make([]expr.Node, nargs)
		for i := range args {
			args[i] = randNode(r, depth-1)
		}
		return expr.Call{Fn: fn, Args: args}
	}
}

// renameRefs structurally applies the replica renaming the rewrite path
// performs textually.
func renameRefs(n expr.Node, readFrom int) expr.Node {
	switch x := n.(type) {
	case expr.Ref:
		return expr.Ref{Name: Name(x.Name, readFrom)}
	case expr.Unary:
		return expr.Unary{Op: x.Op, X: renameRefs(x.X, readFrom)}
	case expr.Binary:
		return expr.Binary{Op: x.Op, L: renameRefs(x.L, readFrom), R: renameRefs(x.R, readFrom)}
	case expr.Call:
		args := make([]expr.Node, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameRefs(a, readFrom)
		}
		return expr.Call{Fn: x.Fn, Args: args}
	default:
		return n
	}
}

// readsFrom binds every name randNode can reference to replica readFrom.
func readsFrom(readFrom int) map[string]int {
	reads := map[string]int{}
	for _, name := range refNames {
		reads[name] = readFrom
	}
	return reads
}

func TestPropRewriteNodeRoundTrip(t *testing.T) {
	prop := func(seed int64, rf uint8) bool {
		r := rand.New(rand.NewSource(seed))
		readFrom := int(rf % 4)
		n := randNode(r, 4)
		src := rewritePlanNode(n, readsFrom(readFrom))
		got, err := expr.ParseExpr(src)
		if err != nil {
			t.Logf("rendered %q does not parse: %v", src, err)
			return false
		}
		want := renameRefs(n, readFrom)
		if !reflect.DeepEqual(got, want) {
			t.Logf("round trip mismatch:\n  src  %q\n  got  %#v\n  want %#v", src, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropRewriteProgramRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(3)
		readFrom := r.Intn(k)
		nstmts := 1 + r.Intn(3)
		stmts := make([]expr.Assign, nstmts)
		targets := []string{"a", "b", "c"}
		for i := range stmts {
			stmts[i] = expr.Assign{Target: targets[i], Expr: randNode(r, 3)}
			if r.Intn(2) == 0 {
				stmts[i].Guard = randNode(r, 2)
			}
		}
		p := expr.Program{Stmts: stmts}
		plan := Plan{Reads: readsFrom(readFrom), Writes: map[string][]int{}}
		for _, st := range stmts {
			for i := 0; i < k; i++ {
				plan.Writes[st.Target] = append(plan.Writes[st.Target], i)
			}
		}
		rw, err := RewritePlan(p, plan)
		if err != nil {
			t.Logf("RewritePlan failed: %v", err)
			return false
		}
		if len(rw.Stmts) != nstmts*k {
			t.Logf("stmt count %d, want %d", len(rw.Stmts), nstmts*k)
			return false
		}
		for si, stmt := range stmts {
			wantExpr := renameRefs(stmt.Expr, readFrom)
			var wantGuard expr.Node
			if stmt.Guard != nil {
				wantGuard = renameRefs(stmt.Guard, readFrom)
			}
			for i := 0; i < k; i++ {
				got := rw.Stmts[si*k+i]
				if got.Target != Name(stmt.Target, i) {
					t.Logf("stmt %d replica %d target %q", si, i, got.Target)
					return false
				}
				if !reflect.DeepEqual(got.Expr, wantExpr) || !reflect.DeepEqual(got.Guard, wantGuard) {
					t.Logf("stmt %d replica %d body mismatch", si, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
