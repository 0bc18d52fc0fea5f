package replica

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/protocol"
	"repro/internal/value"
)

func TestNameLogicalRoundTrip(t *testing.T) {
	n := Name("acct", 2)
	if n != "acct_r2" {
		t.Errorf("Name = %q", n)
	}
	logical, i, ok := Logical(n)
	if !ok || logical != "acct" || i != 2 {
		t.Errorf("Logical = %q,%d,%v", logical, i, ok)
	}
	if _, _, ok := Logical("plain"); ok {
		t.Error("non-replica name parsed as replica")
	}
	if _, _, ok := Logical("x_rabc"); ok {
		t.Error("bad index parsed")
	}
	// Nested-looking names resolve to the LAST marker.
	logical, i, ok = Logical("a_r1_r2")
	if !ok || logical != "a_r1" || i != 2 {
		t.Errorf("nested Logical = %q,%d,%v", logical, i, ok)
	}
}

// TestRewriteWriteAllReadOne: write-all / read-one is the plan that
// reads one replica and writes every one, the quorum case W = K, R = 1.
func TestRewriteWriteAllReadOne(t *testing.T) {
	p := expr.MustParse("bal = bal - 50 if bal >= 50")
	r, err := RewritePlan(p, Plan{
		Reads:  map[string]int{"bal": 1},
		Writes: map[string][]int{"bal": {0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	writes := r.WriteSet()
	if len(writes) != 3 || writes[0] != "bal_r0" || writes[2] != "bal_r2" {
		t.Errorf("WriteSet = %v", writes)
	}
	reads := r.ReadSet()
	if len(reads) != 1 || reads[0] != "bal_r1" {
		t.Errorf("ReadSet = %v", reads)
	}
	// Semantics: evaluating the rewritten program with replica 1's value
	// updates every replica identically.
	env := expr.MapEnv{"bal_r0": value.Int(100), "bal_r1": value.Int(100), "bal_r2": value.Int(100)}
	out, err := r.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !out[Name("bal", i)].Equal(value.Int(50)) {
			t.Errorf("replica %d = %v", i, out[Name("bal", i)])
		}
	}
}

func TestRewriteMultiStatementAndCalls(t *testing.T) {
	p := expr.MustParse("a = min(a, b) + abs(-c); b = 2 * (a + 1)")
	r, err := RewritePlan(p, Plan{
		Reads:  map[string]int{"a": 0, "b": 0, "c": 0},
		Writes: map[string][]int{"a": {0, 1}, "b": {0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(r.Stmts))
	}
	env := expr.MapEnv{
		"a_r0": value.Int(5), "b_r0": value.Int(3), "c_r0": value.Int(-2),
		"a_r1": value.Int(5), "b_r1": value.Int(3), "c_r1": value.Int(-2),
	}
	out, err := r.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	// a := min(5,3)+abs(-(-2)) = 3+2 = 5; b := 2*(5+1) = 12 (pre-state a).
	for i := 0; i < 2; i++ {
		if !out[Name("a", i)].Equal(value.Int(5)) || !out[Name("b", i)].Equal(value.Int(12)) {
			t.Errorf("replica %d: a=%v b=%v", i, out[Name("a", i)], out[Name("b", i)])
		}
	}
}

func TestPlacementSpreadsReplicas(t *testing.T) {
	sites := []protocol.SiteID{"s0", "s1", "s2"}
	place := Placement(sites)
	seen := map[protocol.SiteID]bool{}
	for i := 0; i < 3; i++ {
		seen[place(Name("acct", i))] = true
	}
	if len(seen) != 3 {
		t.Errorf("replicas not on distinct sites: %v", seen)
	}
	// Deterministic.
	if place("plain") != place("plain") {
		t.Error("placement not deterministic")
	}
}
