package expr

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

func evalOne(t *testing.T, src string, env MapEnv) value.V {
	t.Helper()
	n, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	v, err := EvalExpr(n, env)
	if err != nil {
		t.Fatalf("EvalExpr(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	env := MapEnv{"x": value.Int(10), "y": value.Float(2.5)}
	cases := []struct {
		src  string
		want value.V
	}{
		{"1 + 2", value.Int(3)},
		{"2 * 3 + 4", value.Int(10)},
		{"2 + 3 * 4", value.Int(14)},
		{"(2 + 3) * 4", value.Int(20)},
		{"10 / 3", value.Int(3)},
		{"10 % 3", value.Int(1)},
		{"-x", value.Int(-10)},
		{"x + y", value.Float(12.5)},
		{"x / 4", value.Int(2)},
		{"x / 4.0", value.Float(2.5)},
		{"abs(-7)", value.Int(7)},
		{"abs(-2.5)", value.Float(2.5)},
		{"min(3, 1, 2)", value.Int(1)},
		{"max(3, 1, 2)", value.Int(3)},
		{"min(1.5, 2)", value.Float(1.5)},
		{`"foo" + "bar"`, value.Str("foobar")},
	}
	for _, c := range cases {
		if got := evalOne(t, c.src, env); !got.Equal(c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestComparisons(t *testing.T) {
	env := MapEnv{"bal": value.Int(100)}
	cases := []struct {
		src  string
		want bool
	}{
		{"bal >= 50", true},
		{"bal < 50", false},
		{"bal == 100", true},
		{"bal == 100.0", true}, // loose numeric equality
		{"bal != 99", true},
		{`"a" < "b"`, true},
		{"true == true", true},
		{"1 == \"1\"", false},
		{"bal >= 50 && bal <= 150", true},
		{"bal < 50 || bal > 99", true},
		{"!(bal < 50)", true},
	}
	for _, c := range cases {
		if got := evalOne(t, c.src, env); !got.Equal(value.Bool(c.want)) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Right operand would error (ordering bool), but must not be reached.
	env := MapEnv{"b": value.Bool(true)}
	if got := evalOne(t, "true || (1 < b)", env); !got.Equal(value.Bool(true)) {
		t.Errorf("|| short circuit = %v", got)
	}
	if got := evalOne(t, "false && (1 < b)", env); !got.Equal(value.Bool(false)) {
		t.Errorf("&& short circuit = %v", got)
	}
}

func TestEvalErrors(t *testing.T) {
	env := MapEnv{"s": value.Str("x")}
	bad := []string{
		"1 / 0", "1 % 0", "-s", "!s", "s * 2", "1 && true",
		"true < false && true", "min(s)", "nil + 1",
	}
	for _, src := range bad {
		n, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
		if _, err := EvalExpr(n, env); err == nil {
			t.Errorf("EvalExpr(%q) succeeded, want error", src)
		}
	}
}

func TestFloatDivisionByZero(t *testing.T) {
	// Float division by zero yields Inf, matching IEEE semantics.
	got := evalOne(t, "1.0 / 0.0", nil)
	f, ok := value.AsFloat(got)
	if !ok || !strings.Contains(got.String(), "Inf") || f <= 0 {
		t.Errorf("1.0/0.0 = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "x =", "= 5", "x = 5 if", "x 5", "x = (1", "x = 1)",
		"x = @", "x = \"unterminated", "x = abs(1, 2)", "x = min()",
		"x = 1; ; y = 2", "if = 3", "x = 1 extra",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestProgramSets(t *testing.T) {
	p := MustParse("dst = dst + amt if src >= amt; src = src - amt if src >= amt")
	reads := p.ReadSet()
	if len(reads) != 3 || reads[0] != "amt" || reads[1] != "dst" || reads[2] != "src" {
		t.Errorf("ReadSet = %v", reads)
	}
	writes := p.WriteSet()
	if len(writes) != 2 || writes[0] != "dst" || writes[1] != "src" {
		t.Errorf("WriteSet = %v", writes)
	}
	items := p.Items()
	if len(items) != 3 {
		t.Errorf("Items = %v", items)
	}
}

func TestProgramEvalPreState(t *testing.T) {
	// Both statements must read the pre-state: a transfer moves exactly
	// amt even though the first statement updates dst.
	p := MustParse("dst = dst + 50; src = src - 50")
	env := MapEnv{"src": value.Int(100), "dst": value.Int(0)}
	w, err := p.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if !w["dst"].Equal(value.Int(50)) || !w["src"].Equal(value.Int(50)) {
		t.Errorf("writes = %v", w)
	}
}

func TestProgramGuards(t *testing.T) {
	p := MustParse("bal = bal - 50 if bal >= 50")
	w, err := p.Eval(MapEnv{"bal": value.Int(100)})
	if err != nil || len(w) != 1 || !w["bal"].Equal(value.Int(50)) {
		t.Errorf("guarded eval = %v, %v", w, err)
	}
	w, err = p.Eval(MapEnv{"bal": value.Int(10)})
	if err != nil || len(w) != 0 {
		t.Errorf("failed guard should write nothing: %v, %v", w, err)
	}
}

func TestProgramGuardTypeError(t *testing.T) {
	p := MustParse("x = 1 if y + 1")
	if _, err := p.Eval(MapEnv{"y": value.Int(1)}); err == nil {
		t.Error("non-bool guard accepted")
	}
}

func TestMissingItemReadsNil(t *testing.T) {
	p := MustParse("x = 1 if y == nil")
	w, err := p.Eval(MapEnv{})
	if err != nil || !w["x"].Equal(value.Int(1)) {
		t.Errorf("nil default: %v, %v", w, err)
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	src := "dst = dst + 50 if src >= 50"
	p := MustParse(src)
	if p.String() != src {
		t.Errorf("String = %q", p.String())
	}
	// Statement rendering re-parses to an equivalent program.
	re := MustParse(p.Stmts[0].String())
	w1, _ := p.Eval(MapEnv{"src": value.Int(60), "dst": value.Int(1)})
	w2, _ := re.Eval(MapEnv{"src": value.Int(60), "dst": value.Int(1)})
	if len(w1) != len(w2) || !w1["dst"].Equal(w2["dst"]) {
		t.Errorf("statement round trip differs: %v vs %v", w1, w2)
	}
}

func TestIdentWithDots(t *testing.T) {
	p := MustParse("acct.1 = acct.1 + 1")
	if p.WriteSet()[0] != "acct.1" {
		t.Errorf("dotted identifiers broken: %v", p.WriteSet())
	}
}

func TestStringEscapes(t *testing.T) {
	got := evalOne(t, `"a\"b\\c"`, nil)
	if !got.Equal(value.Str(`a"b\c`)) {
		t.Errorf("escapes = %v", got)
	}
}

func TestFilterKeepsSetsAndSource(t *testing.T) {
	p := MustParse("a = a - 1 if b > 0; c = c + d")
	if all := p.Filter(func(Assign) bool { return true }); all.String() != p.String() || len(all.Stmts) != 2 {
		t.Errorf("keeping every statement gave %q (%d statements)", all.String(), len(all.Stmts))
	}
	second := p.Filter(func(s Assign) bool { return s.Target == "c" })
	if got := second.ReadSet(); !slices.Equal(got, []string{"c", "d"}) {
		t.Errorf("ReadSet = %v", got)
	}
	if got := second.WriteSet(); !slices.Equal(got, []string{"c"}) {
		t.Errorf("WriteSet = %v", got)
	}
	if none := p.Filter(func(Assign) bool { return false }); len(none.Stmts) != 0 || len(none.Items()) != 0 {
		t.Errorf("keeping nothing gave %v", none.Stmts)
	}
	first := p.Stmts[0]
	if !first.ReadsOnly(func(n string) bool { return n == "a" || n == "b" }) ||
		first.ReadsOnly(func(n string) bool { return n == "a" }) {
		t.Error("ReadsOnly ignores the guard or the right-hand side")
	}
}
