package expr

import (
	"slices"
	"testing"

	"repro/internal/value"
)

// FuzzParseProgram: the parser must never panic; accepted programs must
// have the read, write and item sets a map-based walk of the syntax tree
// finds, and evaluate without panicking against a permissive environment.
func FuzzParseProgram(f *testing.F) {
	for _, seed := range []string{
		"x = 1", "x = y + 1 if y > 0", "a = b; c = d * 2",
		"x = min(a, b, c) if !(a == b)", `s = "lit" + t`,
		"x = 1 if", "= 2", "x = (", "x = 1; ; y",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if len(p.WriteSet()) == 0 {
			t.Fatalf("accepted program %q writes nothing", src)
		}
		reads, writes, items := referenceSets(p)
		if !slices.Equal(p.ReadSet(), reads) || !slices.Equal(p.WriteSet(), writes) || !slices.Equal(p.Items(), items) {
			t.Fatalf("%q: sets %v / %v / %v, reference %v / %v / %v",
				src, p.ReadSet(), p.WriteSet(), p.Items(), reads, writes, items)
		}
		env := MapEnv{}
		for _, name := range p.ReadSet() {
			env[name] = value.Int(1)
		}
		// Evaluation may fail (type errors) but must not panic.
		_, _ = p.Eval(env)
		// The rendered source must re-parse.
		if _, err := Parse(p.String()); err != nil {
			t.Fatalf("String() of accepted program does not re-parse: %q: %v", p.String(), err)
		}
	})
}

// referenceSets computes a program's sorted read, write and item sets the
// plain way: maps filled by walking the syntax tree.
func referenceSets(p Program) (reads, writes, items []string) {
	r, w := map[string]bool{}, map[string]bool{}
	var walk func(n Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case Ref:
			r[x.Name] = true
		case Unary:
			walk(x.X)
		case Binary:
			walk(x.L)
			walk(x.R)
		case Call:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	for _, s := range p.Stmts {
		w[s.Target] = true
		walk(s.Expr)
		if s.Guard != nil {
			walk(s.Guard)
		}
	}
	all := map[string]bool{}
	for n := range r {
		all[n] = true
	}
	for n := range w {
		all[n] = true
	}
	return sortedKeys(r), sortedKeys(w), sortedKeys(all)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
