package expr

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/value"
)

// Node is an expression AST node.  Nodes are immutable after parsing.
type Node interface {
	// String renders source-equivalent text.
	String() string
	// vars appends to names the item names the expression reads that
	// names does not hold yet.
	vars(names []string) []string
}

// Lit is a literal scalar.
type Lit struct{ V value.V }

// Ref reads the named database item.
type Ref struct{ Name string }

// Unary applies "-" (numeric negation) or "!" (boolean not).
type Unary struct {
	Op string
	X  Node
}

// Binary applies an infix operator.
type Binary struct {
	Op   string
	L, R Node
}

// Call invokes a builtin: min, max (variadic ≥1), abs (1 argument).
type Call struct {
	Fn   string
	Args []Node
}

func (n Lit) String() string { return n.V.String() }
func (n Ref) String() string { return n.Name }
func (n Unary) String() string {
	return n.Op + maybeParen(n.X)
}
func (n Binary) String() string {
	return maybeParen(n.L) + " " + n.Op + " " + maybeParen(n.R)
}
func (n Call) String() string {
	args := make([]string, len(n.Args))
	for i, a := range n.Args {
		args[i] = a.String()
	}
	return n.Fn + "(" + strings.Join(args, ", ") + ")"
}

func maybeParen(n Node) string {
	switch n.(type) {
	case Binary:
		return "(" + n.String() + ")"
	default:
		return n.String()
	}
}

func (n Lit) vars(names []string) []string    { return names }
func (n Ref) vars(names []string) []string    { return addName(names, n.Name) }
func (n Unary) vars(names []string) []string  { return n.X.vars(names) }
func (n Binary) vars(names []string) []string { return n.R.vars(n.L.vars(names)) }
func (n Call) vars(names []string) []string {
	for _, a := range n.Args {
		names = a.vars(names)
	}
	return names
}

// addName appends name unless names holds it already.  A program names a
// handful of items, so a scan is cheaper than a map.
func addName(names []string, name string) []string {
	if slices.Contains(names, name) {
		return names
	}
	return append(names, name)
}

// Vars returns the sorted names of the items an expression reads.
func Vars(n Node) []string {
	names := n.vars(nil)
	slices.Sort(names)
	return names
}

// Assign is one guarded assignment: Target = Expr [if Guard].  A nil
// Guard means unconditional.
type Assign struct {
	Target string
	Expr   Node
	Guard  Node
}

// ReadsOnly reports whether ok holds for every item the assignment reads,
// in its right-hand side or its guard.  It allocates nothing.
func (a Assign) ReadsOnly(ok func(name string) bool) bool {
	return readsOnly(a.Expr, ok) && readsOnly(a.Guard, ok)
}

func readsOnly(n Node, ok func(name string) bool) bool {
	switch n := n.(type) {
	case Ref:
		return ok(n.Name)
	case Unary:
		return readsOnly(n.X, ok)
	case Binary:
		return readsOnly(n.L, ok) && readsOnly(n.R, ok)
	case Call:
		return !slices.ContainsFunc(n.Args, func(a Node) bool { return !readsOnly(a, ok) })
	}
	return true
}

// String renders the assignment in source syntax.
func (a Assign) String() string {
	s := a.Target + " = " + a.Expr.String()
	if a.Guard != nil {
		s += " if " + a.Guard.String()
	}
	return s
}

// Program is a parsed transaction body: a sequence of guarded
// assignments.  All reads observe the *pre-state* (the paper's model of a
// transaction as a single mapping between database states), so statement
// order does not matter for semantics; guards and right-hand sides never
// see earlier statements' writes.
type Program struct {
	Stmts []Assign
	src   string
	// sets is what Parse computed of Stmts once, for the accessors.
	sets
}

// sets are a program's sorted read, write and item sets.
type sets struct {
	reads, writes, items []string
}

// analyse computes the sets of stmts.
func analyse(stmts []Assign) sets {
	// One array for both, sized for two reads per statement: appending
	// past either part's capacity moves that part, never overwrites.
	n := len(stmts)
	names := make([]string, 0, 3*n)
	reads, writes := names[:0:2*n], names[2*n:2*n]
	for _, s := range stmts {
		writes = addName(writes, s.Target)
		reads = s.Expr.vars(reads)
		if s.Guard != nil {
			reads = s.Guard.vars(reads)
		}
	}
	slices.Sort(reads)
	slices.Sort(writes)
	// Most programs read everything they write: then the item set is
	// the read set, and shares its array.
	items := slices.Clip(reads)
	for _, w := range writes {
		if !slices.Contains(reads, w) {
			items = append(items, w)
		}
	}
	if len(items) > len(reads) {
		slices.Sort(items)
	}
	return sets{reads: reads, writes: writes, items: items}
}

// analysed returns the program's sets: Parse's, or for a Program built
// as a literal, computed now.
func (p Program) analysed() sets {
	if p.items == nil && len(p.Stmts) > 0 {
		return analyse(p.Stmts)
	}
	return p.sets
}

// Filter returns the program of p's statements that keep accepts,
// analysed once, or p itself when keep accepts them all.  The result's
// String is empty unless it is p.
func (p Program) Filter(keep func(Assign) bool) Program {
	drop := func(a Assign) bool { return !keep(a) }
	if !slices.ContainsFunc(p.Stmts, drop) {
		return p
	}
	stmts := slices.DeleteFunc(slices.Clone(p.Stmts), drop)
	return Program{Stmts: stmts, sets: analyse(stmts)}
}

// String returns the original source text.
func (p Program) String() string { return p.src }

// ReadSet returns the sorted names of all items the program may read
// (right-hand sides and guards).  The slice belongs to the program, as
// do those of WriteSet and Items: callers must not modify it.
func (p Program) ReadSet() []string { return p.analysed().reads }

// WriteSet returns the sorted names of all items the program may write.
func (p Program) WriteSet() []string { return p.analysed().writes }

// Items returns the union of read and write sets: every item whose site
// participates in the transaction.
func (p Program) Items() []string { return p.analysed().items }

// Env supplies item values during evaluation.
type Env interface {
	// Lookup returns the current value of the named item.  Items never
	// written read as value.Nil.
	Lookup(name string) value.V
}

// MapEnv is the simplest Env: a map with Nil fallback.
type MapEnv map[string]value.V

// Lookup implements Env.
func (m MapEnv) Lookup(name string) value.V {
	if v, ok := m[name]; ok {
		return v
	}
	return value.Nil{}
}

// Eval evaluates the program against the pre-state env and returns the
// writes it performs.  Guarded assignments whose guard is false (or whose
// guard errors as non-boolean) produce no write.  All guards and
// right-hand sides read the pre-state only.
func (p Program) Eval(env Env) (map[string]value.V, error) {
	writes := make(map[string]value.V, len(p.Stmts))
	for _, s := range p.Stmts {
		if s.Guard != nil {
			g, err := evalNode(s.Guard, env)
			if err != nil {
				return nil, fmt.Errorf("expr: guard of %q: %w", s.Target, err)
			}
			b, ok := g.(value.Bool)
			if !ok {
				return nil, fmt.Errorf("expr: guard of %q is %s, want bool", s.Target, g.Kind())
			}
			if !bool(b) {
				continue
			}
		}
		v, err := evalNode(s.Expr, env)
		if err != nil {
			return nil, fmt.Errorf("expr: assignment to %q: %w", s.Target, err)
		}
		writes[s.Target] = v
	}
	return writes, nil
}
