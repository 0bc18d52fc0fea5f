package expr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Parse compiles transaction source text into a Program.
//
// Grammar (whitespace-insensitive):
//
//	program := stmt { ";" stmt } [ ";" ]
//	stmt    := ident "=" expr [ "if" expr ]
//	expr    := or
//	or      := and { "||" and }
//	and     := cmp { "&&" cmp }
//	cmp     := add [ ("=="|"!="|"<"|"<="|">"|">=") add ]
//	add     := mul { ("+"|"-") mul }
//	mul     := unary { ("*"|"/"|"%") unary }
//	unary   := [ "-" | "!" ] primary
//	primary := number | string | "true" | "false" | "nil" | ident
//	         | ("min"|"max"|"abs") "(" expr { "," expr } ")"
//	         | "(" expr ")"
func Parse(src string) (Program, error) {
	toks, err := lex(src)
	if err != nil {
		return Program{}, err
	}
	p := &parser{toks: toks}
	// One statement per ';' and one more, give or take a ';' inside a
	// string literal.
	stmts := make([]Assign, 0, strings.Count(src, ";")+1)
	for !p.at(tokEOF) {
		stmt, err := p.parseStmt()
		if err != nil {
			return Program{}, err
		}
		stmts = append(stmts, stmt)
		if p.atOp(";") {
			p.next()
			continue
		}
		break
	}
	if !p.at(tokEOF) {
		return Program{}, fmt.Errorf("expr: unexpected %s at offset %d", p.peek(), p.peek().pos)
	}
	if len(stmts) == 0 {
		return Program{}, fmt.Errorf("expr: empty program")
	}
	return Program{Stmts: stmts, src: src, sets: analyse(stmts)}, nil
}

// MustParse is Parse that panics on error; for tests and fixed workloads.
func MustParse(src string) Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseExpr compiles a single expression (no assignment), useful for
// read-only queries against a store.
func ParseExpr(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, fmt.Errorf("expr: unexpected %s at offset %d", p.peek(), p.peek().pos)
	}
	return n, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token         { return p.toks[p.i] }
func (p *parser) next() token         { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k tokenKind) bool { return p.peek().kind == k }
func (p *parser) atOp(op string) bool {
	return p.peek().kind == tokOp && p.peek().text == op
}
func (p *parser) atKeyword(kw string) bool {
	return p.peek().kind == tokKeyword && p.peek().text == kw
}

func (p *parser) expectOp(op string) error {
	if !p.atOp(op) {
		return fmt.Errorf("expr: expected %q, found %s at offset %d", op, p.peek(), p.peek().pos)
	}
	p.next()
	return nil
}

func (p *parser) parseStmt() (Assign, error) {
	if !p.at(tokIdent) {
		return Assign{}, fmt.Errorf("expr: expected item name, found %s at offset %d", p.peek(), p.peek().pos)
	}
	target := p.next().text
	if err := p.expectOp("="); err != nil {
		return Assign{}, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return Assign{}, err
	}
	var guard Node
	if p.atKeyword("if") {
		p.next()
		guard, err = p.parseExpr()
		if err != nil {
			return Assign{}, err
		}
	}
	return Assign{Target: target, Expr: rhs, Guard: guard}, nil
}

func (p *parser) parseExpr() (Node, error) { return p.parseOr() }

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atOp("||") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.atOp("&&") {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

// isCmpOp reports whether op is a comparison operator.
func isCmpOp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseCmp() (Node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokOp && isCmpOp(p.peek().text) {
		op := p.next().text
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Node, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		op := p.next().text
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") || p.atOp("%") {
		op := p.next().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Node, error) {
	if p.atOp("-") || p.atOp("!") {
		op := p.next().text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: op, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return Lit{V: value.Int(i)}, nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad number %q at offset %d", t.text, t.pos)
		}
		return Lit{V: value.Float(f)}, nil
	case t.kind == tokString:
		p.next()
		return Lit{V: value.Str(t.text)}, nil
	case t.kind == tokKeyword && (t.text == "true" || t.text == "false"):
		p.next()
		return Lit{V: value.Bool(t.text == "true")}, nil
	case t.kind == tokKeyword && t.text == "nil":
		p.next()
		return Lit{V: value.Nil{}}, nil
	case t.kind == tokKeyword && (t.text == "min" || t.text == "max" || t.text == "abs"):
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var args []Node
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.atOp(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if t.text == "abs" && len(args) != 1 {
			return nil, fmt.Errorf("expr: abs takes 1 argument, got %d at offset %d", len(args), t.pos)
		}
		return Call{Fn: t.text, Args: args}, nil
	case t.kind == tokIdent:
		p.next()
		return Ref{Name: t.text}, nil
	case t.kind == tokOp && t.text == "(":
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return inner, nil
	default:
		return nil, fmt.Errorf("expr: unexpected %s at offset %d", t, t.pos)
	}
}
