// Package expr implements a small expression language for declaring
// transaction bodies as data.  A transaction in the paper is "a mapping
// from one database state to another" (§3); here that mapping is a
// program of guarded assignments over named items, e.g.
//
//	src = src - 50 if src >= 50; dst = dst + 50 if src >= 50
//
// The cluster runtime, the §4.2 simulator workloads and the §5 example
// applications all share this representation, and the polytransaction
// engine re-evaluates a program once per alternative input combination.
package expr

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // operators and punctuation
	tokKeyword
)

// isKeyword reports whether word is reserved.
func isKeyword(word string) bool {
	switch word {
	case "if", "true", "false", "nil", "min", "max", "abs":
		return true
	}
	return false
}

// token is one lexeme with its source position (byte offset) for error
// reporting.
type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits src into tokens.  It is a simple single-pass scanner; the
// language has no comments and strings use double quotes with \" and \\
// escapes.
func lex(src string) ([]token, error) {
	// Tokens are mostly separated by blanks: about one per two bytes.
	toks := make([]token, 0, len(src)/2+2)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < len(src) && (isIdentByte(src[i])) {
				i++
			}
			word := src[start:i]
			kind := tokIdent
			if isKeyword(word) {
				kind = tokKeyword
			}
			toks = append(toks, token{kind: kind, text: word, pos: start})
		case unicode.IsDigit(rune(c)):
			start := i
			seenDot := false
			for i < len(src) && (unicode.IsDigit(rune(src[i])) || (src[i] == '.' && !seenDot)) {
				if src[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i], pos: start})
		case c == '"':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\\' && i+1 < len(src) {
					sb.WriteByte(src[i+1])
					i += 2
					continue
				}
				if src[i] == '"' {
					i++
					closed = true
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("expr: unterminated string at offset %d", start)
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		default:
			op, n := lexOp(src[i:])
			if n == 0 {
				return nil, fmt.Errorf("expr: unexpected character %q at offset %d", c, i)
			}
			toks = append(toks, token{kind: tokOp, text: op, pos: i})
			i += n
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(src)})
	return toks, nil
}

func isIdentByte(b byte) bool {
	return unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b)) || b == '_' || b == '.'
}

// lexOp matches the longest operator at the front of s.
func lexOp(s string) (string, int) {
	if len(s) > 1 {
		switch s[:2] {
		case "==", "!=", "<=", ">=", "&&", "||":
			return s[:2], 2
		}
	}
	switch s[0] {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!', '(', ')', ';', ',':
		return s[:1], 1
	}
	return "", 0
}
