package polyvalue

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/condition"
	"repro/internal/value"
)

// Wire format:
//
//	uvarint  number of pairs
//	per pair:
//	  value encoding (internal/value)
//	  condition encoding (internal/condition)
//
// Decoding validates well-formedness so a corrupted WAL or network frame
// cannot introduce an inconsistent polyvalue into a site's store.

// AppendBinary appends p's encoding to dst.
func (p Poly) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.pairs)))
	for _, pr := range p.pairs {
		dst = value.AppendBinary(dst, pr.Val)
		dst = pr.Cond.AppendBinary(dst)
	}
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p Poly) MarshalBinary() ([]byte, error) { return p.AppendBinary(nil), nil }

// DecodeBinary decodes one polyvalue from the front of buf, returning the
// polyvalue and bytes consumed.
func DecodeBinary(buf []byte) (Poly, int, error) {
	np, n := binary.Uvarint(buf)
	if n <= 0 {
		return Poly{}, 0, fmt.Errorf("polyvalue: truncated pair count")
	}
	if np > uint64(len(buf)) {
		return Poly{}, 0, fmt.Errorf("polyvalue: pair count %d exceeds input", np)
	}
	off := n
	pairs := make([]Pair, 0, np)
	for i := uint64(0); i < np; i++ {
		v, vn, err := value.DecodeBinary(buf[off:])
		if err != nil {
			return Poly{}, 0, fmt.Errorf("polyvalue: pair %d value: %w", i, err)
		}
		off += vn
		c, cn, err := decodeCond(buf[off:])
		if err != nil {
			return Poly{}, 0, fmt.Errorf("polyvalue: pair %d condition: %w", i, err)
		}
		off += cn
		pairs = append(pairs, Pair{Val: v, Cond: c})
	}
	if len(pairs) == 1 {
		// The certain value, nearly every one on the wire: the only
		// single pair New accepts is one whose condition is a tautology,
		// and one pair needs no merging, ordering or disjointness check.
		p := Poly{pairs: pairs}
		if err := checkCertain(p); err != nil {
			return Poly{}, 0, err
		}
		return p, off, nil
	}
	p, err := New(pairs)
	if err != nil {
		return Poly{}, 0, err
	}
	return p, off, nil
}

// checkCertain is New's verdict on a single pair: its condition must be
// satisfiable and, being the only one, a tautology.
func checkCertain(p Poly) error {
	c := p.pairs[0].Cond
	if c.IsFalse() {
		return fmt.Errorf("polyvalue: no pair with satisfiable condition")
	}
	if !c.IsTrue() {
		return fmt.Errorf("polyvalue: conditions not complete and disjoint: %s", p)
	}
	return nil
}

// trueEncoding is condition.True()'s encoding: one product, no literals.
var trueEncoding = alwaysTrue.AppendBinary(nil)

// decodeCond is condition.DecodeBinary, sharing alwaysTrue for the
// constant true.
func decodeCond(buf []byte) (condition.Cond, int, error) {
	if bytes.HasPrefix(buf, trueEncoding) {
		return alwaysTrue, len(trueEncoding), nil
	}
	return condition.DecodeBinary(buf)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; trailing bytes
// are an error.
func (p *Poly) UnmarshalBinary(data []byte) error {
	decoded, n, err := DecodeBinary(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("polyvalue: %d trailing bytes", len(data)-n)
	}
	*p = decoded
	return nil
}
