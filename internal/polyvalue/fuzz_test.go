package polyvalue

import (
	"testing"

	"repro/internal/condition"
	"repro/internal/value"
)

// FuzzDecodeBinary: arbitrary bytes must never panic the decoder, never
// produce an ill-formed polyvalue, and anything that decodes must
// round-trip.
func FuzzDecodeBinary(f *testing.F) {
	seeds := []Poly{
		Simple(value.Int(1)),
		Uncertain("T1", Simple(value.Int(2)), Simple(value.Int(3))),
		Uncertain("T2", Simple(value.Str("x")),
			Uncertain("T1", Simple(value.Bool(true)), Simple(value.Nil{}))),
	}
	for _, p := range seeds {
		data, _ := p.MarshalBinary()
		f.Add(data)
	}
	// One pair whose condition can fail: the one-pair path must reject it.
	f.Add(condition.Committed("T1").AppendBinary(value.AppendBinary([]byte{1}, value.Int(1))))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if !p.WellFormed() {
			t.Fatalf("decoder produced ill-formed polyvalue %v", p)
		}
		re, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Poly
		if err := back.UnmarshalBinary(re); err != nil {
			t.Fatalf("re-encode/decode failed: %v", err)
		}
		if !back.Equal(p) {
			t.Fatalf("round trip changed %v to %v", p, back)
		}
	})
}
