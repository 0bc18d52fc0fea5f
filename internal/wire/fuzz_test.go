package wire

import (
	"bytes"
	"testing"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// FuzzMessageDecode throws arbitrary bytes at the frame decoder.  The
// decoder must never panic; any frame it accepts must contain only
// well-formed polyvalues and must re-encode to a canonical fixed point.
func FuzzMessageDecode(f *testing.F) {
	for _, m := range goldenMessages() {
		frame := EncodeFrame(m)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < frameHeader || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for item, p := range m.Values {
			if !p.WellFormed() {
				t.Fatalf("accepted ill-formed polyvalue for %q: %s", item, p)
			}
		}
		// Convergence: an accepted message re-encodes to a frame that
		// decodes to the same message, and that re-encoding is a fixed
		// point (byte-identical under a second round trip).  The input
		// itself may be non-canonical — over-long uvarints, unsorted
		// values — which decoding normalizes.
		enc := EncodeFrame(m)
		m2, n2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if n2 != len(enc) || !messagesEqual(m, m2) {
			t.Fatalf("re-encoding changed the message")
		}
		if !bytes.Equal(enc, EncodeFrame(m2)) {
			t.Fatalf("canonical form is not a fixed point")
		}
	})
}

// msgFlags returns the flags byte of a raw message.
func msgFlags(msg []byte) byte {
	frame := rawFrame(onePayload(msg))
	return frame[flagsAt(frame)]
}

// fuzzSection drives the message decoder from seeds carrying one
// optional section (bit).  Anything accepted must re-encode with the
// same flags, decode back to the same message, and be a fixed point of
// decode → re-encode.
func fuzzSection(f *testing.F, bit byte) {
	for _, m := range goldenMessages() {
		if flagsOf(m)&bit != 0 {
			f.Add(appendMessage(nil, m))
		}
	}
	f.Add(append(prefix(protocol.MsgReadRep, bit), 1, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(data)
		if err != nil {
			return
		}
		enc := appendMessage(nil, m)
		if in, out := msgFlags(data), msgFlags(enc); in != out {
			t.Fatalf("re-encoding changed the flags: %#x → %#x", in, out)
		}
		m2, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !messagesEqual(m, m2) {
			t.Fatalf("re-encoding changed the message")
		}
		if !bytes.Equal(enc, appendMessage(nil, m2)) {
			t.Fatalf("canonical form is not a fixed point")
		}
	})
}

// FuzzPaxosDecode focuses the message decoder on the Paxos section
// (ballot, participants, instance state), on paxos and plain kinds.
func FuzzPaxosDecode(f *testing.F) { fuzzSection(f, hasPaxos) }

// FuzzAntiEntropyDecode focuses the message decoder on the gossip
// section (outcomes, versions), on gossip and plain kinds.
func FuzzAntiEntropyDecode(f *testing.F) { fuzzSection(f, hasGossip) }

// FuzzPolyDecode fuzzes the polyvalue segment of the wire format — the
// same canonical form messages embed in their Values maps.  Accepted
// polyvalues must be well-formed and canonical.
func FuzzPolyDecode(f *testing.F) {
	seeds := []polyvalue.Poly{
		polyvalue.Simple(value.Int(100)),
		polyvalue.Simple(value.Nil{}),
		polyvalue.Uncertain("T1", polyvalue.Simple(value.Int(150)), polyvalue.Simple(value.Int(100))),
		polyvalue.Uncertain("T2",
			polyvalue.Uncertain("T3", polyvalue.Simple(value.Str("a")), polyvalue.Simple(value.Bool(true))),
			polyvalue.Simple(value.Float(1.5))),
	}
	for _, p := range seeds {
		f.Add(p.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := polyvalue.DecodeBinary(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !p.WellFormed() {
			t.Fatalf("accepted ill-formed polyvalue %s", p)
		}
		// Decoding the canonical re-encoding is the identity.
		again, _, err := polyvalue.DecodeBinary(p.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-decode of canonical form failed: %v", err)
		}
		if !p.Equal(again) {
			t.Fatalf("canonical re-encode changed the polyvalue")
		}
	})
}
