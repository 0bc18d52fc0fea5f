package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

func TestBatchRoundTrip(t *testing.T) {
	msgs := goldenMessages()
	frame := batchFrame(msgs...)
	got, err := ReadMessages(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatalf("ReadMessages: %v", err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !messagesEqual(msgs[i], got[i]) {
			t.Errorf("msg %d: round trip mismatch\n in: %+v\nout: %+v", i, msgs[i], got[i])
		}
	}
	// Canonical: re-encoding the decoded batch is byte-identical.
	if again := batchFrame(got...); !bytes.Equal(frame, again) {
		t.Error("re-encoded batch frame not canonical")
	}
}

// TestBatchSingleElement: a frame of one is the same frame whether the
// builder or AppendFrame assembles it, and DecodeFrame reads it.
func TestBatchSingleElement(t *testing.T) {
	m := goldenMessages()[3] // prepare with values: the biggest one
	frame := batchFrame(m)
	if !bytes.Equal(frame, EncodeFrame(m)) {
		t.Fatal("one-message builder frame differs from EncodeFrame")
	}
	got, n, err := DecodeFrame(frame)
	if err != nil || n != len(frame) || !messagesEqual(m, got) {
		t.Fatalf("frame of one: got %+v, n=%d, err %v", got, n, err)
	}
}

// TestReadMessagesMixedStream interleaves frames of one and frames of
// several on one stream, as a TCP connection with intermittent
// coalescing produces.
func TestReadMessagesMixedStream(t *testing.T) {
	msgs := goldenMessages()
	var stream []byte
	stream = AppendFrame(stream, msgs[1])
	stream = append(stream, batchFrame(msgs[2:5]...)...)
	stream = append(stream, batchFrame(msgs[5])...)
	stream = append(stream, batchFrame(msgs[6:8]...)...)
	stream = AppendFrame(stream, msgs[8])

	r := bytes.NewReader(stream)
	var got []protocol.Message
	var sizes []int
	for {
		batch, err := ReadMessages(r, 0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadMessages: %v", err)
		}
		got = append(got, batch...)
		sizes = append(sizes, len(batch))
	}
	want := msgs[1:9]
	if len(got) != len(want) {
		t.Fatalf("read %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !messagesEqual(want[i], got[i]) {
			t.Errorf("msg %d mismatch", i)
		}
	}
	if len(sizes) != 5 || sizes[0] != 1 || sizes[1] != 3 || sizes[2] != 1 || sizes[3] != 2 || sizes[4] != 1 {
		t.Errorf("frame sizes %v, want [1 3 1 2 1]", sizes)
	}
}

// readOne reads a frame of one off a stream.
func readOne(t *testing.T, frame []byte) protocol.Message {
	t.Helper()
	got, err := ReadMessages(bytes.NewReader(frame), 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("frame of one: got %v, err %v", got, err)
	}
	return got[0]
}

// TestDecodePayloadDispatch: frames of one and of several decode off a
// stream, and an unknown format byte or an empty payload is refused.
func TestDecodePayloadDispatch(t *testing.T) {
	m := goldenMessages()[1]
	if got := readOne(t, EncodeFrame(m)); !messagesEqual(m, got) {
		t.Fatalf("frame of one: got %+v", got)
	}
	batch, err := ReadMessages(bytes.NewReader(batchFrame(m, m)), 0)
	if err != nil || len(batch) != 2 {
		t.Fatalf("frame of two: got %v, err %v", batch, err)
	}
	if _, err := ReadMessages(bytes.NewReader(rawFrame([]byte{99, 1, 0})), 0); !errors.Is(err, ErrVersion) {
		t.Errorf("unknown format: got %v, want ErrVersion", err)
	}
	if _, err := ReadMessages(bytes.NewReader(rawFrame(nil)), 0); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty payload: got %v, want ErrMalformed", err)
	}
}

// TestDecodePayloadPaxosVersion: a frame of one Paxos message decodes —
// paxos traffic below the coalescing threshold rides exactly this path.
func TestDecodePayloadPaxosVersion(t *testing.T) {
	m := protocol.Message{
		Kind: protocol.MsgPaxosAccept, TID: "t", From: "B", To: "D",
		Ballot: 7, Coordinator: "A",
		PaxosState: []protocol.PaxosInst{{Instance: "B", Ballot: 7, Vote: protocol.VotePrepared}},
	}
	if got := readOne(t, EncodeFrame(m)); !messagesEqual(m, got) {
		t.Fatalf("paxos frame of one: got %+v", got)
	}
}

// TestDecodePayloadAntiEntropyVersion: a frame of one gossip-carrying
// message — a gossip round, or any quorum read reply carrying replica
// versions — decodes.  Regression: the reader once rejected such
// unbatched frames, silently severing every quorum probe reply and
// gossip round sent over TCP.
func TestDecodePayloadAntiEntropyVersion(t *testing.T) {
	m := protocol.Message{
		Kind: protocol.MsgReadRep, TID: "t", From: "B", To: "A",
		Values:   map[string]polyvalue.Poly{"acct1_r0": polyvalue.Simple(value.Int(100))},
		Versions: map[string]uint64{"acct1_r0": 3},
	}
	if got := readOne(t, EncodeFrame(m)); !messagesEqual(m, got) {
		t.Fatalf("gossip frame of one: got %+v", got)
	}
}

func TestBatchDecodeErrors(t *testing.T) {
	m := goldenMessages()[1]
	good := batchFrame(m, m)[frameHeader:]
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrMalformed},
		{"wrong format", []byte{1, 1, 0}, ErrVersion},
		{"zero count", []byte{format, 0}, ErrMalformed},
		{"lying count", []byte{format, 200, 1}, ErrMalformed},
		{"huge count", append([]byte{format}, bytes.Repeat([]byte{0xff}, 9)...), ErrMalformed},
		{"over MaxBatch", append([]byte{format, 0x81, 0x20}, make([]byte, 5000)...), ErrMalformed},
		{"truncated element", good[:len(good)-3], ErrMalformed},
		{"trailing bytes", append(append([]byte{}, good...), 0), ErrMalformed},
	}
	for _, tc := range cases {
		if _, err := ReadMessages(bytes.NewReader(rawFrame(tc.buf)), 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// A corrupt inner element surfaces the element's error.
	bad := append([]byte{}, good...)
	bad[len(bad)-1] ^= 0xff
	if _, err := ReadMessages(bytes.NewReader(rawFrame(bad)), 0); !errors.Is(err, ErrMalformed) {
		t.Errorf("corrupt inner element: got %v, want ErrMalformed", err)
	}
	// DecodeFrame reads frames of one only.
	if _, _, err := DecodeFrame(batchFrame(m, m)); !errors.Is(err, ErrMalformed) {
		t.Errorf("DecodeFrame of two: got %v, want ErrMalformed", err)
	}
}

// TestBatchBuilder: the incremental builder emits a frame of one
// identical to AppendFrame's, counts and sizes what it holds, and
// survives Reset/reuse.
func TestBatchBuilder(t *testing.T) {
	msgs := goldenMessages()
	var b BatchBuilder

	b.Add(msgs[1])
	frame := b.AppendFrame(nil)
	if want := EncodeFrame(msgs[1]); !bytes.Equal(frame, want) {
		t.Error("one-message builder frame differs from EncodeFrame")
	}
	// Size is everything after the format byte and the count.
	if b.Count() != 1 || b.Size() != len(frame)-frameHeader-2 {
		t.Errorf("Count=%d Size=%d after one Add", b.Count(), b.Size())
	}

	b.Reset()
	for _, m := range msgs {
		b.Add(m)
	}
	got, err := ReadMessages(bytes.NewReader(b.AppendFrame(nil)), 0)
	if err != nil || len(got) != len(msgs) {
		t.Fatalf("multi-message builder frame: %d messages, err %v", len(got), err)
	}

	// Reset recycles cleanly: a fresh frame of one again.
	b.Reset()
	if b.Count() != 0 || b.Size() != 0 {
		t.Fatalf("Reset left Count=%d Size=%d", b.Count(), b.Size())
	}
	b.Add(msgs[2])
	if got, want := b.AppendFrame(nil), EncodeFrame(msgs[2]); !bytes.Equal(got, want) {
		t.Error("builder frame after Reset differs from EncodeFrame")
	}
}

// TestPropBatchRoundTrip: any batch of generated messages round-trips
// element-wise and re-encodes canonically.
func TestPropBatchRoundTrip(t *testing.T) {
	prop := func(ms []randMessage) bool {
		if len(ms) == 0 {
			return true
		}
		msgs := make([]protocol.Message, len(ms))
		for i, rm := range ms {
			msgs[i] = rm.M
		}
		frame := batchFrame(msgs...)
		got, err := ReadMessages(bytes.NewReader(frame), 0)
		if err != nil || len(got) != len(msgs) {
			return false
		}
		for i := range msgs {
			if !messagesEqual(msgs[i], got[i]) {
				return false
			}
		}
		return bytes.Equal(frame, batchFrame(got...))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzBatchDecode throws arbitrary payloads at the payload decoder.  It
// must never panic, and anything it accepts must re-encode to a
// canonical fixed point.
func FuzzBatchDecode(f *testing.F) {
	msgs := goldenMessages()
	f.Add(batchFrame(msgs...)[frameHeader:])
	f.Add(batchFrame(msgs[1])[frameHeader:])
	f.Add(batchFrame(msgs[16], msgs[22])[frameHeader:])
	f.Add([]byte{format})
	f.Add([]byte{format, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodePayload(data)
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatal("accepted payload decoded to zero messages")
		}
		for _, m := range got {
			for item, p := range m.Values {
				if !p.WellFormed() {
					t.Fatalf("accepted ill-formed polyvalue for %q: %s", item, p)
				}
			}
		}
		// Convergence: the canonical re-encoding of whatever was accepted
		// decodes back to the same messages and is a fixed point.
		enc := batchFrame(got...)
		again, err := decodePayload(enc[frameHeader:])
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("re-encoding changed the batch size")
		}
		for i := range got {
			if !messagesEqual(got[i], again[i]) {
				t.Fatalf("re-encoding changed message %d", i)
			}
		}
		if !bytes.Equal(enc, batchFrame(again...)) {
			t.Fatal("canonical form is not a fixed point")
		}
	})
}

// benchBatch builds a realistic 32-message commit-traffic batch:
// prepares with polyvalued values, readies, completes and acks.
func benchBatch() []protocol.Message {
	poly := polyvalue.Uncertain("T7",
		polyvalue.Simple(value.Int(150)), polyvalue.Simple(value.Int(100)))
	out := make([]protocol.Message, 0, 32)
	for i := 0; i < 8; i++ {
		out = append(out,
			protocol.Message{Kind: protocol.MsgPrepare, TID: "t42", From: "A", To: "B",
				Items: []string{"acct0", "acct1"}, Coordinator: "A",
				Program: "acct0 = acct0 - 10 if acct0 >= 10; acct1 = acct1 + 10 if acct0 >= 10",
				Values: map[string]polyvalue.Poly{
					"acct0": polyvalue.Simple(value.Int(1000)),
					"acct1": poly,
				}},
			protocol.Message{Kind: protocol.MsgReady, TID: "t42", From: "B", To: "A"},
			protocol.Message{Kind: protocol.MsgComplete, TID: "t42", From: "A", To: "B", Committed: true},
			protocol.Message{Kind: protocol.MsgOutcomeAck, TID: "t42", From: "B", To: "A"},
		)
	}
	return out
}

func BenchmarkWireBatch(b *testing.B) {
	msgs := benchBatch()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var bb BatchBuilder
		var buf []byte
		for i := 0; i < b.N; i++ {
			bb.Reset()
			for _, m := range msgs {
				bb.Add(m)
			}
			buf = bb.AppendFrame(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("decode", func(b *testing.B) {
		frame := batchFrame(msgs...)
		payload := frame[frameHeader:]
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := decodePayload(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The frames-of-one baseline coalescing replaces: N frames, N CRCs.
	b.Run("encode-singles", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, m := range msgs {
				buf = AppendFrame(buf, m)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
}
