package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/condition"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/txn"
	"repro/internal/value"
)

// goldenMessages covers every message kind and every populated field,
// including polyvalued Values maps.  Shared with the fuzz seed corpus.
func goldenMessages() []protocol.Message {
	poly := polyvalue.Uncertain("T7",
		polyvalue.Simple(value.Int(150)),
		polyvalue.Simple(value.Int(100)))
	nested := polyvalue.Uncertain("T9", poly, polyvalue.Simple(value.Str("x")))
	return []protocol.Message{
		{},
		{Kind: protocol.MsgReadReq, TID: "t1", From: "A", To: "B",
			Items: []string{"acct0", "acct1"}, Update: true, Coordinator: "A"},
		{Kind: protocol.MsgReadRep, TID: "t1", From: "B", To: "A",
			Values: map[string]polyvalue.Poly{
				"acct0": polyvalue.Simple(value.Int(100)),
				"acct1": poly,
			}},
		{Kind: protocol.MsgPrepare, TID: "t2", From: "A", To: "C",
			Items:   []string{"acct2"},
			Program: "acct2 = acct2 - 50 if acct2 >= 50",
			Values: map[string]polyvalue.Poly{
				"acct0": nested,
				"f":     polyvalue.Simple(value.Float(2.5)),
				"b":     polyvalue.Simple(value.Bool(true)),
				"n":     polyvalue.Simple(value.Nil{}),
			},
			Coordinator: "A"},
		{Kind: protocol.MsgReady, TID: "t2", From: "C", To: "A", ReadOnly: true},
		{Kind: protocol.MsgRefuse, TID: "t2", From: "C", To: "A",
			Reason: "lock conflict at C"},
		{Kind: protocol.MsgComplete, TID: "t2", From: "A", To: "C", Committed: true},
		{Kind: protocol.MsgAbort, TID: "t2", From: "A", To: "C"},
		{Kind: protocol.MsgOutcomeReq, TID: "t3", From: "C", To: "A"},
		{Kind: protocol.MsgOutcomeInfo, TID: "t3", From: "A", To: "C", Committed: true},
		{Kind: protocol.MsgOutcomeAck, TID: "t3", From: "C", To: "A"},
		// Deadline-carrying traffic.
		{Kind: protocol.MsgReadReq, TID: "t4", From: "A", To: "B",
			Items: []string{"acct0"}, Update: true, Coordinator: "A",
			Deadline: 250 * 1e6},
		// Trace-context-carrying traffic, with and without a deadline
		// riding along.
		{Kind: protocol.MsgPrepare, TID: "t5", From: "A", To: "C",
			Items: []string{"acct2"}, Program: "acct2 = acct2 + 1",
			Coordinator: "A", Deadline: 500 * 1e6, TraceCtx: 0x7e57_0001},
		{Kind: protocol.MsgReadReq, TID: "t5", From: "A", To: "B",
			Items: []string{"acct1"}, Update: true, Coordinator: "A",
			TraceCtx: 1},
		// The Paxos Commit decision plane, every kind.
		{Kind: protocol.MsgPaxosBegin, TID: "t6", From: "A", To: "D",
			Coordinator: "A", Participants: []protocol.SiteID{"A", "B", "C"}},
		{Kind: protocol.MsgPaxosPrepare, TID: "t6", From: "B", To: "D",
			Ballot: 7},
		{Kind: protocol.MsgPaxosPromise, TID: "t6", From: "D", To: "B",
			Ballot:       7,
			Participants: []protocol.SiteID{"A", "B", "C"},
			PaxosState: []protocol.PaxosInst{
				{Instance: "B", Ballot: 0, Vote: protocol.VotePrepared},
				{Instance: "C", Ballot: 4, Vote: protocol.VoteAborted},
			}},
		{Kind: protocol.MsgPaxosAccept, TID: "t6", From: "B", To: "D",
			Ballot: 0, Coordinator: "A",
			PaxosState: []protocol.PaxosInst{
				{Instance: "B", Ballot: 0, Vote: protocol.VotePrepared},
			},
			TraceCtx: 0x7e57_0002},
		{Kind: protocol.MsgPaxosAccepted, TID: "t6", From: "D", To: "A",
			Ballot: 0,
			PaxosState: []protocol.PaxosInst{
				{Instance: "B", Ballot: 0, Vote: protocol.VotePrepared},
			}},
		{Kind: protocol.MsgPaxosReject, TID: "t6", From: "D", To: "B",
			Ballot: 12},
		{Kind: protocol.MsgPaxosDecision, TID: "t6", From: "A", To: "D",
			Committed: true, Reason: "all prepared"},
		// The anti-entropy gossip plane, every kind — including an empty
		// digest, which carries no gossip section at all.
		{Kind: protocol.MsgAntiEntropyDigest, From: "A", To: "B"},
		{Kind: protocol.MsgAntiEntropyDigest, From: "A", To: "B",
			Outcomes: []protocol.OutcomeRec{
				{TID: "t1", Committed: true},
				{TID: "t2", Committed: false},
			},
			Versions: map[string]uint64{"bal": 3, "seats": 12}},
		{Kind: protocol.MsgAntiEntropyReply, From: "B", To: "A",
			Outcomes: []protocol.OutcomeRec{{TID: "t9", Committed: true}},
			Items:    []string{"bal"},
			Versions: map[string]uint64{"seats": 13},
			Values: map[string]polyvalue.Poly{
				"seats": polyvalue.Simple(value.Int(42)),
			}},
		{Kind: protocol.MsgAntiEntropyUpdate, From: "A", To: "B",
			Versions: map[string]uint64{"bal": 4},
			Values: map[string]polyvalue.Poly{
				"bal": polyvalue.Simple(value.Int(60)),
			}},
		// Gossip fields on non-gossip kinds: quorum replication stamps
		// replica versions on read replies and prepares.
		{Kind: protocol.MsgReadRep, TID: "t7", From: "B", To: "A",
			Values: map[string]polyvalue.Poly{
				"bal_r1": polyvalue.Simple(value.Int(100)),
			},
			Versions: map[string]uint64{"bal_r1": 7}},
		{Kind: protocol.MsgPrepare, TID: "t8", From: "A", To: "C",
			Items: []string{"bal_r2"}, Program: "bal_r2 = 50",
			Coordinator: "A", Deadline: 250 * 1e6, TraceCtx: 0x7e57_0003,
			Versions: map[string]uint64{"bal_r2": 8}},
		// Every section rides on every kind: gossip on a paxos kind, paxos
		// fields on a plain kind, a deadline and trace context on gossip.
		{Kind: protocol.MsgPaxosAccepted, TID: "t10", From: "D", To: "A",
			Ballot: 2, PaxosState: []protocol.PaxosInst{{Instance: "B", Ballot: 2, Vote: protocol.VotePrepared}},
			Outcomes: []protocol.OutcomeRec{{TID: "t1", Committed: true}}},
		{Kind: protocol.MsgComplete, TID: "t11", From: "A", To: "C", Committed: true,
			Participants: []protocol.SiteID{"B", "C"}},
		{Kind: protocol.MsgAntiEntropyUpdate, From: "A", To: "B",
			Deadline: 100 * 1e6, TraceCtx: 0x7e57_0004,
			Versions: map[string]uint64{"bal": 5}},
	}
}

// messagesEqual compares semantically: nil and empty Items/Values are
// the same message on the wire.
func messagesEqual(a, b protocol.Message) bool {
	if a.Kind != b.Kind || a.TID != b.TID || a.From != b.From || a.To != b.To ||
		a.Update != b.Update || a.ReadOnly != b.ReadOnly || a.Committed != b.Committed ||
		a.Program != b.Program || a.Coordinator != b.Coordinator || a.Reason != b.Reason ||
		a.Deadline != b.Deadline || a.TraceCtx != b.TraceCtx || a.Ballot != b.Ballot {
		return false
	}
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	if len(a.Participants) != len(b.Participants) {
		return false
	}
	for i := range a.Participants {
		if a.Participants[i] != b.Participants[i] {
			return false
		}
	}
	if len(a.PaxosState) != len(b.PaxosState) {
		return false
	}
	for i := range a.PaxosState {
		if a.PaxosState[i] != b.PaxosState[i] {
			return false
		}
	}
	if len(a.Values) != len(b.Values) {
		return false
	}
	for k, v := range a.Values {
		w, ok := b.Values[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		return false
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			return false
		}
	}
	if len(a.Versions) != len(b.Versions) {
		return false
	}
	for k, v := range a.Versions {
		if w, ok := b.Versions[k]; !ok || v != w {
			return false
		}
	}
	if len(a.Stamps) != len(b.Stamps) {
		return false
	}
	for k, v := range a.Stamps {
		if w, ok := b.Stamps[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// batchFrame returns the frame carrying msgs, assembled the way the
// transport writer assembles it.
func batchFrame(msgs ...protocol.Message) []byte {
	var b BatchBuilder
	for _, m := range msgs {
		b.Add(m)
	}
	return b.AppendFrame(nil)
}

// rawFrame wraps an arbitrary payload in a checksummed frame.
func rawFrame(payload []byte) []byte {
	return sealFrame(append(make([]byte, frameHeader), payload...), 0)
}

// onePayload wraps one raw message in the payload of a frame of one.
func onePayload(msg []byte) []byte {
	p := binary.AppendUvarint([]byte{format, 1}, uint64(len(msg)))
	return append(p, msg...)
}

// goldenFrames pins the exact bytes of a few frames, one per optional
// section, so any change to the layout shows up here first.
var goldenFrames = map[int]string{
	1:  "0000001e2136433707011b010274310141014201020561636374300561636374310001410000",
	11: "0000001c9b082a4c070119010274340141014209010561636374300001410080e59a7700",
	13: "000000199b1b1b2507011601027435014101421101056163637431000141000100",
	16: "00000022a82c45c607011f0e027436014401424000000000070301410142014302014200010143040200",
	22: "00000025055637b90701221300014101422000000000020274310102743200020362616c030573656174730c00",
}

func TestRoundTripGolden(t *testing.T) {
	for i, m := range goldenMessages() {
		frame := EncodeFrame(m)
		if want, ok := goldenFrames[i]; ok && hex.EncodeToString(frame) != want {
			t.Errorf("msg %d: frame %x, want %s", i, frame, want)
		}
		got, n, err := DecodeFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("msg %d: decode: n=%d err=%v", i, n, err)
		}
		if !messagesEqual(m, got) {
			t.Errorf("msg %d: round trip mismatch\n in: %+v\nout: %+v", i, m, got)
		}
		// Canonical: re-encoding the decoded message is byte-identical.
		if again := EncodeFrame(got); !bytes.Equal(frame, again) {
			t.Errorf("msg %d: re-encode not canonical", i)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := goldenMessages()
	var stream []byte
	for _, m := range msgs {
		stream = AppendFrame(stream, m)
	}
	// Decode back-to-back frames from one buffer.
	off := 0
	for i, want := range msgs {
		got, n, err := DecodeFrame(stream[off:])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !messagesEqual(want, got) {
			t.Errorf("frame %d mismatch", i)
		}
		off += n
	}
	if off != len(stream) {
		t.Errorf("consumed %d of %d bytes", off, len(stream))
	}
	// And through an io.Reader.
	r := bytes.NewReader(stream)
	for i, want := range msgs {
		got, err := ReadMessages(r, 0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(got) != 1 || !messagesEqual(want, got[0]) {
			t.Errorf("read %d mismatch", i)
		}
	}
	if _, err := ReadMessages(r, 0); err != io.EOF {
		t.Errorf("want clean EOF, got %v", err)
	}
}

// prefix hand-builds a message of kind k through Reason with the given
// flags, leaving the optional sections and the value count to the
// caller.
func prefix(k protocol.MsgKind, flags byte) []byte {
	p := []byte{byte(k)}
	p = appendString(p, "t") // tid
	p = appendString(p, "A") // from
	p = appendString(p, "B") // to
	p = append(p, flags)
	p = append(p, 0)        // item count
	p = appendString(p, "") // program
	p = appendString(p, "") // coordinator
	p = appendString(p, "") // reason
	return p
}

func TestDecodeErrors(t *testing.T) {
	m := goldenMessages()[3] // prepare with polyvalues
	frame := EncodeFrame(m)

	// flip clears or sets one flags bit of m's frame.
	flip := func(m protocol.Message, bit byte) error {
		bad := EncodeFrame(m)
		bad[flagsAt(bad)] ^= bit
		reseal(bad)
		_, _, err := DecodeFrame(bad)
		return err
	}

	t.Run("truncated", func(t *testing.T) {
		for n := 0; n < len(frame); n++ {
			_, _, err := DecodeFrame(frame[:n])
			if err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
		// Mid-frame EOF over a reader.
		_, err := ReadMessages(bytes.NewReader(frame[:len(frame)-3]), 0)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("reader truncation: got %v", err)
		}
	})

	t.Run("checksum", func(t *testing.T) {
		bad := append([]byte{}, frame...)
		bad[len(bad)-1] ^= 0x40
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrChecksum) {
			t.Errorf("got %v, want ErrChecksum", err)
		}
		if _, err := ReadMessages(bytes.NewReader(bad), 0); !errors.Is(err, ErrChecksum) {
			t.Errorf("reader: got %v, want ErrChecksum", err)
		}
	})

	t.Run("oversize", func(t *testing.T) {
		bad := append([]byte{}, frame...)
		bad[0], bad[1] = 0xff, 0xff // claim a ~4 GiB payload
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrOversize) {
			t.Errorf("got %v, want ErrOversize", err)
		}
		if _, err := ReadMessages(bytes.NewReader(frame), 8); !errors.Is(err, ErrOversize) {
			t.Errorf("reader limit: got %v, want ErrOversize", err)
		}
	})

	t.Run("version", func(t *testing.T) {
		// An unknown format byte is ErrVersion on both read paths.
		bad := append([]byte{}, frame...)
		bad[frameHeader] = 99
		reseal(bad)
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("got %v, want ErrVersion", err)
		}
		if _, err := ReadMessages(bytes.NewReader(bad), 0); !errors.Is(err, ErrVersion) {
			t.Errorf("reader: got %v, want ErrVersion", err)
		}
	})

	t.Run("trailing", func(t *testing.T) {
		// A byte past the message inside its length, and a byte past the
		// last message of the payload.
		inside := rawFrame(onePayload(append(appendMessage(nil, m), 0xaa)))
		if _, _, err := DecodeFrame(inside); !errors.Is(err, ErrMalformed) {
			t.Errorf("inside the message: got %v, want ErrMalformed", err)
		}
		after := rawFrame(append(onePayload(appendMessage(nil, m)), 0xaa))
		if _, err := ReadMessages(bytes.NewReader(after), 0); !errors.Is(err, ErrMalformed) {
			t.Errorf("after the payload: got %v, want ErrMalformed", err)
		}
	})

	t.Run("lying-count", func(t *testing.T) {
		// A message that claims 2^60 items must fail fast, not allocate.
		msg := []byte{byte(protocol.MsgReadReq)}
		msg = append(msg, 0, 0, 0) // empty tid/from/to
		msg = append(msg, 0)       // flags
		msg = append(msg, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10)
		if _, err := decodeMessage(msg); !errors.Is(err, ErrMalformed) {
			t.Errorf("got %v, want ErrMalformed", err)
		}
	})

	t.Run("paxos-kind-wrong-version", func(t *testing.T) {
		// The paxos presence bit must match the paxos section on any
		// kind: clearing it on a message that has one, or setting it on
		// one that has none, is malformed, not just non-canonical.
		paxos := protocol.Message{Kind: protocol.MsgPaxosReject, TID: "t", From: "D", To: "B", Ballot: 3}
		if err := flip(paxos, hasPaxos); !errors.Is(err, ErrMalformed) {
			t.Errorf("paxos section, bit cleared: got %v, want ErrMalformed", err)
		}
		if err := flip(goldenMessages()[1], hasPaxos); !errors.Is(err, ErrMalformed) {
			t.Errorf("no paxos section, bit set: got %v, want ErrMalformed", err)
		}
		// Bit set over an empty section: ballot 0, no participants, no
		// instances.
		empty := append(prefix(protocol.MsgPaxosDecision, hasPaxos), 0, 0, 0, 0)
		if _, err := decodeMessage(empty); !errors.Is(err, ErrMalformed) {
			t.Errorf("empty paxos section: got %v, want ErrMalformed", err)
		}
	})

	t.Run("ae-kind-wrong-version", func(t *testing.T) {
		// Likewise the gossip bit, whatever the kind.
		ae := protocol.Message{Kind: protocol.MsgAntiEntropyDigest, From: "A", To: "B",
			Versions: map[string]uint64{"bal": 3}}
		if err := flip(ae, hasGossip); !errors.Is(err, ErrMalformed) {
			t.Errorf("gossip section, bit cleared: got %v, want ErrMalformed", err)
		}
		if err := flip(goldenMessages()[1], hasGossip); !errors.Is(err, ErrMalformed) {
			t.Errorf("no gossip section, bit set: got %v, want ErrMalformed", err)
		}
		// Bit set over no outcomes and no versions, on a gossip kind.
		empty := append(prefix(protocol.MsgAntiEntropyDigest, hasGossip), 0, 0, 0)
		if _, err := decodeMessage(empty); !errors.Is(err, ErrMalformed) {
			t.Errorf("empty gossip section: got %v, want ErrMalformed", err)
		}
	})

	t.Run("ae-bad-outcome-byte", func(t *testing.T) {
		m := protocol.Message{Kind: protocol.MsgAntiEntropyDigest, From: "A", To: "B",
			Outcomes: []protocol.OutcomeRec{{TID: "t", Committed: true}}}
		msg := appendMessage(nil, m)
		// The committed byte sits right before the version count and the
		// empty value count.
		msg[len(msg)-3] = 7
		if _, err := decodeMessage(msg); !errors.Is(err, ErrMalformed) {
			t.Errorf("outcome byte 7: got %v, want ErrMalformed", err)
		}
	})

	t.Run("paxos-bad-vote", func(t *testing.T) {
		m := protocol.Message{Kind: protocol.MsgPaxosAccepted, TID: "t",
			From: "D", To: "A",
			PaxosState: []protocol.PaxosInst{{Instance: "B", Vote: protocol.VotePrepared}}}
		msg := appendMessage(nil, m)
		// The vote byte is the last byte of the paxos section, followed
		// only by the empty value count.
		msg[len(msg)-2] = 9
		if _, err := decodeMessage(msg); !errors.Is(err, ErrMalformed) {
			t.Errorf("vote 9: got %v, want ErrMalformed", err)
		}
	})

	t.Run("bad-poly", func(t *testing.T) {
		// An incomplete polyvalue (conditions not complete/disjoint) must
		// be rejected at decode, not admitted into a store.  Raw bad
		// polyvalue bytes: pair count 1, value int 1, condition with one
		// positive literal "T" — holds only if T commits.
		raw := []byte{1}
		raw = append(raw, value.MarshalBinary(value.Int(1))...)
		c := condition.Committed("T")
		raw = c.AppendBinary(raw)
		// Splice: a read-rep whose single value is the raw poly.
		msg := append(prefix(protocol.MsgReadRep, 0), 1) // one value
		msg = appendString(msg, "item")
		msg = append(msg, raw...)
		if _, _, err := DecodeFrame(rawFrame(onePayload(msg))); !errors.Is(err, ErrMalformed) {
			t.Errorf("got %v, want ErrMalformed", err)
		}
	})
}

func TestEncodingIsCanonical(t *testing.T) {
	// Two equal Values maps built in different insertion orders encode
	// identically (sorted item order).
	a := map[string]polyvalue.Poly{}
	b := map[string]polyvalue.Poly{}
	items := []string{"z", "a", "m", "q"}
	for _, it := range items {
		a[it] = polyvalue.Simple(value.Str(it))
	}
	for i := len(items) - 1; i >= 0; i-- {
		b[items[i]] = polyvalue.Simple(value.Str(items[i]))
	}
	ma := protocol.Message{Kind: protocol.MsgReadRep, TID: "t", Values: a}
	mb := protocol.Message{Kind: protocol.MsgReadRep, TID: "t", Values: b}
	if !bytes.Equal(EncodeFrame(ma), EncodeFrame(mb)) {
		t.Error("insertion order leaked into the encoding")
	}
}

func TestOversizeNeverBuffered(t *testing.T) {
	// ReadMessages must reject before reading (or allocating) the payload.
	hdr := make([]byte, frameHeader)
	hdr[0] = 0xff // 0xff000000 bytes claimed
	r := io.MultiReader(bytes.NewReader(hdr), neverEnding{})
	if _, err := ReadMessages(r, 0); !errors.Is(err, ErrOversize) {
		t.Fatalf("got %v, want ErrOversize", err)
	}
}

// neverEnding would feed unbounded data if the reader tried to buffer an
// oversize payload.
type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestLongStringsRoundTrip(t *testing.T) {
	m := protocol.Message{
		Kind:    protocol.MsgPrepare,
		TID:     txn.ID("t-" + strings.Repeat("x", 300)),
		Program: strings.Repeat("a = a + 1; ", 1000),
	}
	got, _, err := DecodeFrame(EncodeFrame(m))
	if err != nil {
		t.Fatal(err)
	}
	if !messagesEqual(m, got) {
		t.Error("long-string round trip mismatch")
	}
}
