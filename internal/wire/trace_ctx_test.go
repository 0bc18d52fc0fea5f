package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestVersionSelection pins the pay-for-what-you-use rule: the presence
// bits are chosen from which optional fields the message carries, on any
// kind, so untraced, deadline-free traffic writes no optional section.
func TestVersionSelection(t *testing.T) {
	cases := []struct {
		name string
		m    protocol.Message
		want byte
	}{
		{"plain", protocol.Message{Kind: protocol.MsgPrepare}, 0},
		{"deadline", protocol.Message{Kind: protocol.MsgPrepare, Deadline: time.Second}, hasDeadline},
		{"negative deadline", protocol.Message{Kind: protocol.MsgPrepare, Deadline: -time.Second}, 0},
		{"trace", protocol.Message{Kind: protocol.MsgPrepare, TraceCtx: 7}, hasTrace},
		{"deadline+trace", protocol.Message{Kind: protocol.MsgPrepare, Deadline: time.Second, TraceCtx: 7}, hasDeadline | hasTrace},
		{"gossip kind, empty", protocol.Message{Kind: protocol.MsgAntiEntropyDigest}, 0},
		{"outcomes", protocol.Message{Kind: protocol.MsgAntiEntropyDigest,
			Outcomes: []protocol.OutcomeRec{{TID: "t"}}}, hasGossip},
		{"versions on a read reply", protocol.Message{Kind: protocol.MsgReadRep,
			Versions: map[string]uint64{"x": 1}}, hasGossip},
		{"paxos kind, empty", protocol.Message{Kind: protocol.MsgPaxosDecision, Committed: true}, flagCommitted},
		{"ballot", protocol.Message{Kind: protocol.MsgPaxosReject, Ballot: 3}, hasPaxos},
		{"participants on a plain kind", protocol.Message{Kind: protocol.MsgComplete,
			Participants: []protocol.SiteID{"A"}}, hasPaxos},
		{"stamps on a read reply", protocol.Message{Kind: protocol.MsgReadRep,
			Stamps: map[string]uint64{"x": 1}}, hasStamps},
		{"everything", protocol.Message{Kind: protocol.MsgPaxosAccept, Update: true,
			Deadline: time.Second, TraceCtx: 7, Versions: map[string]uint64{"x": 1},
			PaxosState: []protocol.PaxosInst{{Instance: "B"}}, Stamps: map[string]uint64{"x": 2}},
			flagUpdate | hasDeadline | hasTrace | hasGossip | hasPaxos | hasStamps},
	}
	for _, c := range cases {
		c.m.TID, c.m.From, c.m.To = "t", "A", "B"
		frame := EncodeFrame(c.m)
		if got := frame[flagsAt(frame)]; got != c.want {
			t.Errorf("%s: flags %#x, want %#x", c.name, got, c.want)
		}
		got, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if c.m.Deadline < 0 {
			c.m.Deadline = 0 // never written: there is no budget to carry
		}
		if !messagesEqual(c.m, got) {
			t.Errorf("%s: round trip got %+v", c.name, got)
		}
		if again := EncodeFrame(got); !bytes.Equal(frame, again) {
			t.Errorf("%s: re-encode not canonical", c.name)
		}
	}
}

func TestTraceVersionMalformed(t *testing.T) {
	t.Run("zero-trace-ctx", func(t *testing.T) {
		// A trace bit over a zero trace context is non-canonical (the
		// encoder would have left the bit clear) and must be rejected.
		p := prefix(protocol.MsgPrepare, hasTrace)
		p = binary.AppendUvarint(p, 0) // trace ctx = 0
		p = binary.AppendUvarint(p, 0) // value count
		if _, err := decodeMessage(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("got %v, want ErrMalformed", err)
		}
	})
	t.Run("negative-deadline", func(t *testing.T) {
		// 2^63 wraps to a negative time.Duration, never a deadline the
		// encoder writes.
		p := prefix(protocol.MsgPrepare, hasDeadline|hasTrace)
		p = binary.AppendUvarint(p, 1<<63)
		p = binary.AppendUvarint(p, 7)
		p = binary.AppendUvarint(p, 0)
		if _, err := decodeMessage(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("got %v, want ErrMalformed", err)
		}
	})
	t.Run("truncated-before-ctx", func(t *testing.T) {
		// The message ends where its trace bit promised a field; inside
		// a checksummed frame that is a malformed payload.
		p := prefix(protocol.MsgPrepare, hasTrace)
		if _, err := decodeMessage(p); !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
		if _, _, err := DecodeFrame(rawFrame(onePayload(p))); !errors.Is(err, ErrMalformed) {
			t.Errorf("in a frame: got %v, want ErrMalformed", err)
		}
	})
	t.Run("zero-deadline-ok", func(t *testing.T) {
		// A trace context needs no deadline beside it: the deadline
		// section is simply absent.
		p := prefix(protocol.MsgPrepare, hasTrace)
		p = binary.AppendUvarint(p, 7)
		p = binary.AppendUvarint(p, 0)
		m, err := decodeMessage(p)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if m.TraceCtx != 7 || m.Deadline != 0 {
			t.Errorf("got ctx=%d deadline=%v", m.TraceCtx, m.Deadline)
		}
		// A deadline bit over a zero deadline is not the same message's
		// other encoding: it is malformed.
		p = prefix(protocol.MsgPrepare, hasDeadline|hasTrace)
		p = binary.AppendUvarint(p, 0)
		p = binary.AppendUvarint(p, 7)
		p = binary.AppendUvarint(p, 0)
		if _, err := decodeMessage(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("zero deadline with its bit set: got %v, want ErrMalformed", err)
		}
	})
}

// TestDecodePayloadTraceVersion: a frame of one traced message, read off
// a stream, keeps its trace context.
func TestDecodePayloadTraceVersion(t *testing.T) {
	m := protocol.Message{Kind: protocol.MsgReadReq, TID: "t", From: "A", To: "B",
		Items: []string{"x"}, Update: true, TraceCtx: 42}
	if got := readOne(t, EncodeFrame(m)); got.TraceCtx != 42 || !messagesEqual(m, got) {
		t.Fatalf("got %+v", got)
	}
}

func TestBatchCarriesTraceCtx(t *testing.T) {
	msgs := []protocol.Message{
		{Kind: protocol.MsgReadReq, TID: "a", From: "A", To: "B", TraceCtx: 9},
		{Kind: protocol.MsgReady, TID: "a", From: "B", To: "A"},
		{Kind: protocol.MsgPrepare, TID: "b", From: "A", To: "B",
			Deadline: time.Second, TraceCtx: 10},
	}
	got, err := ReadMessages(bytes.NewReader(batchFrame(msgs...)), 0)
	if err != nil {
		t.Fatalf("ReadMessages: %v", err)
	}
	for i := range msgs {
		if got[i].TraceCtx != msgs[i].TraceCtx || got[i].Deadline != msgs[i].Deadline {
			t.Errorf("element %d: ctx=%d deadline=%v, want ctx=%d deadline=%v",
				i, got[i].TraceCtx, got[i].Deadline, msgs[i].TraceCtx, msgs[i].Deadline)
		}
	}
}
