package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// flagsAt returns the offset of the message flags byte inside a frame
// of one: past the header, the format byte and count, the message
// length, the kind, and the TID, From and To strings.
func flagsAt(frame []byte) int {
	off := 8 + 2
	_, w := binary.Uvarint(frame[off:])
	off += w + 1
	for i := 0; i < 3 && off < len(frame); i++ {
		n, w := binary.Uvarint(frame[off:])
		off += w + int(n)
	}
	return off
}

// reseal recomputes a frame's checksum after an edit, so the decoder
// judges the edited payload rather than the CRC.
func reseal(frame []byte) {
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
}

// TestEveryFieldEveryKind: on every message kind, each optional section
// — deadline, trace context, gossip (outcomes and versions), Paxos
// (ballot, participants, instance state), stamps — survives a frame
// round trip whether or not the others are present, re-encodes
// byte-identically, and a presence bit that disagrees with its section
// is rejected.
func TestEveryFieldEveryKind(t *testing.T) {
	poly := polyvalue.Uncertain("T7",
		polyvalue.Simple(value.Int(150)), polyvalue.Simple(value.Int(100)))
	sections := []struct {
		name string
		bit  byte
		set  func(*protocol.Message)
	}{
		{"deadline", 1 << 3, func(m *protocol.Message) { m.Deadline = 250 * time.Millisecond }},
		{"trace", 1 << 4, func(m *protocol.Message) { m.TraceCtx = 0x7e57_0001 }},
		{"gossip", 1 << 5, func(m *protocol.Message) {
			m.Outcomes = []protocol.OutcomeRec{{TID: "t0", Committed: true}, {TID: "t9"}}
			m.Versions = map[string]uint64{"x": 3, "y": 12}
		}},
		{"paxos", 1 << 6, func(m *protocol.Message) {
			m.Ballot = 7
			m.Participants = []protocol.SiteID{"A", "B", "C"}
			m.PaxosState = []protocol.PaxosInst{
				{Instance: "B", Ballot: 7, Vote: protocol.VotePrepared},
				{Instance: "C", Ballot: 4, Vote: protocol.VoteAborted},
			}
		}},
		{"stamps", 1 << 7, func(m *protocol.Message) { m.Stamps = map[string]uint64{"x": 1 << 40, "y": 9} }},
	}
	for k := protocol.MsgReadReq; k <= protocol.MsgAntiEntropyUpdate; k++ {
		for mask := 0; mask < 1<<len(sections); mask++ {
			m := protocol.Message{
				Kind: k, TID: "t1", From: "A", To: "B",
				Items: []string{"x", "y"}, Update: true, ReadOnly: true, Committed: true,
				Program: "x = x - 1; y = y + 1", Coordinator: "A", Reason: "why",
				Values: map[string]polyvalue.Poly{"x": polyvalue.Simple(value.Int(5)), "y": poly},
			}
			name := k.String()
			for i, s := range sections {
				if mask&(1<<i) != 0 {
					s.set(&m)
					name += "+" + s.name
				}
			}
			frame := EncodeFrame(m)
			got, n, err := DecodeFrame(frame)
			if err != nil || n != len(frame) {
				t.Errorf("%s: decode: n=%d err=%v", name, n, err)
				continue
			}
			if !messagesEqual(m, got) {
				t.Errorf("%s: round trip mismatch\n in: %+v\nout: %+v", name, m, got)
				continue
			}
			if again := EncodeFrame(got); !bytes.Equal(frame, again) {
				t.Errorf("%s: re-encoding is not byte-identical", name)
			}
			at := flagsAt(frame)
			if at >= len(frame) {
				t.Errorf("%s: frame has no flags byte", name)
				continue
			}
			for _, bit := range []byte{1 << 3, 1 << 4, 1 << 5, 1 << 6, 1 << 7} {
				bad := append([]byte(nil), frame...)
				bad[at] ^= bit
				reseal(bad)
				if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrMalformed) {
					t.Errorf("%s: flags ^ %#x: got %v, want ErrMalformed", name, bit, err)
				}
			}
		}
	}
}
