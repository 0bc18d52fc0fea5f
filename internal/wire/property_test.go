package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/txn"
	"repro/internal/value"
)

// randMessage wraps protocol.Message with a quick.Generator that covers
// every field, including polyvalued Values maps built through the real
// constructors (so they satisfy the well-formedness invariant the
// decoder enforces).
type randMessage struct {
	M protocol.Message
}

var kinds = []protocol.MsgKind{
	protocol.MsgReadReq, protocol.MsgReadRep, protocol.MsgPrepare,
	protocol.MsgReady, protocol.MsgRefuse, protocol.MsgComplete,
	protocol.MsgAbort, protocol.MsgOutcomeReq, protocol.MsgOutcomeInfo,
	protocol.MsgOutcomeAck,
	protocol.MsgPaxosBegin, protocol.MsgPaxosPrepare, protocol.MsgPaxosPromise,
	protocol.MsgPaxosAccept, protocol.MsgPaxosAccepted, protocol.MsgPaxosReject,
	protocol.MsgPaxosDecision,
	protocol.MsgAntiEntropyDigest, protocol.MsgAntiEntropyReply,
	protocol.MsgAntiEntropyUpdate,
}

func randString(r *rand.Rand, max int) string {
	n := r.Intn(max + 1)
	b := make([]byte, n)
	for i := range b {
		// Bias toward printable but include arbitrary bytes.
		if r.Intn(4) == 0 {
			b[i] = byte(r.Intn(256))
		} else {
			b[i] = byte('a' + r.Intn(26))
		}
	}
	return string(b)
}

func randValue(r *rand.Rand) value.V {
	switch r.Intn(5) {
	case 0:
		return value.Nil{}
	case 1:
		return value.Int(r.Int63n(2000) - 1000)
	case 2:
		return value.Float(r.NormFloat64() * 100)
	case 3:
		return value.Str(randString(r, 12))
	default:
		return value.Bool(r.Intn(2) == 0)
	}
}

// randPoly builds a well-formed polyvalue by wrapping up to depth layers
// of uncertainty around a simple value, exactly as in-doubt installs do.
func randPoly(r *rand.Rand) polyvalue.Poly {
	p := polyvalue.Simple(randValue(r))
	depth := r.Intn(3)
	for i := 0; i < depth; i++ {
		t := txn.ID(fmt.Sprintf("T%d-%d", r.Intn(100), i))
		p = polyvalue.Uncertain(t, polyvalue.Simple(randValue(r)), p)
	}
	return p
}

func (randMessage) Generate(r *rand.Rand, _ int) reflect.Value {
	m := protocol.Message{
		Kind:        kinds[r.Intn(len(kinds))],
		TID:         txn.ID(randString(r, 16)),
		From:        protocol.SiteID(randString(r, 8)),
		To:          protocol.SiteID(randString(r, 8)),
		Update:      r.Intn(2) == 0,
		ReadOnly:    r.Intn(2) == 0,
		Committed:   r.Intn(2) == 0,
		Program:     randString(r, 64),
		Coordinator: protocol.SiteID(randString(r, 8)),
		Reason:      randString(r, 32),
	}
	if n := r.Intn(4); n > 0 {
		m.Items = make([]string, n)
		for i := range m.Items {
			m.Items[i] = randString(r, 10)
		}
	}
	if n := r.Intn(4); n > 0 {
		m.Values = make(map[string]polyvalue.Poly, n)
		for i := 0; i < n; i++ {
			m.Values[fmt.Sprintf("%s%d", randString(r, 6), i)] = randPoly(r)
		}
	}
	// Every optional section may ride on every kind.
	if r.Intn(3) == 0 {
		m.Deadline = time.Duration(1 + r.Int63n(int64(time.Minute)))
	}
	if r.Intn(3) == 0 {
		m.TraceCtx = 1 + uint64(r.Int63())
	}
	if m.Kind.Paxos() || r.Intn(3) == 0 {
		m.Ballot = uint32(r.Intn(1 << 20))
		if n := r.Intn(4); n > 0 {
			m.Participants = make([]protocol.SiteID, n)
			for i := range m.Participants {
				m.Participants[i] = protocol.SiteID(randString(r, 6))
			}
		}
		if n := r.Intn(4); n > 0 {
			m.PaxosState = make([]protocol.PaxosInst, n)
			for i := range m.PaxosState {
				m.PaxosState[i] = protocol.PaxosInst{
					Instance: protocol.SiteID(randString(r, 6)),
					Ballot:   uint32(r.Intn(1 << 16)),
					Vote:     protocol.Vote(r.Intn(3)),
				}
			}
		}
	}
	if r.Intn(3) == 0 {
		if n := r.Intn(4); n > 0 {
			m.Versions = make(map[string]uint64, n)
			for i := 0; i < n; i++ {
				m.Versions[fmt.Sprintf("%s%d", randString(r, 6), i)] = uint64(r.Intn(1 << 16))
			}
		}
		if n := r.Intn(4); n > 0 {
			m.Outcomes = make([]protocol.OutcomeRec, n)
			for i := range m.Outcomes {
				m.Outcomes[i] = protocol.OutcomeRec{
					TID:       txn.ID(randString(r, 10)),
					Committed: r.Intn(2) == 0,
				}
			}
		}
	}
	if r.Intn(3) == 0 {
		if n := r.Intn(4); n > 0 {
			m.Stamps = make(map[string]uint64, n)
			for i := 0; i < n; i++ {
				m.Stamps[fmt.Sprintf("%s%d", randString(r, 6), i)] = uint64(r.Int63())
			}
		}
	}
	return reflect.ValueOf(randMessage{M: m})
}

// TestPropRoundTripIdentity: encode→decode is the identity on random
// messages, and the encoding is canonical (re-encode is byte-identical).
func TestPropRoundTripIdentity(t *testing.T) {
	prop := func(rm randMessage) bool {
		msg := appendMessage(nil, rm.M)
		got, err := decodeMessage(msg)
		if err != nil {
			t.Logf("decode failed: %v", err)
			return false
		}
		if !messagesEqual(rm.M, got) {
			t.Logf("mismatch:\n in: %+v\nout: %+v", rm.M, got)
			return false
		}
		return bytes.Equal(msg, appendMessage(nil, got))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropFrameRoundTrip: the framed path round-trips too.
func TestPropFrameRoundTrip(t *testing.T) {
	prop := func(rm randMessage) bool {
		m, n, err := DecodeFrame(EncodeFrame(rm.M))
		return err == nil && n == len(EncodeFrame(rm.M)) && messagesEqual(rm.M, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropMutatedFrameNeverPanics: decoding any single-byte mutation (or
// truncation) of a valid frame returns an error or a well-formed message
// — never a panic, never an ill-formed polyvalue.
func TestPropMutatedFrameNeverPanics(t *testing.T) {
	prop := func(rm randMessage, mutPos uint16, mutBit uint8, cut uint16) bool {
		frame := EncodeFrame(rm.M)
		mutated := append([]byte{}, frame...)
		mutated[int(mutPos)%len(mutated)] ^= 1 << (mutBit % 8)
		if int(cut)%(len(mutated)+1) < len(mutated) {
			mutated = mutated[:int(cut)%(len(mutated)+1)]
		}
		m, _, err := DecodeFrame(mutated)
		if err != nil {
			return true
		}
		for _, p := range m.Values {
			if !p.WellFormed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
