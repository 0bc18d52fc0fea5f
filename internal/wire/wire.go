// Package wire defines the binary format protocol messages take on a
// real network link.  The simulated network passes protocol.Message
// structs by value; a multi-process cluster (cmd/polynode over
// internal/transport) needs an actual byte encoding, with the same
// canonical polyvalue/condition wire form the storage WAL uses.
//
// There is one frame form and one message layout.  A frame carries one
// or more messages (all fixed-width integers big-endian):
//
//	4 bytes  payload length N
//	4 bytes  CRC32 (IEEE) of the payload
//	N bytes  payload:
//	           1 byte   format (7)
//	           uvarint  message count n (1 ≤ n ≤ MaxBatch)
//	           n ×      uvarint message length + message
//
// A message is:
//
//	1 byte   message kind
//	str      TID, From, To           (uvarint length + bytes each)
//	1 byte   flags: bit0 Update, bit1 ReadOnly, bit2 Committed, and
//	         bits 3–7 mark which optional sections follow
//	uvarint  item count; per item: str
//	str      Program, Coordinator, Reason
//	bit 3    deadline: uvarint remaining time budget, nanoseconds
//	bit 4    trace:    uvarint root span ID
//	bit 5    gossip:   uvarint outcome count; per outcome:
//	                     str tid, 1 byte committed (0 or 1)
//	                   uvarint version count; per entry, sorted by item:
//	                     str item, uvarint version
//	bit 6    paxos:    uvarint ballot
//	                   uvarint participant count; per participant: str
//	                   uvarint instance count; per instance: str site,
//	                     uvarint ballot, 1 byte vote (0 none, 1 prepared,
//	                     2 aborted)
//	bit 7    stamps:   uvarint count; per entry, sorted by item:
//	                     str item, uvarint stamp
//	uvarint  value count; per entry, sorted by item name:
//	           str   item
//	           poly  polyvalue.AppendBinary encoding
//
// The canonical rule: on every kind, a section is written if and only
// if it is non-empty — a positive deadline, a nonzero trace context, at
// least one outcome or version, a nonzero ballot or at least one
// participant or instance, at least one stamp.  The decoder rejects a presence bit over an
// empty section, and map entries are written in
// sorted order, so equal messages produce identical bytes and re-encoding
// a decoded frame reproduces it exactly.
//
// Decoding is defensive — frames arrive from a real socket and may be
// truncated, corrupted, or hostile.  Every failure returns (wrapped) one
// of the typed errors below; decoders never panic, and allocations are
// bounded by the input length regardless of what counts the header
// claims.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/txn"
)

// MaxFrame is the default cap on payload size, applied by ReadMessages
// and DecodeFrame.  A peer announcing a larger frame is faulty or
// hostile; reading it would be an unbounded allocation.
const MaxFrame = 8 << 20

// MaxBatch caps the number of messages one frame may carry; a frame
// announcing more is malformed.  Writers flush well below this.
const MaxBatch = 4096

// format is the payload's leading byte.  It is distinct from the
// per-message version bytes (1–6) of the earlier encoding, so a peer
// running such a build is refused with ErrVersion rather than misread.
const format = 7

// frameHeader is the fixed frame prefix: length + checksum.
const frameHeader = 8

// Typed decode failures.  Callers match with errors.Is; the returned
// errors wrap these with positional detail.
var (
	// ErrTruncated reports input that ends mid-frame (or mid-field).
	ErrTruncated = errors.New("wire: truncated")
	// ErrOversize reports a frame whose announced payload exceeds the
	// size limit.
	ErrOversize = errors.New("wire: frame too large")
	// ErrChecksum reports a payload that fails CRC verification.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrVersion reports an unknown payload format byte.
	ErrVersion = errors.New("wire: unknown format")
	// ErrMalformed reports a checksummed payload that does not decode:
	// bad counts, a field running past its message, an invalid
	// polyvalue, flags that do not match the sections, trailing bytes.
	ErrMalformed = errors.New("wire: malformed payload")
)

// Message flag bits: three booleans, then one presence bit per optional
// section.
const (
	flagUpdate    = 1 << 0
	flagReadOnly  = 1 << 1
	flagCommitted = 1 << 2
	hasDeadline   = 1 << 3
	hasTrace      = 1 << 4
	hasGossip     = 1 << 5
	hasPaxos      = 1 << 6
	hasStamps     = 1 << 7
)

// flagsOf returns m's flags byte: its booleans plus the presence bit of
// each non-empty optional section.
func flagsOf(m protocol.Message) byte {
	var f byte
	if m.Update {
		f |= flagUpdate
	}
	if m.ReadOnly {
		f |= flagReadOnly
	}
	if m.Committed {
		f |= flagCommitted
	}
	if m.Deadline > 0 {
		f |= hasDeadline
	}
	if m.TraceCtx != 0 {
		f |= hasTrace
	}
	if len(m.Outcomes) > 0 || len(m.Versions) > 0 {
		f |= hasGossip
	}
	if m.Ballot != 0 || len(m.Participants) > 0 || len(m.PaxosState) > 0 {
		f |= hasPaxos
	}
	if len(m.Stamps) > 0 {
		f |= hasStamps
	}
	return f
}

// appendMessage appends m's encoding to dst.
func appendMessage(dst []byte, m protocol.Message) []byte {
	flags := flagsOf(m)
	dst = append(dst, byte(m.Kind))
	dst = appendString(dst, string(m.TID))
	dst = appendString(dst, string(m.From))
	dst = appendString(dst, string(m.To))
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(m.Items)))
	for _, item := range m.Items {
		dst = appendString(dst, item)
	}
	dst = appendString(dst, m.Program)
	dst = appendString(dst, string(m.Coordinator))
	dst = appendString(dst, m.Reason)
	if flags&hasDeadline != 0 {
		dst = binary.AppendUvarint(dst, uint64(m.Deadline))
	}
	if flags&hasTrace != 0 {
		dst = binary.AppendUvarint(dst, m.TraceCtx)
	}
	if flags&hasGossip != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Outcomes)))
		for _, o := range m.Outcomes {
			dst = appendString(dst, string(o.TID))
			if o.Committed {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.Versions)))
		for _, item := range sortedKeys(m.Versions) {
			dst = appendString(dst, item)
			dst = binary.AppendUvarint(dst, m.Versions[item])
		}
	}
	if flags&hasPaxos != 0 {
		dst = binary.AppendUvarint(dst, uint64(m.Ballot))
		dst = binary.AppendUvarint(dst, uint64(len(m.Participants)))
		for _, site := range m.Participants {
			dst = appendString(dst, string(site))
		}
		dst = binary.AppendUvarint(dst, uint64(len(m.PaxosState)))
		for _, inst := range m.PaxosState {
			dst = appendString(dst, string(inst.Instance))
			dst = binary.AppendUvarint(dst, uint64(inst.Ballot))
			dst = append(dst, byte(inst.Vote))
		}
	}
	if flags&hasStamps != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Stamps)))
		for _, item := range sortedKeys(m.Stamps) {
			dst = appendString(dst, item)
			dst = binary.AppendUvarint(dst, m.Stamps[item])
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Values)))
	for _, item := range sortedKeys(m.Values) {
		dst = appendString(dst, item)
		dst = m.Values[item].AppendBinary(dst)
	}
	return dst
}

// decodeMessage decodes one message occupying all of buf.
func decodeMessage(buf []byte) (protocol.Message, error) {
	d := decoder{buf: buf}
	var m protocol.Message
	m.Kind = protocol.MsgKind(d.byte("kind"))
	m.TID = txn.ID(d.str("tid"))
	m.From = protocol.SiteID(d.str("from"))
	m.To = protocol.SiteID(d.str("to"))
	flags := d.byte("flags")
	m.Update = flags&flagUpdate != 0
	m.ReadOnly = flags&flagReadOnly != 0
	m.Committed = flags&flagCommitted != 0
	if n := d.count("item count"); n > 0 {
		m.Items = make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			m.Items = append(m.Items, d.str("item"))
		}
	}
	m.Program = d.str("program")
	m.Coordinator = protocol.SiteID(d.str("coordinator"))
	m.Reason = d.str("reason")
	if flags&hasDeadline != 0 {
		m.Deadline = time.Duration(d.uvarint("deadline"))
	}
	if flags&hasTrace != 0 {
		m.TraceCtx = d.uvarint("trace context")
	}
	if flags&hasGossip != 0 {
		if n := d.count("outcome count"); n > 0 {
			m.Outcomes = make([]protocol.OutcomeRec, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				var o protocol.OutcomeRec
				o.TID = txn.ID(d.str("outcome tid"))
				b := d.byte("outcome committed")
				d.check(b <= 1, "outcome byte")
				o.Committed = b == 1
				m.Outcomes = append(m.Outcomes, o)
			}
		}
		if n := d.count("version count"); n > 0 {
			m.Versions = make(map[string]uint64, n)
			for i := 0; i < n && d.err == nil; i++ {
				item := d.str("version item")
				m.Versions[item] = d.uvarint("version")
			}
		}
	}
	if flags&hasPaxos != 0 {
		ballot := d.uvarint("ballot")
		d.check(ballot <= 0xffffffff, "ballot overflow")
		m.Ballot = uint32(ballot)
		if n := d.count("participant count"); n > 0 {
			m.Participants = make([]protocol.SiteID, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				m.Participants = append(m.Participants, protocol.SiteID(d.str("participant")))
			}
		}
		if n := d.count("instance count"); n > 0 {
			m.PaxosState = make([]protocol.PaxosInst, 0, n)
			for i := 0; i < n && d.err == nil; i++ {
				var inst protocol.PaxosInst
				inst.Instance = protocol.SiteID(d.str("instance"))
				b := d.uvarint("instance ballot")
				d.check(b <= 0xffffffff, "instance ballot overflow")
				inst.Ballot = uint32(b)
				inst.Vote = protocol.Vote(d.byte("vote"))
				d.check(inst.Vote <= protocol.VoteAborted, "vote")
				m.PaxosState = append(m.PaxosState, inst)
			}
		}
	}
	if flags&hasStamps != 0 {
		if n := d.count("stamp count"); n > 0 {
			m.Stamps = make(map[string]uint64, n)
			for i := 0; i < n && d.err == nil; i++ {
				item := d.str("stamp item")
				m.Stamps[item] = d.uvarint("stamp")
			}
		}
	}
	if n := d.count("value count"); n > 0 {
		m.Values = make(map[string]polyvalue.Poly, n)
		for i := 0; i < n && d.err == nil; i++ {
			item := d.str("value item")
			m.Values[item] = d.poly("value poly")
		}
	}
	d.check(d.off == len(buf), "trailing bytes")
	// Canonical: the flags must be exactly what the decoded message
	// would encode with — no presence bit over an empty section (zero or
	// negative deadline, zero trace context, empty gossip or paxos
	// section), no unknown bit.
	d.check(flags == flagsOf(m), "flags do not match the sections")
	if d.err != nil {
		return protocol.Message{}, d.err
	}
	return m, nil
}

// AppendFrame appends the frame carrying m alone.
func AppendFrame(dst []byte, m protocol.Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, format, 1) // header placeholder, format, count
	dst = appendElem(dst, m)
	return sealFrame(dst, start)
}

// EncodeFrame returns the frame carrying m alone.
func EncodeFrame(m protocol.Message) []byte {
	return AppendFrame(nil, m)
}

// DecodeFrame decodes a frame of one message from the front of buf,
// returning the message and the number of bytes consumed (header +
// payload).  A frame of several messages is ErrMalformed.
func DecodeFrame(buf []byte) (protocol.Message, int, error) {
	if len(buf) < frameHeader {
		return protocol.Message{}, 0, fmt.Errorf("%w: frame header", ErrTruncated)
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return protocol.Message{}, 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrOversize, n, MaxFrame)
	}
	if uint64(len(buf)-frameHeader) < uint64(n) {
		return protocol.Message{}, 0, fmt.Errorf("%w: frame payload", ErrTruncated)
	}
	payload := buf[frameHeader : frameHeader+int(n)]
	if err := verify(payload, binary.BigEndian.Uint32(buf[4:])); err != nil {
		return protocol.Message{}, 0, err
	}
	count, off, err := payloadCount(payload)
	if err != nil {
		return protocol.Message{}, 0, err
	}
	if count != 1 {
		return protocol.Message{}, 0, fmt.Errorf("%w: frame of %d messages, want 1", ErrMalformed, count)
	}
	m, off, err := nextMessage(payload, off)
	if err != nil {
		return protocol.Message{}, 0, err
	}
	if off != len(payload) {
		return protocol.Message{}, 0, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(payload)-off)
	}
	return m, frameHeader + int(n), nil
}

// ReadMessages reads one frame from r and returns its messages in send
// order.  maxFrame caps the payload length (≤ 0 means MaxFrame).  io.EOF
// is returned unwrapped when the stream ends cleanly at a frame
// boundary; mid-frame EOF is ErrTruncated.  A frame that fails its
// checksum or does not decode (ErrChecksum, ErrVersion, ErrMalformed)
// has still been consumed whole, so the stream stays in sync.
func ReadMessages(r io.Reader, maxFrame int) ([]protocol.Message, error) {
	payload, err := readFrame(r, maxFrame)
	if err != nil {
		return nil, err
	}
	return decodePayload(payload)
}

// BatchBuilder assembles one outgoing frame from messages added
// incrementally, encoding each exactly once.  The zero value is ready to
// use; Reset recycles the buffer.  Not safe for concurrent use: each
// transport writer owns one.
type BatchBuilder struct {
	body  []byte // length-prefixed messages
	count int
}

// Add encodes m into the pending frame.  Panics past MaxBatch — callers
// flush well below it.
func (b *BatchBuilder) Add(m protocol.Message) {
	if b.count >= MaxBatch {
		panic("wire: batch overflow")
	}
	b.body = appendElem(b.body, m)
	b.count++
}

// Count reports the number of messages added since the last Reset.
func (b *BatchBuilder) Count() int { return b.count }

// Size reports the encoded bytes pending, length prefixes included —
// the quantity size-based flushing bounds.
func (b *BatchBuilder) Size() int { return len(b.body) }

// AppendFrame appends the assembled frame to dst.  Panics when empty.
func (b *BatchBuilder) AppendFrame(dst []byte) []byte {
	if b.count == 0 {
		panic("wire: empty frame")
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, format) // header placeholder, format
	dst = binary.AppendUvarint(dst, uint64(b.count))
	dst = append(dst, b.body...)
	return sealFrame(dst, start)
}

// Reset clears the builder for the next frame, keeping its buffer.
func (b *BatchBuilder) Reset() {
	b.count = 0
	b.body = b.body[:0]
}

// appendElem appends m's encoding behind its uvarint length.
func appendElem(dst []byte, m protocol.Message) []byte {
	// Reserve one length byte, encode the message after it, then
	// backfill: measuring first would encode twice.  Only a message of
	// 128 bytes or more needs a longer length, and moves to make room.
	at := len(dst)
	dst = append(dst, 0)
	dst = appendMessage(dst, m)
	size := len(dst) - at - 1
	if size < 0x80 {
		dst[at] = byte(size)
		return dst
	}
	var lenBuf [binary.MaxVarintLen32]byte
	w := binary.PutUvarint(lenBuf[:], uint64(size))
	dst = append(dst, lenBuf[1:w]...)
	copy(dst[at+w:], dst[at+1:at+1+size])
	copy(dst[at:], lenBuf[:w])
	return dst
}

// sealFrame fills in the header of the frame starting at dst[start].
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+frameHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// verify checks a payload against its frame checksum.
func verify(payload []byte, want uint32) error {
	if sum := crc32.ChecksumIEEE(payload); sum != want {
		return fmt.Errorf("%w: got %08x want %08x", ErrChecksum, sum, want)
	}
	return nil
}

// payloadCount checks a verified payload's format byte and message
// count, returning the count and the offset of the first message.
func payloadCount(buf []byte) (int, int, error) {
	if len(buf) == 0 {
		return 0, 0, fmt.Errorf("%w: empty payload", ErrMalformed)
	}
	if buf[0] != format {
		return 0, 0, fmt.Errorf("%w: %d", ErrVersion, buf[0])
	}
	n, w := binary.Uvarint(buf[1:])
	if w <= 0 {
		return 0, 0, fmt.Errorf("%w: message count", ErrMalformed)
	}
	off := 1 + w
	// Every message needs at least one byte; a bigger count is lying
	// and must not size an allocation.
	if n == 0 || n > MaxBatch || n > uint64(len(buf)-off) {
		return 0, 0, fmt.Errorf("%w: message count %d", ErrMalformed, n)
	}
	return int(n), off, nil
}

// nextMessage decodes the length-prefixed message at buf[off:],
// returning it and the offset just past it.  Inside a checksummed
// payload every failure is ErrMalformed: the frame was read whole, only
// its contents are wrong.
func nextMessage(buf []byte, off int) (protocol.Message, int, error) {
	size, w := binary.Uvarint(buf[off:])
	if w <= 0 || size > uint64(len(buf)-off-w) {
		return protocol.Message{}, 0, fmt.Errorf("%w: message length at offset %d", ErrMalformed, off)
	}
	off += w
	m, err := decodeMessage(buf[off : off+int(size)])
	if err != nil {
		return protocol.Message{}, 0, fmt.Errorf("%w: message at offset %d: %v", ErrMalformed, off, err)
	}
	return m, off + int(size), nil
}

// decodePayload decodes every message of a verified payload.
func decodePayload(buf []byte) ([]protocol.Message, error) {
	n, off, err := payloadCount(buf)
	if err != nil {
		return nil, err
	}
	msgs := make([]protocol.Message, n)
	for i := range msgs {
		if msgs[i], off, err = nextMessage(buf, off); err != nil {
			return nil, err
		}
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(buf)-off)
	}
	return msgs, nil
}

// readFrame reads one checksummed frame off r and returns its verified
// payload.  io.EOF is returned unwrapped when the stream ends cleanly at
// a frame boundary.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: frame header: %v", ErrTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(maxFrame) {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrOversize, n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: frame payload: %v", ErrTruncated, err)
	}
	if err := verify(payload, binary.BigEndian.Uint32(hdr[4:])); err != nil {
		return nil, err
	}
	return payload, nil
}

// ---------------------------------------------------------------------
// Decode plumbing
// ---------------------------------------------------------------------

// decoder walks a message buffer, latching the first error; subsequent
// reads are no-ops so call sites stay linear.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", err, what, d.off)
	}
}

// check fails the decode as malformed unless ok (a no-op once an
// earlier read has failed).
func (d *decoder) check(ok bool, what string) {
	if !ok {
		d.fail(what, ErrMalformed)
	}
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(what, ErrTruncated)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// count reads a uvarint element count and bounds it by the remaining
// input: every element occupies at least one byte, so a count beyond
// that is lying and must not size an allocation.
func (d *decoder) count(what string) int {
	n := d.uvarint(what)
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.fail(what, ErrMalformed)
		return 0
	}
	return int(n)
}

// uvarint reads a bare uvarint field (no trailing data implied).
func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	n, w := binary.Uvarint(d.buf[d.off:])
	if w <= 0 {
		d.fail(what, ErrTruncated)
		return 0
	}
	d.off += w
	return n
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(what, ErrTruncated)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) poly(what string) polyvalue.Poly {
	if d.err != nil {
		return polyvalue.Poly{}
	}
	p, n, err := polyvalue.DecodeBinary(d.buf[d.off:])
	if err != nil {
		d.fail(what+": "+err.Error(), ErrMalformed)
		return polyvalue.Poly{}
	}
	d.off += n
	return p
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// sortedKeys returns m's keys in order, so map entries encode
// canonically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
