// Package storage implements a site's durable state: the items it holds
// (simple values or polyvalues), the set of prepared-but-unresolved
// transactions, coordinator outcome records, and the §3.3 dependency
// table.  All mutations go through a write-ahead log so a crashed site
// restarts with exactly the state it had — in particular, a site that
// crashes while in doubt about a transaction discovers that fact from the
// log and installs polyvalues on restart instead of blocking.
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/txn"
)

// ErrCorruptRecord reports a WAL record before the tail that fails its
// CRC or decodes to garbage — damage a clean crash cannot produce
// (torn tails end replay silently; this is bit rot or an overwrite).
// Replay and Recover wrap it with positional detail; match with
// errors.Is.
var ErrCorruptRecord = errors.New("storage: corrupt WAL record")

// RecKind enumerates WAL record types.
type RecKind uint8

const (
	// RecPut installs a (possibly poly) value for an item.
	RecPut RecKind = iota + 1
	// RecPrepared marks a transaction prepared at this site: computed
	// writes and previous values are retained so the site can later
	// install results, discard them, or build polyvalues.
	RecPrepared
	// RecResolved clears a prepared entry (the transaction completed,
	// aborted, or was converted to polyvalues here).
	RecResolved
	// RecOutcome durably records a commit/abort decision and lists the
	// sites that must still hear it as its dependency entry's sites: a
	// coordinator's prepared, non-read-only participants, or the
	// requester of a presumed abort.  A participant's memo of a learned
	// outcome lists none.
	RecOutcome
	// RecDepItem notes that a local item's polyvalue depends on a
	// transaction's outcome.
	RecDepItem
	// RecDepSite notes that a polyvalue dependent on a transaction was
	// sent to another site, which must be informed of the outcome (§3.3).
	RecDepSite
	// RecDepClear removes a transaction's dependency entry ("once this is
	// done, that site can forget the outcome of T and the table entry").
	RecDepClear
	// RecAwait records that this site installed polyvalues for a
	// transaction whose outcome it must still learn from the named
	// coordinator; survives crashes so the outcome-request loop resumes.
	RecAwait
	// RecAwaitDone clears an await entry once the outcome is known.
	RecAwaitDone
	// RecDepSiteDone removes one site from a dependency entry after that
	// site acknowledged the outcome notification; when the last site is
	// removed the whole entry is deleted.
	RecDepSiteDone
	// RecPaxosMeta records the registrar information an acceptor learned
	// for one transaction's Paxos Commit decision: the coordinator and
	// the participant set (the decision's instance set).  First write
	// wins; duplicates are ignored.
	RecPaxosMeta
	// RecPaxosPromise records an acceptor's phase-1 promise for a
	// transaction: no ballot below Ballot will be accepted for any of
	// its instances.  Monotonic; a lower ballot is a no-op.
	RecPaxosPromise
	// RecPaxosAccept records an acceptor's phase-2 acceptance of a vote
	// at a ballot for one instance (the participant named in Site).
	// Survives acceptor restarts — the whole point of the plane.
	RecPaxosAccept
	// RecPaxosClear drops a transaction's acceptor state once its
	// decision is learned and durably recorded as an outcome.
	RecPaxosClear
	// RecVersion sets an item's committed replica version (quorum
	// replication).  Monotonic: a version at or below the current one is
	// ignored on apply, so replay is idempotent.
	RecVersion
	// RecVerPending records the versions a prepared transaction will
	// install for its written items if it commits.  The pending table
	// makes version assignment crash-safe: a restarted site still reports
	// effective versions that cover its in-doubt transactions.
	RecVerPending
	// RecVerDone clears a transaction's pending-version entry once its
	// outcome settles (the committed versions, if any, are logged as
	// RecVersion records first).
	RecVerDone
)

// Record is one WAL entry.  Fields beyond Kind are populated per kind.
type Record struct {
	Kind RecKind

	// RecPut, RecDepItem: the item.
	Item string
	// RecPut: the installed value.
	Poly polyvalue.Poly

	// RecPrepared, RecResolved, RecOutcome, RecDep*: the transaction.
	TID txn.ID
	// RecPrepared: computed new values and previous values per item.
	Writes   map[string]polyvalue.Poly
	Previous map[string]polyvalue.Poly
	// RecPrepared: the coordinator to query for the outcome.
	Coordinator string

	// RecOutcome: the decision.
	Committed bool

	// RecDepSite: the site that received a dependent polyvalue.
	// RecPaxosAccept: the instance (participant) the vote is for.
	Site string

	// RecPaxosMeta: the participant set.  RecOutcome: the sites that
	// must still hear the outcome.
	Sites []string
	// RecPaxosPromise, RecPaxosAccept: the ballot.
	Ballot uint32
	// RecPaxosAccept: the accepted vote (protocol.Vote numbering).
	Vote uint8

	// RecVersion: the item's new committed version.
	Ver uint64
	// RecVerPending: item → version the transaction installs on commit.
	Vers map[string]uint64
}

// appendPolyMap encodes a map of item → polyvalue deterministically
// (sorted keys).
func appendPolyMap(dst []byte, m map[string]polyvalue.Poly) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = m[k].AppendBinary(dst)
	}
	return dst
}

func decodePolyMap(buf []byte) (map[string]polyvalue.Poly, int, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return nil, 0, fmt.Errorf("storage: truncated map size")
	}
	if n > uint64(len(buf)) {
		return nil, 0, fmt.Errorf("storage: map size %d exceeds input", n)
	}
	m := make(map[string]polyvalue.Poly, n)
	for i := uint64(0); i < n; i++ {
		k, kn, err := decodeString(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += kn
		p, pn, err := polyvalue.DecodeBinary(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += pn
		m[k] = p
	}
	return m, off, nil
}

// appendStrings encodes a count and then each string.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// appendVerMap encodes a map of item → version deterministically
// (sorted keys).
func appendVerMap(dst []byte, m map[string]uint64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = binary.AppendUvarint(dst, m[k])
	}
	return dst
}

func decodeVerMap(buf []byte) (map[string]uint64, int, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return nil, 0, fmt.Errorf("storage: truncated map size")
	}
	if n > uint64(len(buf)) {
		return nil, 0, fmt.Errorf("storage: map size %d exceeds input", n)
	}
	m := make(map[string]uint64, n)
	for i := uint64(0); i < n; i++ {
		k, kn, err := decodeString(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += kn
		v, vn := binary.Uvarint(buf[off:])
		if vn <= 0 {
			return nil, 0, fmt.Errorf("storage: truncated version")
		}
		off += vn
		m[k] = v
	}
	return m, off, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(buf []byte) (string, int, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return "", 0, fmt.Errorf("storage: truncated string length")
	}
	if n > uint64(len(buf)-off) { // uint64 compare: no overflow
		return "", 0, fmt.Errorf("storage: truncated string")
	}
	return string(buf[off : off+int(n)]), off + int(n), nil
}

// encodePayload serializes the record body (without framing).
func (r Record) encodePayload() []byte {
	buf := []byte{byte(r.Kind)}
	if r.Kind.hasTID() {
		buf = appendString(buf, string(r.TID))
	}
	switch r.Kind {
	case RecPut:
		buf = appendString(buf, r.Item)
		buf = r.Poly.AppendBinary(buf)
	case RecPrepared:
		buf = appendString(buf, r.Coordinator)
		buf = appendPolyMap(buf, r.Writes)
		buf = appendPolyMap(buf, r.Previous)
	case RecAwait:
		buf = appendString(buf, r.Coordinator)
	case RecOutcome:
		if r.Committed {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		if len(r.Sites) > 0 {
			buf = appendStrings(buf, r.Sites)
		}
	case RecDepItem:
		buf = appendString(buf, r.Item)
	case RecDepSite, RecDepSiteDone:
		buf = appendString(buf, r.Site)
	case RecPaxosMeta:
		buf = appendString(buf, r.Coordinator)
		buf = appendStrings(buf, r.Sites)
	case RecPaxosPromise:
		buf = binary.AppendUvarint(buf, uint64(r.Ballot))
	case RecPaxosAccept:
		buf = appendString(buf, r.Site)
		buf = binary.AppendUvarint(buf, uint64(r.Ballot))
		buf = append(buf, r.Vote)
	case RecVersion:
		buf = appendString(buf, r.Item)
		buf = binary.AppendUvarint(buf, r.Ver)
	case RecVerPending:
		buf = appendVerMap(buf, r.Vers)
	}
	return buf
}

// hasTID reports whether a record of kind k opens with its transaction:
// every kind but a put and a version does.
func (k RecKind) hasTID() bool {
	return k > RecPut && k <= RecVerDone && k != RecVersion
}

// decodePayload parses a record body.
func decodePayload(buf []byte) (Record, error) {
	if len(buf) == 0 {
		return Record{}, fmt.Errorf("storage: empty record")
	}
	r := Record{Kind: RecKind(buf[0])}
	body := buf[1:]
	off := 0
	readStr := func() (string, error) {
		s, n, err := decodeString(body[off:])
		off += n
		return s, err
	}
	// readStrs reads a count and then each string; the count is bounded
	// by the bytes left, so a corrupt one cannot force a huge allocation.
	readStrs := func() ([]string, error) {
		n, w := binary.Uvarint(body[off:])
		if w <= 0 || n > uint64(len(body)-off) {
			return nil, fmt.Errorf("storage: truncated site count")
		}
		off += w
		ss := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			s, err := readStr()
			if err != nil {
				return nil, err
			}
			ss = append(ss, s)
		}
		return ss, nil
	}
	if r.Kind.hasTID() {
		tid, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.TID = txn.ID(tid)
	}
	switch r.Kind {
	case RecPut:
		item, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Item = item
		p, _, err := polyvalue.DecodeBinary(body[off:])
		if err != nil {
			return Record{}, err
		}
		r.Poly = p
	case RecPrepared:
		coord, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Coordinator = coord
		w, n, err := decodePolyMap(body[off:])
		if err != nil {
			return Record{}, err
		}
		off += n
		prev, _, err := decodePolyMap(body[off:])
		if err != nil {
			return Record{}, err
		}
		r.Writes, r.Previous = w, prev
	case RecResolved, RecDepClear, RecAwaitDone, RecPaxosClear, RecVerDone:
		// The transaction is the whole record.
	case RecAwait:
		coord, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Coordinator = coord
	case RecOutcome:
		if off >= len(body) {
			return Record{}, fmt.Errorf("storage: truncated outcome")
		}
		r.Committed = body[off] == 1
		off++
		// A memo carries no site list.
		if off < len(body) {
			sites, err := readStrs()
			if err != nil {
				return Record{}, err
			}
			r.Sites = sites
		}
	case RecDepItem:
		item, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Item = item
	case RecDepSite, RecDepSiteDone:
		site, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Site = site
	case RecPaxosMeta:
		coord, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Coordinator = coord
		if r.Sites, err = readStrs(); err != nil {
			return Record{}, err
		}
	case RecPaxosPromise:
		b, w := binary.Uvarint(body[off:])
		if w <= 0 || b > 0xffffffff {
			return Record{}, fmt.Errorf("storage: bad promise ballot")
		}
		r.Ballot = uint32(b)
	case RecPaxosAccept:
		site, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Site = site
		b, w := binary.Uvarint(body[off:])
		if w <= 0 || b > 0xffffffff {
			return Record{}, fmt.Errorf("storage: bad accept ballot")
		}
		off += w
		r.Ballot = uint32(b)
		if off >= len(body) {
			return Record{}, fmt.Errorf("storage: truncated accept vote")
		}
		r.Vote = body[off]
	case RecVersion:
		item, err := readStr()
		if err != nil {
			return Record{}, err
		}
		r.Item = item
		v, w := binary.Uvarint(body[off:])
		if w <= 0 {
			return Record{}, fmt.Errorf("storage: truncated version")
		}
		r.Ver = v
	case RecVerPending:
		m, _, err := decodeVerMap(body[off:])
		if err != nil {
			return Record{}, err
		}
		r.Vers = m
	default:
		return Record{}, fmt.Errorf("storage: unknown record kind %d", r.Kind)
	}
	return r, nil
}

// WAL frames records onto a byte stream: uvarint payload length, payload,
// 4-byte big-endian CRC32 of the payload.  Replay stops cleanly at a torn
// tail (truncated or CRC-failing final record), the standard contract for
// crash-consistent logs.
type WAL struct {
	buf bytes.Buffer
	// sink, when non-nil, receives every append immediately (e.g. a
	// file); the in-memory buffer remains the source of truth for
	// Bytes/Replay.
	sink io.Writer
	// appends/appendBytes, when set via Instrument, count every framed
	// record and its on-log size — each append is this log's
	// fsync-equivalent unit of durable work.
	appends     *metrics.Counter
	appendBytes *metrics.Counter
}

// Instrument attaches append counters (either may be nil).
func (w *WAL) Instrument(appends, appendBytes *metrics.Counter) {
	w.appends = appends
	w.appendBytes = appendBytes
}

// NewWAL returns an empty in-memory log.
func NewWAL() *WAL { return &WAL{} }

// NewWALWithSink mirrors every append to sink (e.g. an *os.File).
func NewWALWithSink(sink io.Writer) *WAL { return &WAL{sink: sink} }

// Append frames and stores one record.  The durable sink is written
// BEFORE the in-memory buffer: if the sink write fails (possibly
// tearing mid-frame on disk — which Replay tolerates as a torn tail),
// memory never runs ahead of what a restart would recover.
func (w *WAL) Append(r Record) error {
	payload := r.encodePayload()
	var frame []byte
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if w.sink != nil {
		write := w.sink.Write
		if u, ok := w.sink.(interface{ WriteUnforced([]byte) (int, error) }); ok && r.Kind == RecDepSiteDone {
			// A struck site is the one unforced record: a crash that
			// loses it costs one resend and ack, so it starts no sync.
			write = u.WriteUnforced
		}
		if _, err := write(frame); err != nil {
			return fmt.Errorf("storage: wal sink: %w", err)
		}
	}
	if _, err := w.buf.Write(frame); err != nil {
		return err
	}
	if w.appends != nil {
		w.appends.Inc()
	}
	if w.appendBytes != nil {
		w.appendBytes.Add(int64(len(frame)))
	}
	return nil
}

// Bytes returns the full log contents.
func (w *WAL) Bytes() []byte { return w.buf.Bytes() }

// Len returns the log size in bytes.
func (w *WAL) Len() int { return w.buf.Len() }

// Reset discards the log contents (used by checkpointing).
func (w *WAL) Reset() { w.buf.Reset() }

// Replay decodes records from data, invoking fn for each, and returns the
// number of complete records replayed.  A torn tail (truncated frame or
// CRC mismatch on the final record) ends replay without error; corruption
// before the tail is reported as a wrapped ErrCorruptRecord, with every
// record before the damage already replayed.
func Replay(data []byte, fn func(Record) error) (int, error) {
	count := 0
	off := 0
	for off < len(data) {
		ln, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return count, nil // torn tail
		}
		// Compare in uint64 space: a hostile/corrupt length must not
		// overflow the int arithmetic below.
		if ln > uint64(len(data)-off-n) || len(data)-off-n-int(ln) < 4 {
			return count, nil // torn tail
		}
		payload := data[off+n : off+n+int(ln)]
		crc := binary.BigEndian.Uint32(data[off+n+int(ln):])
		if crc32.ChecksumIEEE(payload) != crc {
			if off+n+int(ln)+4 == len(data) {
				return count, nil // torn final record
			}
			return count, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorruptRecord, off)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return count, fmt.Errorf("%w: record %d: %v", ErrCorruptRecord, count, err)
		}
		if err := fn(rec); err != nil {
			return count, err
		}
		count++
		off += n + int(ln) + 4
	}
	return count, nil
}
