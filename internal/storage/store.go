package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/polyvalue"
	"repro/internal/txn"
	"repro/internal/value"
)

// Prepared is a transaction this site has computed results for but whose
// outcome it has not resolved locally: the in-doubt window of §3.1.
type Prepared struct {
	TID         txn.ID
	Coordinator string
	// Writes are the computed new values for local items.
	Writes map[string]polyvalue.Poly
	// Previous are those items' values before the transaction.
	Previous map[string]polyvalue.Poly
}

// DepEntry is one row of the §3.3 dependency table: "a list of the
// polyvalues held by the site that depend on T, and a list of other sites
// to which polyvalues dependent on T have been sent."
type DepEntry struct {
	Items map[string]bool
	Sites map[string]bool
}

// PaxosAccepted is one instance's durably accepted (ballot, vote) pair
// at an acceptor.
type PaxosAccepted struct {
	Ballot uint32
	// Vote uses protocol.Vote numbering (1 prepared, 2 aborted); storage
	// stays protocol-agnostic and treats it as opaque.
	Vote uint8
}

// PaxosEntry is one transaction's acceptor-side Paxos Commit state: the
// registrar information (coordinator + participant set) plus the
// promised ballot and per-instance accepted values.  It is exactly what
// must survive an acceptor restart for the decision to survive F of
// 2F+1 acceptor failures.
type PaxosEntry struct {
	Coordinator  string
	Participants []string
	// Promised is the highest ballot promised for this transaction; it
	// covers every instance, present and future.
	Promised uint32
	// Accepted maps instance (participant site) → accepted state.
	Accepted map[string]PaxosAccepted
}

// clone returns a deep copy safe to hand out under no lock.
func (e *PaxosEntry) clone() PaxosEntry {
	out := PaxosEntry{
		Coordinator:  e.Coordinator,
		Participants: append([]string(nil), e.Participants...),
		Promised:     e.Promised,
		Accepted:     make(map[string]PaxosAccepted, len(e.Accepted)),
	}
	for k, v := range e.Accepted {
		out.Accepted[k] = v
	}
	return out
}

// itemShards fixes the item map's shard count.  Sixteen is plenty: the
// goal is that point reads on independent items don't serialize behind
// the store-wide mutex WAL appends hold.
const itemShards = 16

// itemShard is one lock-striped slice of the item map.
type itemShard struct {
	mu sync.RWMutex
	m  map[string]polyvalue.Poly
}

// Store is a site's durable state.  Every mutation appends to the WAL
// before updating memory, so Recover rebuilds exactly this state.  Safe
// for concurrent use.
//
// The item map is sharded: point reads (Get/Has) take only their
// shard's read lock, so independent transactions — and inspection reads
// like a bench harness sampling balances — don't serialize behind the
// store-wide mutex that orders WAL appends.  Writes still append to the
// WAL under the outer mutex first (crash ordering is sacred), then
// update the shard.  Lock order is always outer mu → shard mu.
type Store struct {
	mu       sync.RWMutex
	wal      *WAL
	items    [itemShards]itemShard
	prepared map[txn.ID]Prepared
	outcomes map[txn.ID]bool // tid → committed
	deps     map[txn.ID]*DepEntry
	awaits   map[txn.ID]string // tid → coordinator to ask for the outcome
	paxos    map[txn.ID]*PaxosEntry
	// versions holds committed replica versions (quorum replication);
	// pendVers holds the versions each prepared transaction will install
	// if it commits.  Effective version = max over both, so two
	// concurrent transactions can never mint the same version.
	versions map[string]uint64
	pendVers map[txn.ID]map[string]uint64
	// checkpoints, when set via Instrument, counts WAL compactions.
	checkpoints *metrics.Counter
	// volatile suppresses WAL logging entirely (see SetVolatile).
	volatile bool
	// polyCount tracks the number of items currently holding uncertain
	// values, maintained on every Put so budget checks need no item
	// sweep.  Atomic: readers (PolyCount) don't take any store lock.
	polyCount atomic.Int64
}

// shard picks the lock stripe for an item (FNV-1a).
func (s *Store) shard(item string) *itemShard {
	h := uint32(2166136261)
	for i := 0; i < len(item); i++ {
		h ^= uint32(item[i])
		h *= 16777619
	}
	return &s.items[h%itemShards]
}

// Instrument attaches a metrics registry: WAL appends, appended bytes and
// checkpoints are recorded as storage.wal.* series labelled with site.
func (s *Store) Instrument(reg *metrics.Registry, site string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := metrics.L("site", site)
	s.checkpoints = reg.Counter("storage.wal.checkpoints", l)
	s.wal.Instrument(reg.Counter("storage.wal.appends", l), reg.Counter("storage.wal.bytes", l))
}

// NewStore returns an empty store logging to a fresh in-memory WAL.
func NewStore() *Store { return NewStoreWithWAL(NewWAL()) }

// NewStoreWithWAL returns an empty store logging to the given WAL.
func NewStoreWithWAL(w *WAL) *Store {
	s := &Store{
		wal:      w,
		prepared: map[txn.ID]Prepared{},
		outcomes: map[txn.ID]bool{},
		deps:     map[txn.ID]*DepEntry{},
		awaits:   map[txn.ID]string{},
		paxos:    map[txn.ID]*PaxosEntry{},
		versions: map[string]uint64{},
		pendVers: map[txn.ID]map[string]uint64{},
	}
	for i := range s.items {
		s.items[i].m = map[string]polyvalue.Poly{}
	}
	return s
}

// Recover rebuilds a store from log contents; the returned store's WAL
// already contains the replayed records (appended afresh), so further
// mutation and a second crash are safe.  A torn tail is tolerated
// silently.  Corruption BEFORE the tail returns the store recovered
// from the intact prefix together with a wrapped ErrCorruptRecord: the
// bad record and everything after it are truncated away (the returned
// store's WAL holds only the good prefix), and the caller decides
// whether a partial recovery is acceptable.
func Recover(data []byte) (*Store, error) {
	s := NewStore()
	_, err := Replay(data, func(r Record) error { return s.apply(r, true) })
	if err != nil {
		if errors.Is(err, ErrCorruptRecord) {
			return s, err
		}
		return nil, err
	}
	return s, nil
}

// SetVolatile stops logging mutations to the WAL.  A node-mode cluster
// with no data directory has no durable medium at all — a process crash
// loses the Store object itself — so per-record framing, checksumming
// and log buffering buy nothing.  Not for the simulated runtime, where
// the in-memory store stands in for stable storage across simulated
// crashes and the WAL must stay replayable.
func (s *Store) SetVolatile() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.volatile = true
}

// apply logs (unless replaying or volatile) and applies one record.
// During replay the record is re-appended so the recovered store's log
// is self-contained.
func (s *Store) apply(r Record, replaying bool) error {
	if !s.volatile {
		if err := s.wal.Append(r); err != nil {
			return err
		}
	}
	switch r.Kind {
	case RecPut:
		sh := s.shard(r.Item)
		sh.mu.Lock()
		prev, had := sh.m[r.Item]
		sh.m[r.Item] = r.Poly
		sh.mu.Unlock()
		wasPoly := false
		if had {
			_, certain := prev.IsCertain()
			wasPoly = !certain
		}
		_, certain := r.Poly.IsCertain()
		if isPoly := !certain; isPoly != wasPoly {
			if isPoly {
				s.polyCount.Add(1)
			} else {
				s.polyCount.Add(-1)
			}
		}
	case RecPrepared:
		s.prepared[r.TID] = Prepared{
			TID: r.TID, Coordinator: r.Coordinator,
			Writes: r.Writes, Previous: r.Previous,
		}
	case RecResolved:
		delete(s.prepared, r.TID)
	case RecOutcome:
		s.outcomes[r.TID] = r.Committed
	case RecDepItem:
		s.dep(r.TID).Items[r.Item] = true
	case RecDepSite:
		s.dep(r.TID).Sites[r.Site] = true
	case RecDepSiteDone:
		if e, ok := s.deps[r.TID]; ok {
			delete(e.Sites, r.Site)
			if len(e.Sites) == 0 && len(e.Items) == 0 {
				delete(s.deps, r.TID)
			}
		}
	case RecDepClear:
		delete(s.deps, r.TID)
	case RecAwait:
		s.awaits[r.TID] = r.Coordinator
	case RecAwaitDone:
		delete(s.awaits, r.TID)
	case RecPaxosMeta:
		e := s.paxosEntry(r.TID)
		if e.Coordinator == "" && len(e.Participants) == 0 {
			e.Coordinator = r.Coordinator
			e.Participants = append([]string(nil), r.Sites...)
		}
	case RecPaxosPromise:
		e := s.paxosEntry(r.TID)
		if r.Ballot > e.Promised {
			e.Promised = r.Ballot
		}
	case RecPaxosAccept:
		e := s.paxosEntry(r.TID)
		if r.Ballot > e.Promised {
			e.Promised = r.Ballot
		}
		if prev, ok := e.Accepted[r.Site]; !ok || r.Ballot >= prev.Ballot {
			e.Accepted[r.Site] = PaxosAccepted{Ballot: r.Ballot, Vote: r.Vote}
		}
	case RecPaxosClear:
		delete(s.paxos, r.TID)
	case RecVersion:
		if r.Ver > s.versions[r.Item] {
			s.versions[r.Item] = r.Ver
		}
	case RecVerPending:
		m := make(map[string]uint64, len(r.Vers))
		for k, v := range r.Vers {
			m[k] = v
		}
		s.pendVers[r.TID] = m
	case RecVerDone:
		delete(s.pendVers, r.TID)
	default:
		return fmt.Errorf("storage: unknown record kind %d", r.Kind)
	}
	return nil
}

func (s *Store) paxosEntry(tid txn.ID) *PaxosEntry {
	e, ok := s.paxos[tid]
	if !ok {
		e = &PaxosEntry{Accepted: map[string]PaxosAccepted{}}
		s.paxos[tid] = e
	}
	return e
}

func (s *Store) dep(tid txn.ID) *DepEntry {
	e, ok := s.deps[tid]
	if !ok {
		e = &DepEntry{Items: map[string]bool{}, Sites: map[string]bool{}}
		s.deps[tid] = e
	}
	return e
}

// WALSize returns the current log size in bytes.
func (s *Store) WALSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wal.Len()
}

// WALBytes returns the current log contents (what survives a crash).
func (s *Store) WALBytes() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]byte, s.wal.Len())
	copy(out, s.wal.Bytes())
	return out
}

// Put installs a value for an item.
func (s *Store) Put(item string, p polyvalue.Poly) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(Record{Kind: RecPut, Item: item, Poly: p}, false)
}

// Get returns the current value of an item; never-written items read as
// the certain Nil value.  Touches only the item's shard lock.
func (s *Store) Get(item string) polyvalue.Poly {
	sh := s.shard(item)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if p, ok := sh.m[item]; ok {
		return p
	}
	return polyvalue.Simple(value.Nil{})
}

// Has reports whether the item has ever been written.
func (s *Store) Has(item string) bool {
	sh := s.shard(item)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.m[item]
	return ok
}

// Items returns the names of all stored items, sorted.
func (s *Store) Items() []string {
	var out []string
	for i := range s.items {
		sh := &s.items[i]
		sh.mu.RLock()
		for k := range sh.m {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// PolyItems returns the names of items currently holding uncertain
// values, sorted — the population the paper's §4 analysis predicts.
func (s *Store) PolyItems() []string {
	var out []string
	for i := range s.items {
		sh := &s.items[i]
		sh.mu.RLock()
		for k, p := range sh.m {
			if _, certain := p.IsCertain(); !certain {
				out = append(out, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// PolyCount returns the number of items currently holding uncertain
// values — PolyItems' length without the O(items) sweep, for budget
// checks on the protocol hot path.
func (s *Store) PolyCount() int { return int(s.polyCount.Load()) }

// DepCount returns the number of live §3.3 dependency-table entries.
func (s *Store) DepCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.deps)
}

// MarkPrepared records an in-doubt transaction's computed and previous
// values, durably, before ready is sent.
func (s *Store) MarkPrepared(p Prepared) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(Record{
		Kind: RecPrepared, TID: p.TID, Coordinator: p.Coordinator,
		Writes: p.Writes, Previous: p.Previous,
	}, false)
}

// ClearPrepared removes an in-doubt entry once the transaction's fate is
// settled at this site.
func (s *Store) ClearPrepared(tid txn.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(Record{Kind: RecResolved, TID: tid}, false)
}

// GetPrepared looks up an in-doubt entry.
func (s *Store) GetPrepared(tid txn.ID) (Prepared, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.prepared[tid]
	return p, ok
}

// PreparedTxns returns all in-doubt entries, sorted by transaction ID.
func (s *Store) PreparedTxns() []Prepared {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Prepared, 0, len(s.prepared))
	for _, p := range s.prepared {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// SetOutcome durably records a transaction's outcome.
func (s *Store) SetOutcome(tid txn.ID, committed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.outcomes[tid]; ok {
		if existing != committed {
			return fmt.Errorf("storage: conflicting outcome for %s: had %v, got %v", tid, existing, committed)
		}
		return nil
	}
	return s.apply(Record{Kind: RecOutcome, TID: tid, Committed: committed}, false)
}

// Outcome returns a recorded outcome.
func (s *Store) Outcome(tid txn.ID) (committed, known bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.outcomes[tid]
	return c, ok
}

// ForgetOutcome drops a recorded outcome (bounded-memory hygiene once no
// polyvalue can depend on it anymore; §3.3's "any data structures used to
// keep track of the transaction outcome should be quickly deleted").
// Implemented as a dep-clear plus outcome tombstone via RecDepClear; the
// outcome map entry is removed in memory only if present.
func (s *Store) ForgetOutcome(tid txn.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.outcomes, tid)
}

// AddDepItem records that a local item's polyvalue depends on tid.
func (s *Store) AddDepItem(tid txn.ID, item string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(Record{Kind: RecDepItem, TID: tid, Item: item}, false)
}

// AddDepSite records that a polyvalue dependent on tid was sent to site.
func (s *Store) AddDepSite(tid txn.ID, site string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if site == "" {
		return fmt.Errorf("storage: empty dependent site")
	}
	return s.apply(Record{Kind: RecDepSite, TID: tid, Site: site}, false)
}

// RemoveDepSite removes one acknowledged site from tid's dependency
// entry; the entry is deleted when that leaves it with neither sites nor
// items (an entry lives while it lists an unreduced item or an
// unacknowledged site).  A no-op when the entry or site is absent.
func (s *Store) RemoveDepSite(tid txn.ID, site string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.deps[tid]
	if !ok || !e.Sites[site] {
		return nil
	}
	return s.apply(Record{Kind: RecDepSiteDone, TID: tid, Site: site}, false)
}

// HasDeps reports whether tid has a live dependency entry.
func (s *Store) HasDeps(tid txn.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.deps[tid]
	return ok
}

// ClearDeps removes the dependency entry for tid.
func (s *Store) ClearDeps(tid txn.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(Record{Kind: RecDepClear, TID: tid}, false)
}

// Deps returns the dependency entry for tid: local items and remote
// sites, both sorted.  Empty slices mean no entry.
func (s *Store) Deps(tid txn.ID) (items, sites []string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.deps[tid]
	if !ok {
		return nil, nil
	}
	for it := range e.Items {
		items = append(items, it)
	}
	for st := range e.Sites {
		sites = append(sites, st)
	}
	sort.Strings(items)
	sort.Strings(sites)
	return items, sites
}

// DepTIDs returns every transaction with a live dependency entry, sorted.
func (s *Store) DepTIDs() []txn.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]txn.ID, 0, len(s.deps))
	for tid := range s.deps {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetAwait durably records that this site must learn tid's outcome from
// the named coordinator (it installed polyvalues for tid's updates).
func (s *Store) SetAwait(tid txn.ID, coordinator string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apply(Record{Kind: RecAwait, TID: tid, Coordinator: coordinator}, false)
}

// ClearAwait removes an await entry once the outcome is known.
func (s *Store) ClearAwait(tid txn.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.awaits[tid]; !ok {
		return nil
	}
	return s.apply(Record{Kind: RecAwaitDone, TID: tid}, false)
}

// Await looks up the coordinator recorded for tid.
func (s *Store) Await(tid txn.ID) (coordinator string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.awaits[tid]
	return c, ok
}

// Awaits returns every pending await entry, sorted by transaction ID.
func (s *Store) Awaits() map[txn.ID]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[txn.ID]string, len(s.awaits))
	for tid, c := range s.awaits {
		out[tid] = c
	}
	return out
}

// SetPaxosMeta durably records the registrar information for one
// transaction's decision at this acceptor.  First write wins;
// re-recording identical information is skipped entirely.
func (s *Store) SetPaxosMeta(tid txn.ID, coordinator string, participants []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.paxos[tid]; ok && (e.Coordinator != "" || len(e.Participants) > 0) {
		return nil
	}
	return s.apply(Record{Kind: RecPaxosMeta, TID: tid, Coordinator: coordinator, Sites: participants}, false)
}

// PaxosPromise durably raises the promised ballot for tid.  Returns the
// resulting promised ballot; a ballot at or below the current promise
// changes nothing (and appends nothing).
func (s *Store) PaxosPromise(tid txn.ID, ballot uint32) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.paxos[tid]; ok && ballot <= e.Promised {
		return e.Promised, nil
	}
	if err := s.apply(Record{Kind: RecPaxosPromise, TID: tid, Ballot: ballot}, false); err != nil {
		return 0, err
	}
	return ballot, nil
}

// PaxosAccept durably accepts vote at ballot for one instance of tid,
// provided ballot is at least the promised ballot.  Returns false (and
// the conflicting promise) when the promise forbids it.
func (s *Store) PaxosAccept(tid txn.ID, instance string, ballot uint32, vote uint8) (bool, uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.paxos[tid]; ok && ballot < e.Promised {
		return false, e.Promised, nil
	}
	if err := s.apply(Record{Kind: RecPaxosAccept, TID: tid, Site: instance, Ballot: ballot, Vote: vote}, false); err != nil {
		return false, 0, err
	}
	return true, ballot, nil
}

// PaxosState returns a copy of tid's acceptor state.
func (s *Store) PaxosState(tid txn.ID) (PaxosEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.paxos[tid]
	if !ok {
		return PaxosEntry{}, false
	}
	return e.clone(), true
}

// PaxosTxns returns every transaction with live acceptor state, sorted.
func (s *Store) PaxosTxns() []txn.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]txn.ID, 0, len(s.paxos))
	for tid := range s.paxos {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ClearPaxos drops tid's acceptor state (the decision was learned and is
// durably recorded as an outcome).  A no-op when absent.
func (s *Store) ClearPaxos(tid txn.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.paxos[tid]; !ok {
		return nil
	}
	return s.apply(Record{Kind: RecPaxosClear, TID: tid}, false)
}

// SetVerPending durably records the versions tid will install for its
// written items if it commits.  Pending versions count toward
// EffectiveVersion immediately, so a concurrent transaction reading a
// quorum can never mint the same version number.
func (s *Store) SetVerPending(tid txn.ID, vers map[string]uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(vers) == 0 {
		return nil
	}
	return s.apply(Record{Kind: RecVerPending, TID: tid, Vers: vers}, false)
}

// SettleVersions resolves tid's pending versions: on commit each becomes
// the item's committed version, on abort they are simply dropped (commit
// is the only event that bumps a replica version — bumping on abort
// would let a stale replica win a quorum-read tie-break).  A no-op when
// tid has no pending entry.
func (s *Store) SettleVersions(tid txn.ID, committed bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pend, ok := s.pendVers[tid]
	if !ok {
		return nil
	}
	if committed {
		items := make([]string, 0, len(pend))
		for it := range pend {
			items = append(items, it)
		}
		sort.Strings(items)
		for _, it := range items {
			if err := s.apply(Record{Kind: RecVersion, Item: it, Ver: pend[it]}, false); err != nil {
				return err
			}
		}
	}
	return s.apply(Record{Kind: RecVerDone, TID: tid}, false)
}

// Version returns an item's committed replica version (zero when never
// written under replication).
func (s *Store) Version(item string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versions[item]
}

// EffectiveVersion returns the maximum of the item's committed version
// and any version a prepared transaction other than except would install
// — the version a quorum read must see so concurrent writers allocate
// distinct numbers.
func (s *Store) EffectiveVersion(item string, except txn.ID) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.versions[item]
	for tid, pend := range s.pendVers {
		if pv, ok := pend[item]; ok && pv > v && tid != except {
			v = pv
		}
	}
	return v
}

// SetVersion installs a committed version learned through anti-entropy,
// provided it is newer than the current committed version.  Reports
// whether it applied.
func (s *Store) SetVersion(item string, ver uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ver <= s.versions[item] {
		return false, nil
	}
	if err := s.apply(Record{Kind: RecVersion, Item: item, Ver: ver}, false); err != nil {
		return false, err
	}
	return true, nil
}

// VersionsSnapshot returns a copy of the committed version table.
func (s *Store) VersionsSnapshot() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.versions))
	for k, v := range s.versions {
		out[k] = v
	}
	return out
}

// OutcomesSnapshot returns a copy of the known-outcome table — the
// digest anti-entropy gossips.
func (s *Store) OutcomesSnapshot() map[txn.ID]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[txn.ID]bool, len(s.outcomes))
	for tid, c := range s.outcomes {
		out[tid] = c
	}
	return out
}

// Checkpoint compacts the WAL: the log is rewritten as the minimal record
// sequence reproducing the current state.  Returns the new log size.
func (s *Store) Checkpoint() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := NewWAL()
	// Stable order for determinism.  Item writers are blocked on the
	// outer mutex here, so the shard sweep sees a consistent state.
	var items []string
	vals := map[string]polyvalue.Poly{}
	for i := range s.items {
		sh := &s.items[i]
		sh.mu.RLock()
		for k, p := range sh.m {
			items = append(items, k)
			vals[k] = p
		}
		sh.mu.RUnlock()
	}
	sort.Strings(items)
	for _, k := range items {
		if err := fresh.Append(Record{Kind: RecPut, Item: k, Poly: vals[k]}); err != nil {
			return 0, err
		}
	}
	tids := make([]txn.ID, 0, len(s.prepared))
	for tid := range s.prepared {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		p := s.prepared[tid]
		if err := fresh.Append(Record{Kind: RecPrepared, TID: tid, Coordinator: p.Coordinator, Writes: p.Writes, Previous: p.Previous}); err != nil {
			return 0, err
		}
	}
	otids := make([]txn.ID, 0, len(s.outcomes))
	for tid := range s.outcomes {
		otids = append(otids, tid)
	}
	sort.Slice(otids, func(i, j int) bool { return otids[i] < otids[j] })
	for _, tid := range otids {
		if err := fresh.Append(Record{Kind: RecOutcome, TID: tid, Committed: s.outcomes[tid]}); err != nil {
			return 0, err
		}
	}
	dtids := make([]txn.ID, 0, len(s.deps))
	for tid := range s.deps {
		dtids = append(dtids, tid)
	}
	sort.Slice(dtids, func(i, j int) bool { return dtids[i] < dtids[j] })
	for _, tid := range dtids {
		e := s.deps[tid]
		its := make([]string, 0, len(e.Items))
		for it := range e.Items {
			its = append(its, it)
		}
		sort.Strings(its)
		for _, it := range its {
			if err := fresh.Append(Record{Kind: RecDepItem, TID: tid, Item: it}); err != nil {
				return 0, err
			}
		}
		sts := make([]string, 0, len(e.Sites))
		for st := range e.Sites {
			sts = append(sts, st)
		}
		sort.Strings(sts)
		for _, st := range sts {
			if err := fresh.Append(Record{Kind: RecDepSite, TID: tid, Site: st}); err != nil {
				return 0, err
			}
		}
	}
	atids := make([]txn.ID, 0, len(s.awaits))
	for tid := range s.awaits {
		atids = append(atids, tid)
	}
	sort.Slice(atids, func(i, j int) bool { return atids[i] < atids[j] })
	for _, tid := range atids {
		if err := fresh.Append(Record{Kind: RecAwait, TID: tid, Coordinator: s.awaits[tid]}); err != nil {
			return 0, err
		}
	}
	ptids := make([]txn.ID, 0, len(s.paxos))
	for tid := range s.paxos {
		// Acceptor state for a transaction whose outcome is durably
		// recorded here is dead weight: the outcome record alone answers
		// every future inquiry.  Compaction drops it.
		if _, decided := s.outcomes[tid]; decided {
			continue
		}
		ptids = append(ptids, tid)
	}
	sort.Slice(ptids, func(i, j int) bool { return ptids[i] < ptids[j] })
	for _, tid := range ptids {
		e := s.paxos[tid]
		if e.Coordinator != "" || len(e.Participants) > 0 {
			if err := fresh.Append(Record{Kind: RecPaxosMeta, TID: tid, Coordinator: e.Coordinator, Sites: e.Participants}); err != nil {
				return 0, err
			}
		}
		if e.Promised > 0 {
			if err := fresh.Append(Record{Kind: RecPaxosPromise, TID: tid, Ballot: e.Promised}); err != nil {
				return 0, err
			}
		}
		insts := make([]string, 0, len(e.Accepted))
		for inst := range e.Accepted {
			insts = append(insts, inst)
		}
		sort.Strings(insts)
		for _, inst := range insts {
			a := e.Accepted[inst]
			if err := fresh.Append(Record{Kind: RecPaxosAccept, TID: tid, Site: inst, Ballot: a.Ballot, Vote: a.Vote}); err != nil {
				return 0, err
			}
		}
	}
	vitems := make([]string, 0, len(s.versions))
	for it := range s.versions {
		vitems = append(vitems, it)
	}
	sort.Strings(vitems)
	for _, it := range vitems {
		if err := fresh.Append(Record{Kind: RecVersion, Item: it, Ver: s.versions[it]}); err != nil {
			return 0, err
		}
	}
	vtids := make([]txn.ID, 0, len(s.pendVers))
	for tid := range s.pendVers {
		vtids = append(vtids, tid)
	}
	sort.Slice(vtids, func(i, j int) bool { return vtids[i] < vtids[j] })
	for _, tid := range vtids {
		if err := fresh.Append(Record{Kind: RecVerPending, TID: tid, Vers: s.pendVers[tid]}); err != nil {
			return 0, err
		}
	}
	s.wal.Reset()
	if _, err := s.wal.buf.Write(fresh.Bytes()); err != nil {
		return 0, err
	}
	if s.checkpoints != nil {
		s.checkpoints.Inc()
	}
	return s.wal.Len(), nil
}
