package cluster

import (
	"cmp"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/polytxn"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// Site is one database node.  Its protocol state — everything from down
// on — is guarded by stateMu and touched only from inside a site event
// (see engine.go); the controller interacts only through enqueue.
type Site struct {
	id    protocol.SiteID
	c     *Cluster
	store *storage.Store

	// queue is the event queue; one goroutine drains it.
	queue chan siteEvent
	quit  chan struct{}
	once  sync.Once

	// stateMu serializes events; fx is the running message's staged
	// outputs, the first early of them sent ahead of its frames past seq0
	// (sendAhead), and dep the furthest WAL position any of them declared.
	// glog is the group-commit WAL stage (Config.SyncWAL with a DataDir);
	// when set, outputs whose WAL bytes are not durable yet park on outbox,
	// and itemSeq holds the WAL position of each item's last install.
	stateMu sync.Mutex
	fx      []effect
	dep     uint64
	early   int
	seq0    uint64
	glog    *storage.GroupLog
	outbox  chan parked
	itemSeq map[string]uint64

	// timers is the site's timer heap (see engine.go), timerSeq its arm
	// counter; clockID is the one clock timer armed for its head, due at
	// clockDue (0: none armed), and clockGen numbers the arms.
	timers   timerHeap
	timerSeq uint64
	clockID  vclock.TimerID
	clockDue vclock.Time
	clockGen uint64

	down bool
	// durLost marks an incarnation whose durable log failed a write or
	// fsync (the fsyncgate discipline): the page cache can no longer be
	// trusted, the in-memory store may run ahead of the disk, and the
	// only safe recovery is a full process-style rebuild that re-reads
	// the on-disk bytes.  Set by durabilityPanic; survives crash();
	// restart() refuses while it is set.
	durLost bool
	// armed holds the one-shot crash points set by Cluster.ArmCrash
	// (see crashpoints.go).  Injection state, not protocol state: it
	// survives crash() so a point armed while down fires after restart.
	armed map[CrashPoint]bool
	// flog is the site's file-backed WAL when one exists (DataDir set);
	// the mid-wal-append crash point tears writes through it.
	flog *storage.FileLog
	// walFloor is the WAL size right after the last compaction.  The
	// next checkpoint fires only once the log exceeds both
	// CheckpointBytes and twice this floor: when live state alone is
	// bigger than the configured threshold, a fixed trigger would
	// otherwise re-checkpoint on every message (each compaction ends
	// already over the limit).
	walFloor int

	// locks maps item → holding transaction (no-wait exclusive locks:
	// conflicts refuse, which aborts, which is deadlock-free).
	locks map[string]txn.ID
	// lockedBy is the reverse index: the items each transaction holds,
	// so release is O(items held) instead of a sweep of every lock on
	// the site.
	lockedBy map[txn.ID][]string
	// stamps maps each item installed since the site last came up to its
	// change stamp; every other item carries boot.  A read for an update
	// reports the stamp, and the prepare is refused unless it is still
	// current (see stampOf).
	stamps map[string]uint64
	boot   uint64
	// parts holds per-transaction participant contexts.
	parts map[txn.ID]*partCtx
	// coords holds per-transaction coordinator contexts.
	coords map[txn.ID]*coordCtx
	// retry holds outcome-request retry state for in-doubt transactions.
	retry map[txn.ID]retryState
	// plead holds per-transaction Paxos leader state (coordinator fast
	// path or takeover) when the cluster runs the paxos decision plane.
	plead map[txn.ID]*paxosLead
	// pwatch holds acceptor-side watchdog timers: a site with durable
	// undecided paxos instance state eventually drives the decision
	// itself if no announce reaches it.
	pwatch map[txn.ID]timerID
	// ackRetry holds coordinator-side decision-retransmission timers:
	// until every participant acknowledges a decided outcome, the
	// complete/abort is resent with capped exponential backoff.
	ackRetry map[txn.ID]timerID
	// notifyRetry holds resend timers for §3.3 outcome notifications
	// that have not been acknowledged by every listed site yet.
	notifyRetry map[txn.ID]timerID
	// acks tracks, per decided transaction this site coordinated, which
	// participants have not yet acknowledged the outcome; once empty the
	// outcome record is garbage-collected after OutcomeTTL (§3.3).
	acks map[txn.ID]map[protocol.SiteID]bool
	// expiries is the outcome-GC queue (see forgetLater), live from
	// expHead on; expTimer is its one sweep timer, armed while the queue
	// is non-empty.  downAt is when the site last went down: restart
	// drops what fell due since, as a timer firing on a down site is.
	expiries []expiry
	expHead  int
	expTimer timerID
	downAt   vclock.Time
	// decidedAt timestamps coordinator decisions still awaiting their
	// last outcome ack, for the settle-phase histogram.
	decidedAt map[txn.ID]vclock.Time

	// admission gates in-flight coordinated transactions (overload
	// protection); credits are taken in SubmitProgram and returned when
	// the handle decides or the site crashes with the handle pending.
	admission *guard.Admission
	// budget caps the local polyvalue population and dependency-table
	// size; while exhausted, in-doubt participants degrade to blocking
	// 2PC instead of installing more polyvalues.
	budget *guard.Budget
	// inboxDepth/inboxHWM/inboxShed observe the event queue: events
	// queued, the deepest it has been at a dequeue (hwm is the value
	// behind the gauge), and events shed.
	inboxDepth *metrics.Gauge
	inboxHWM   *metrics.Gauge
	inboxShed  *metrics.Counter
	// durPanics counts durability panics (site.durability.panics): times
	// this site crashed itself rather than ack work its disk may have
	// dropped.
	durPanics  *metrics.Counter
	hwm        int
	outboxWait *metrics.Histogram // parked time; the releaser alone observes

	// aeTimer is the anti-entropy gossip loop's pending timer (quorum
	// replication only); cancelled by crash, re-armed by restart.
	// aeRound counts rounds initiated, seeding the deterministic peer
	// pick and digest-window rotation.
	aeTimer timerID
	aeRound int

	// lockAt timestamps each held lock's acquisition for the blocking
	// accountant (see spans.go); blockedLock/Indoubt/Degraded are the
	// cached item.blocked.seconds{site,cause} histograms it feeds.
	lockAt          map[string]vclock.Time
	blockedLock     *metrics.Histogram
	blockedIndoubt  *metrics.Histogram
	blockedDegraded *metrics.Histogram
	// spanOf remembers the root span of decided transactions this site
	// coordinated, for the settle span recorded when the last outcome
	// ack arrives (the coordinator context is gone by then).
	spanOf map[txn.ID]trace.SpanID
}

// expiry is one queued outcome record and the instant it may go.
type expiry struct {
	tid txn.ID
	at  vclock.Time
}

// retryState is one in-doubt transaction's outcome-request loop.
type retryState struct {
	timer       timerID
	coordinator protocol.SiteID
	// attempt counts inquiries sent so far, driving the backoff.
	attempt int
}

// partCtx is a participant's volatile state for one transaction.
type partCtx struct {
	tid         txn.ID
	coordinator protocol.SiteID
	machine     *protocol.Participant
	// locked lists local items this transaction holds locks on.
	locked []string
	// writes/previous cover the local write items (set at prepare).
	writes   map[string]polyvalue.Poly
	previous map[string]polyvalue.Poly
	// blocked marks a blocking-policy participant sitting on its locks
	// past the wait timeout.
	blocked bool
	// deadline is the transaction's local expiry instant, re-anchored
	// from the remaining budget the prepare message carried; zero when
	// no deadline is set.
	deadline  vclock.Time
	waitTimer timerID
	// readyAt timestamps the ready message for the wait-phase histogram.
	readyAt vclock.Time
	// spanParent is the coordinator's root span ID, learned from the
	// trace context on the prepare; zero when tracing is off.
	spanParent trace.SpanID
	// blockedAt/blockCause describe the in-doubt camp of a blocked
	// participant: when it began and which accountant cause (indoubt or
	// degraded) its lock holds accrue to.
	blockedAt  vclock.Time
	blockCause string
}

// coordCtx is a coordinator's volatile state for one transaction or
// query.
type coordCtx struct {
	tid    txn.ID
	t      txn.T
	handle *Handle

	// isQuery marks read-only queries (no prepare/commit phases).
	isQuery bool
	qh      *QueryHandle
	qnode   expr.Node
	// qCertainBy, when non-zero, is §3.4's "withhold" mode: an uncertain
	// answer is re-polled until it becomes certain or this deadline
	// passes.
	qCertainBy vclock.Time

	// readWait counts outstanding read replies; values accumulates them,
	// and stamps their items' change stamps when a read round ran.
	readWait  map[protocol.SiteID]bool
	values    map[string]polyvalue.Poly
	stamps    map[string]uint64
	readTimer timerID

	// quorum holds the replica bookkeeping when the cluster runs quorum
	// replication (see quorum.go); nil on the classic single-copy path.
	quorum *quorumCtx

	// participants are the sites involved (every site holding an
	// accessed item); machine collects their readies.
	participants []protocol.SiteID
	// readOnly marks participants that voted ready-read-only and left
	// the protocol early; they receive no complete/abort.
	readOnly   map[protocol.SiteID]bool
	machine    *protocol.Coordinator
	readyTimer timerID
	prepared   bool
	// writeOwner holds each writer's items, sorted; later is the second
	// wave of prepares, sent once laterDue holds and then cleared.
	writeOwner map[protocol.SiteID][]string
	later      []protocol.SiteID
	// deadline is the end-to-end expiry instant (TxnDeadline after
	// submission); the coordinator aborts the transaction when
	// deadlineTimer fires with it still undecided.  Zero when disabled.
	deadline      vclock.Time
	deadlineTimer timerID
	// paxosPending marks a coordinator decision already handed to the
	// paxos plane (waiting for consensus before finalizing).
	paxosPending bool
	// startAt/prepareAt bound the read and prepare phases for the
	// per-phase latency histograms.
	startAt   vclock.Time
	prepareAt vclock.Time
	// span is the transaction's root span ID (zero when tracing is off);
	// it rides outgoing prepares as the trace context.
	span trace.SpanID
}

func newSite(c *Cluster, id protocol.SiteID, store *storage.Store, flog *storage.FileLog, glog *storage.GroupLog) *Site {
	s := &Site{
		id: id, c: c, store: store, flog: flog, glog: glog,
		quit:        make(chan struct{}),
		armed:       map[CrashPoint]bool{},
		locks:       map[string]txn.ID{},
		lockedBy:    map[txn.ID][]string{},
		stamps:      map[string]uint64{},
		boot:        c.stamps.Add(1),
		parts:       map[txn.ID]*partCtx{},
		coords:      map[txn.ID]*coordCtx{},
		retry:       map[txn.ID]retryState{},
		plead:       map[txn.ID]*paxosLead{},
		pwatch:      map[txn.ID]timerID{},
		ackRetry:    map[txn.ID]timerID{},
		notifyRetry: map[txn.ID]timerID{},
		acks:        map[txn.ID]map[protocol.SiteID]bool{},
		decidedAt:   map[txn.ID]vclock.Time{},
		lockAt:      map[string]vclock.Time{},
		spanOf:      map[txn.ID]trace.SpanID{},
	}
	l := metrics.L("site", string(id))
	s.admission = guard.NewAdmission(c.cfg.AdmissionLimit, c.reg, string(id))
	s.budget = guard.NewBudget(c.cfg.MaxPolyBudget, c.cfg.MaxDepBudget, c.reg, string(id))
	s.inboxDepth = c.reg.Gauge("site.inbox.depth", l)
	s.inboxHWM = c.reg.Gauge("site.inbox.hwm", l)
	s.inboxShed = c.reg.Counter("site.inbox.shed", l)
	s.durPanics = c.reg.Counter("site.durability.panics", l)
	s.blockedLock = c.reg.Histogram("item.blocked.seconds", l, metrics.L("cause", causeLock))
	s.blockedIndoubt = c.reg.Histogram("item.blocked.seconds", l, metrics.L("cause", causeInDoubt))
	s.blockedDegraded = c.reg.Histogram("item.blocked.seconds", l, metrics.L("cause", causeDegraded))
	s.queue = make(chan siteEvent, siteInboxDepth)
	if glog != nil {
		s.outbox, s.itemSeq = make(chan parked, siteInboxDepth), map[string]uint64{}
		s.outboxWait = c.reg.Histogram("site.outbox.wait.seconds", l)
		go s.releaser()
	}
	go s.loop()
	if c.cfg.Replication != nil && len(c.cfg.Sites) > 1 {
		// The timer-ID write is site state: run it as an event, like
		// every later re-arm.
		s.do(func() { s.armGossip() })
	}
	return s
}

// close stops the queue and releaser goroutines.  Idempotent; pending wait-mode
// callers unblock without running.
func (s *Site) close() { s.once.Do(func() { close(s.quit) }) }

// handle dispatches one delivered message.
func (s *Site) handle(msg protocol.Message) {
	switch msg.Kind {
	case protocol.MsgReadReq:
		s.onReadReq(msg)
	case protocol.MsgReadRep:
		s.onReadRep(msg)
	case protocol.MsgPrepare:
		s.onPrepare(msg)
	case protocol.MsgReady:
		s.onReady(msg)
	case protocol.MsgRefuse:
		s.onRefuse(msg)
	case protocol.MsgComplete, protocol.MsgAbort:
		s.onOutcomeMsg(msg.TID, msg.Kind == protocol.MsgComplete)
		s.ackOutcome(msg)
	case protocol.MsgOutcomeReq:
		s.onOutcomeReq(msg)
	case protocol.MsgOutcomeInfo:
		s.resolveOutcome(msg.TID, msg.Committed)
		// Acknowledge so the notifier can strike us from its dependency
		// entry and stop resending (§3.3 delivery must be reliable).
		if msg.From != s.id {
			s.send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: msg.TID, To: msg.From})
		}
	case protocol.MsgOutcomeAck:
		s.onOutcomeAck(msg)
	case protocol.MsgPaxosBegin:
		s.onPaxosBegin(msg)
	case protocol.MsgPaxosPrepare:
		s.onPaxosPrepare(msg)
	case protocol.MsgPaxosPromise:
		s.onPaxosPromise(msg)
	case protocol.MsgPaxosAccept:
		s.onPaxosAccept(msg)
	case protocol.MsgPaxosAccepted:
		s.onPaxosAccepted(msg)
	case protocol.MsgPaxosReject:
		s.onPaxosReject(msg)
	case protocol.MsgPaxosDecision:
		s.onPaxosDecision(msg)
	case protocol.MsgAntiEntropyDigest:
		s.onAEDigest(msg)
	case protocol.MsgAntiEntropyReply:
		s.onAEReply(msg)
	case protocol.MsgAntiEntropyUpdate:
		s.onAEUpdate(msg)
	}
	if cb := s.c.cfg.CheckpointBytes; cb > 0 && s.store.WALSize() > max(cb, 2*s.walFloor) {
		if n, err := s.store.Checkpoint(); err == nil {
			s.walFloor = n
		}
	}
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

// beginTxn starts coordinating a transaction (runs on the site
// goroutine).
func (s *Site) beginTxn(t txn.T, h *Handle) {
	if s.down {
		s.decideHandle(h, StatusAborted, "coordinator down")
		s.c.aborted.Inc()
		return
	}
	ctx := &coordCtx{
		tid: t.ID, t: t, handle: h,
		readWait: map[protocol.SiteID]bool{},
		values:   map[string]polyvalue.Poly{},
		startAt:  s.c.clk.Now(),
	}
	if d := s.c.cfg.TxnDeadline; d > 0 {
		ctx.deadline = ctx.startAt + vclock.Time(d)
	}
	if s.spansOn() {
		ctx.span = s.c.cfg.Spans.NextID()
	}
	reads, chained := t.ReadSet(), false
	if rep := s.c.cfg.Replication; rep != nil {
		// The participants are the probed sites that answer (see plan).
		q, probes, err := newQuorum(rep, t.Items(), t.WriteSet())
		if err != nil {
			s.c.aborted.Inc()
			s.decideHandle(h, StatusAborted, err.Error())
			s.recordTxnRoot(ctx, StatusAborted, err.Error(), true)
			return
		}
		ctx.quorum, reads = q, probes
	} else {
		// Participants: every site holding an accessed item.
		ctx.participants = sortedKeys(s.owners(t.Items()))
		// §2.1 lock avoidance: a transaction entirely local to this site
		// needs no atomic-update coordination at all — commit in one step.
		if len(ctx.participants) == 1 && ctx.participants[0] == s.id {
			s.onePhaseCommit(ctx, h)
			return
		}
		chained = s.chained(t.Program, nil)
	}
	s.coords[t.ID] = ctx
	if ctx.deadline > 0 {
		ctx.deadlineTimer = s.after(s.c.cfg.TxnDeadline, func() { s.onTxnDeadline(t.ID) })
	}

	// No read round when every site that needs another site's values (a
	// sink) reads them only from sites that can prepare first (sources):
	// see sendPrepares.
	if chained {
		s.sendPrepares(ctx)
		return
	}
	// Read phase: request the read-set values and their stamps, which the
	// prepares carry back for validation.  Nothing is locked.
	ctx.stamps = map[string]uint64{}
	s.sendReads(ctx, reads, true)
}

// owners groups items by the site they are placed at.
func (s *Site) owners(items []string) map[protocol.SiteID][]string {
	out := map[protocol.SiteID][]string{}
	for _, item := range items {
		owner := s.c.Placement(item)
		out[owner] = append(out[owner], item)
	}
	return out
}

// sendReads requests items from their owners, with their stamps for an
// update, and arms the read timer.
func (s *Site) sendReads(ctx *coordCtx, items []string, update bool) {
	owners := s.owners(items)
	for _, site := range sortedKeys(owners) {
		items := owners[site]
		ctx.readWait[site] = true
		sort.Strings(items)
		// Item names out of the client's program: nothing logged here.
		s.sendDep(protocol.Message{
			Kind: protocol.MsgReadReq, TID: ctx.tid, To: site,
			Items: items, Update: update, Coordinator: s.id,
		}, 0)
	}
	ctx.readTimer = s.after(s.c.cfg.ReadyTimeout, func() { s.onReadTimeout(ctx.tid) })
}

// chained reports whether every statement of p reads items placed at
// other sites than its target's only from sources: sites that host a
// statement of p and whose statements all read only items placed there.
// visit, unless nil, sees each such item with the statement's site, a
// sink.  With visit nil it allocates nothing.
func (s *Site) chained(p expr.Program, visit func(item string, sink protocol.SiteID)) bool {
	for _, st := range p.Stmts {
		home := s.c.Placement(st.Target)
		if !st.ReadsOnly(func(item string) bool {
			if at := s.c.Placement(item); at != home {
				if visit != nil {
					visit(item, home)
				}
				return s.source(p, at)
			}
			return true
		}) {
			return false
		}
	}
	return true
}

// source reports whether site hosts a statement of p and every statement
// it hosts reads only items placed there.
func (s *Site) source(p expr.Program, site protocol.SiteID) bool {
	local := func(item string) bool { return s.c.Placement(item) == site }
	hosts := false
	for _, st := range p.Stmts {
		if local(st.Target) && !st.ReadsOnly(local) {
			return false
		}
		hosts = hosts || local(st.Target)
	}
	return hosts
}

// onePhaseCommit executes a fully-local transaction directly: lock,
// compute, install, unlock.  No protocol window exists in which a remote
// failure could strand the items — the §2.1 observation that avoiding
// the need for an atomic distributed update avoids its hazards.
func (s *Site) onePhaseCommit(ctx *coordCtx, h *Handle) {
	items := ctx.t.Items()
	if !s.lockAll(ctx.tid, items) {
		s.c.refused.Inc()
		s.c.aborted.Inc()
		reason := "refused: lock conflict at " + string(s.id)
		s.decideHandle(h, StatusAborted, reason)
		s.recordTxnRoot(ctx, StatusAborted, reason, true)
		return
	}
	defer s.releaseLocks(ctx.tid)
	ex := &polytxn.Executor{}
	res, err := ex.Execute(ctx.t, s.store.Get)
	if err != nil {
		s.c.aborted.Inc()
		s.decideHandle(h, StatusAborted, "compute: "+err.Error())
		s.recordTxnRoot(ctx, StatusAborted, "compute: "+err.Error(), true)
		return
	}
	if err := s.install(res.Writes); err != nil {
		s.c.aborted.Inc()
		s.decideHandle(h, StatusAborted, "wal: "+err.Error())
		s.recordTxnRoot(ctx, StatusAborted, "wal: "+err.Error(), true)
		return
	}
	s.c.committed.Inc()
	s.decideHandle(h, StatusCommitted, "")
	s.recordTxnRoot(ctx, StatusCommitted, "", true)
}

// beginQuery starts a read-only query.  A non-zero certainBy deadline
// selects §3.4's withhold mode: uncertain answers are re-polled until
// they resolve or the deadline passes.
func (s *Site) beginQuery(qid txn.ID, node expr.Node, qh *QueryHandle, certainBy vclock.Time) {
	if s.down {
		s.completeQuery(qh, polyvalue.Poly{}, errSiteDown)
		return
	}
	ctx := &coordCtx{
		tid: qid, isQuery: true, qh: qh, qnode: node, qCertainBy: certainBy,
		readWait: map[protocol.SiteID]bool{},
		values:   map[string]polyvalue.Poly{},
	}
	reads := expr.Vars(node)
	if rep := s.c.cfg.Replication; rep != nil {
		q, probes, err := newQuorum(rep, reads, nil)
		if err != nil {
			s.completeQuery(qh, polyvalue.Poly{}, err)
			return
		}
		ctx.quorum, reads = q, probes
	}
	s.coords[qid] = ctx
	if len(reads) == 0 {
		s.finishQuery(ctx)
		return
	}
	s.sendReads(ctx, reads, false)
}

// onReadRep collects read values; when complete, queries evaluate and
// update transactions move to the prepare phase, or a chain's second.
func (s *Site) onReadRep(msg protocol.Message) {
	ctx, ok := s.coords[msg.TID]
	// Once prepared, only a chain's sources still owe values.
	if !ok || ctx.prepared && len(ctx.later) == 0 || !ctx.readWait[msg.From] {
		return // late or duplicate
	}
	delete(ctx.readWait, msg.From)
	if ctx.stamps != nil { // a read round asked for them
		maps.Copy(ctx.stamps, msg.Stamps)
	}
	if q := ctx.quorum; q != nil {
		// Done once every item has its quorum.
		if q.fold(msg, ctx.values); !q.satisfied() {
			return
		}
	} else {
		maps.Copy(ctx.values, msg.Values)
		if ctx.prepared {
			if laterDue(ctx) {
				s.prepareLater(ctx)
			}
			return
		}
		// Done once every site has answered.
		if len(ctx.readWait) > 0 {
			return
		}
	}
	s.cancel(ctx.readTimer)
	if ctx.isQuery {
		s.finishQuery(ctx)
		return
	}
	s.sendPrepares(ctx)
}

// finishQuery evaluates the query against the collected values; in
// withhold mode an uncertain answer schedules a re-poll instead of
// completing (§3.4: "withhold those outputs until the uncertainty is
// resolved").
func (s *Site) finishQuery(ctx *coordCtx) {
	ex := &polytxn.Executor{}
	p, err := ex.EvalQuery(ctx.qnode, func(item string) polyvalue.Poly {
		if v, ok := ctx.values[item]; ok {
			return v
		}
		return polyvalue.Simple(nilValue())
	})
	delete(s.coords, ctx.tid)
	if err == nil && ctx.qCertainBy > 0 {
		if _, certain := p.IsCertain(); !certain {
			if s.c.clk.Now() >= ctx.qCertainBy {
				s.completeQuery(ctx.qh, p, ErrStillUncertain)
				return
			}
			qid, node, qh, deadline := ctx.tid, ctx.qnode, ctx.qh, ctx.qCertainBy
			s.c.clk.After(s.c.cfg.RetryInterval, func() {
				s.do(func() {
					if s.down {
						// Withheld queries must not hang on a crashed
						// coordinator.
						s.completeQuery(qh, polyvalue.Poly{}, errSiteDown)
						return
					}
					s.beginQuery(qid, node, qh, deadline)
				})
			})
			return
		}
	}
	s.completeQuery(ctx.qh, p, err)
}

// remainingDeadline is the time budget left on a coordinated
// transaction, for stamping outgoing protocol messages: zero when no
// deadline is set (and when already expired — the deadline timer owns
// that case; messages never carry a non-positive budget).
func (s *Site) remainingDeadline(ctx *coordCtx) time.Duration {
	if ctx.deadline <= 0 {
		return 0
	}
	rem := ctx.deadline - s.c.clk.Now()
	if rem <= 0 {
		return 0
	}
	return time.Duration(rem)
}

// onTxnDeadline aborts a coordinated transaction whose end-to-end time
// budget ran out before a decision was reached.
func (s *Site) onTxnDeadline(tid txn.ID) {
	ctx, ok := s.coords[tid]
	if !ok || ctx.isQuery {
		return
	}
	s.c.deadlineCoord.Inc()
	s.decide(ctx, false, reasonDeadline)
}

// onReadTimeout aborts a transaction (or fails a query) whose read phase
// stalled — some site holding needed data is unreachable, so per the
// paper the transaction is simply not performed.
func (s *Site) onReadTimeout(tid txn.ID) {
	ctx, ok := s.coords[tid]
	if !ok || ctx.prepared {
		return
	}
	if ctx.isQuery {
		s.completeQuery(ctx.qh, polyvalue.Poly{}, errReadTimeout)
		delete(s.coords, tid)
		return
	}
	s.decide(ctx, false, "read timeout")
}

// sendPrepares starts the commit round and sends the first of up to two
// waves of prepares.  In a chain it goes to the sources, with no values;
// their replies bring what the sinks read.  After a read round, a quorum
// probe included, it goes to the writers, as the read-only sites validate
// their reads and keep nothing.
func (s *Site) sendPrepares(ctx *coordCtx) {
	// Failpoint: reads collected (if there was a read round), no prepare
	// sent — no participant holds anything yet.
	if s.maybeCrash(CrashBeforePrepare, ctx.tid) {
		return
	}
	if ctx.deadline > 0 && s.c.clk.Now() >= ctx.deadline {
		// The budget ran out during the read phase; don't start a commit
		// round that is already doomed.
		s.c.deadlineCoord.Inc()
		s.decide(ctx, false, reasonDeadline)
		return
	}
	ctx.prepared = true
	ctx.prepareAt = s.c.clk.Now()
	if ctx.readTimer != nil { // a read round ran
		s.c.phaseRead.Observe((ctx.prepareAt - ctx.startAt).Seconds())
		if s.spansOn() {
			s.recordSpan(trace.Span{Kind: spanPhaseRead, TID: string(ctx.tid),
				Parent: ctx.span, Start: ctx.startAt, End: ctx.prepareAt})
		}
	}
	// Under replication the prepare runs the program rewritten onto the
	// winning replicas; a single copy runs it as written.
	if ctx.quorum != nil {
		if err := s.plan(ctx); err != nil {
			s.decide(ctx, false, "replica rewrite: "+err.Error())
			return
		}
	}
	ctx.machine = protocol.NewCoordinator(ctx.tid, ctx.participants)
	ctx.machine.Instrument(s.c.reg)
	if s.paxosPlane() {
		// Open the replicated decision before any prepare goes out, so
		// the registrar reaches the acceptors ahead of the participants'
		// ballot-0 votes (a vote arriving first is dropped and must be
		// repaired by takeover).
		s.paxosBegin(ctx)
	}
	ctx.readOnly = map[protocol.SiteID]bool{}
	ctx.writeOwner = s.owners(ctx.t.WriteSet())
	if ctx.readTimer == nil {
		s.chained(ctx.t.Program, func(item string, sink protocol.SiteID) {
			ctx.readWait[s.c.Placement(item)] = true
			if !slices.Contains(ctx.later, sink) {
				ctx.later = append(ctx.later, sink)
			}
		})
	} else {
		for _, site := range ctx.participants {
			if _, writes := ctx.writeOwner[site]; !writes {
				ctx.later = append(ctx.later, site)
			}
		}
	}
	s.prepare(ctx, slices.DeleteFunc(slices.Clone(ctx.participants), func(site protocol.SiteID) bool {
		return slices.Contains(ctx.later, site)
	}))
	ctx.readyTimer = s.after(s.c.cfg.ReadyTimeout, func() { s.onReadyTimeout(ctx.tid) })
}

// laterDue reports whether the second wave may be prepared: a chain's
// sinks once every source's values are in, a read round's read-only sites
// once every writer is ready and holds its locks.
func laterDue(ctx *coordCtx) bool {
	return len(ctx.later) > 0 && len(ctx.readWait) == 0 && (ctx.readTimer == nil ||
		!slices.ContainsFunc(ctx.participants, func(site protocol.SiteID) bool {
			return !ctx.machine.Ready(site) && !slices.Contains(ctx.later, site)
		}))
}

// prepareLater sends the second wave, unless the transaction is decided
// or the wave is a chain's sinks, whose readies could no longer count.
func (s *Site) prepareLater(ctx *coordCtx) {
	if ctx.readTimer == nil && s.pastWait(ctx) {
		s.onReadyTimeout(ctx.tid)
	} else if ctx.machine.State() == protocol.CCollecting {
		s.prepare(ctx, ctx.later)
	}
	ctx.later = nil
}

// pastWait reports whether a participant that voted may be in doubt by
// now, its wait timer started after the first prepares went out.
func (s *Site) pastWait(ctx *coordCtx) bool {
	return s.c.clk.Now()-ctx.prepareAt >= vclock.Time(s.c.cfg.WaitTimeout)
}

// prepare sends sites their prepares, with the values collected so far
// and the stamps of each site's items that the read round read.
func (s *Site) prepare(ctx *coordCtx, sites []protocol.SiteID) {
	// §3.3 bookkeeping: forwarding a polyvalue to a participant makes
	// that participant a site "to which polyvalues dependent on T have
	// been sent"; record it so outcome news reaches them.
	depTIDs := map[txn.ID]bool{}
	for _, p := range ctx.values {
		for _, dep := range p.DependsOn() {
			depTIDs[dep] = true
		}
	}

	program := ctx.t.Program.String()
	forwarded := false
	for _, site := range sites {
		items := ctx.writeOwner[site]
		// Read-only participants (no local writes) compute nothing, so
		// they need no values and receive no forwarded polyvalues.
		var vals map[string]polyvalue.Poly
		if len(items) > 0 && len(ctx.values) > 0 {
			vals = copyValues(ctx.values)
			for dep := range depTIDs {
				if site != s.id {
					_ = s.store.AddDepSite(dep, string(site))
					forwarded = true
				}
			}
		}
		// The program and values other sites replied with: nothing logged
		// here (the event still waits for the AddDepSite frames above).
		s.sendDep(protocol.Message{
			Kind: protocol.MsgPrepare, TID: ctx.tid, To: site,
			Items: items, Values: vals, Versions: ctx.quorum.versions(items),
			Stamps: s.stampsAt(ctx, site), Program: program, Coordinator: s.id,
			Deadline: s.remainingDeadline(ctx),
			TraceCtx: s.traceCtx(ctx),
		}, 0)
	}
	if forwarded {
		s.passOnKnown(depTIDs)
	}
}

// passOnKnown reduces each forwarded dependency whose outcome this site
// already knows.  The entry now lists a site that has not heard the
// outcome, and no later event here would bring the news again (§3.3).
func (s *Site) passOnKnown(deps map[txn.ID]bool) {
	for _, dep := range sortedKeys(deps) {
		if committed, known := s.store.Outcome(dep); known {
			s.reduceDependents(dep, committed)
		}
	}
}

// stampsAt returns the read round's stamps of the items placed at site.
func (s *Site) stampsAt(ctx *coordCtx, site protocol.SiteID) map[string]uint64 {
	var out map[string]uint64
	for item, st := range ctx.stamps {
		if s.c.Placement(item) == site {
			if out == nil {
				out = map[string]uint64{}
			}
			out[item] = st
		}
	}
	return out
}

// onReady collects a participant's ready; the last one decides commit,
// the last writer's may send the read-only participants' prepares.
func (s *Site) onReady(msg protocol.Message) {
	ctx, ok := s.coords[msg.TID]
	if !ok || ctx.machine == nil {
		return
	}
	if msg.ReadOnly {
		ctx.readOnly[msg.From] = true
	} else if s.pastWait(ctx) {
		// Voters may be in doubt with their locks released, and a writer
		// that locked only now may have let a transaction read its item and
		// write a released one in between.  A read-only ready still counts:
		// its items were current and unlocked when it voted.
		s.onReadyTimeout(ctx.tid)
		return
	}
	if ctx.machine.OnReady(msg.From) {
		s.decide(ctx, true, "")
		return
	}
	if laterDue(ctx) {
		s.prepareLater(ctx)
	}
}

// onRefuse aborts the transaction on the first refusal.
func (s *Site) onRefuse(msg protocol.Message) {
	s.c.refused.Inc()
	ctx, ok := s.coords[msg.TID]
	if !ok || ctx.machine == nil {
		return
	}
	if ctx.machine.OnRefuse(msg.From) {
		s.decide(ctx, false, "refused: "+msg.Reason)
	}
}

// onReadyTimeout aborts a transaction whose readies did not all arrive
// promptly.
func (s *Site) onReadyTimeout(tid txn.ID) {
	ctx, ok := s.coords[tid]
	if !ok || ctx.machine == nil {
		return
	}
	if ctx.machine.OnTimeout() {
		s.decide(ctx, false, "ready timeout")
	}
}

// decide routes a coordinator decision to the configured decision
// plane: the wal plane (and any decision taken before prepares went
// out, when no vote was ever solicited) finalizes directly; the paxos
// plane must first get the decision chosen by the acceptor group.
func (s *Site) decide(ctx *coordCtx, committed bool, reason string) {
	if s.paxosPlane() && ctx.prepared {
		s.paxosDecide(ctx, committed, reason)
		return
	}
	s.finalizeDecision(ctx, committed, reason)
}

// finalizeDecision fixes and durably records the outcome, then
// broadcasts it.
func (s *Site) finalizeDecision(ctx *coordCtx, committed bool, reason string) {
	// Failpoint: the paper's critical moment — every participant is in
	// the wait phase and the decision never leaves this site.
	if committed && s.maybeCrash(CrashBeforeDecision, ctx.tid) {
		return
	}
	// Durable decision before any complete/abort leaves the site: a
	// crash after this point must answer outcome requests consistently.
	// A log failure here is a durability panic inside walWrite: the site
	// is gone before any complete/abort could leave it.
	crashed, _ := s.walWrite(ctx.tid, func() error {
		return s.store.SetOutcome(ctx.tid, committed)
	})
	if crashed {
		return
	}
	// Failpoint: decision durable, nothing announced — participants
	// must pull the outcome from this site's recovered log.
	if committed && s.maybeCrash(CrashAfterDecisionLog, ctx.tid) {
		return
	}
	kind := protocol.MsgAbort
	if committed {
		kind = protocol.MsgComplete
	}
	// Only prepares leave state at a site: the participants are told,
	// bar those that voted read-only and left.  Track their outcome
	// acknowledgements so the record can be garbage-collected once
	// everyone has settled (§3.3).
	targets := make([]protocol.SiteID, 0, len(ctx.participants))
	for _, site := range ctx.participants {
		if ctx.prepared && !ctx.readOnly[site] {
			targets = append(targets, site)
		}
	}
	now := s.c.clk.Now()
	if ctx.prepared {
		s.c.phasePrepare.Observe((now - ctx.prepareAt).Seconds())
		if s.spansOn() {
			s.recordSpan(trace.Span{Kind: spanPhasePrepare, TID: string(ctx.tid),
				Parent: ctx.span, Start: ctx.prepareAt, End: now})
		}
	}
	// Pipelining: the decision is durable, so the client's fate is
	// sealed — resolve the handle BEFORE fanning the outcome out to
	// participants.  The submitter unblocks one WAL write after the last
	// ready instead of also waiting behind N outcome sends; §3.3's
	// acknowledgement collection (and the resend loop below) proceeds
	// concurrently with whatever the client does next.
	st := StatusAborted
	if committed {
		st = StatusCommitted
		s.c.committed.Inc()
	} else {
		s.c.aborted.Inc()
	}
	s.decideHandle(ctx.handle, st, reason)
	s.recordTxnRoot(ctx, st, reason, false)
	if s.c.cfg.OutcomeTTL >= 0 && len(targets) > 0 {
		waiting := make(map[protocol.SiteID]bool, len(targets))
		for _, site := range targets {
			waiting[site] = true
		}
		s.acks[ctx.tid] = waiting
		s.decidedAt[ctx.tid] = now
		if s.spansOn() {
			s.spanOf[ctx.tid] = ctx.span
		}
	}
	for _, site := range targets {
		s.send(protocol.Message{Kind: kind, TID: ctx.tid, To: site, Committed: committed})
	}
	// A dropped complete/abort must not strand participants until their
	// own inquiry loop fires: retransmit to unacked participants with
	// capped exponential backoff.
	s.armDecisionResend(ctx.tid, committed, 1)
	if s.paxosPlane() && ctx.prepared {
		// Teach the acceptor group the outcome so inquiries resolve
		// there and instance state can be garbage-collected, and retire
		// any leader still running for this transaction.
		if pl, ok := s.plead[ctx.tid]; ok {
			s.cancel(pl.timer)
			delete(s.plead, ctx.tid)
		}
		s.paxosAnnounce(ctx.tid, committed)
	}
	s.cancel(ctx.readTimer)
	s.cancel(ctx.readyTimer)
	s.cancel(ctx.deadlineTimer)
	delete(s.coords, ctx.tid)
}

// ---------------------------------------------------------------------
// Participant side
// ---------------------------------------------------------------------

// onReadReq serves the requested items, with their stamps to an update.
// It takes no lock and keeps no state: the prepare validates the stamps.
func (s *Site) onReadReq(msg protocol.Message) {
	s.sendValues(msg.TID, msg.From, msg.Items, msg.Update, msg.Update)
}

// sendValues replies to a read of items for tid.  An update's read
// (forward) makes the recipient a holder of any polyvalue it returns;
// stamped adds the items' change stamps.
func (s *Site) sendValues(tid txn.ID, to protocol.SiteID, items []string, forward, stamped bool) {
	values := make(map[string]polyvalue.Poly, len(items))
	// Under quorum replication every read reply reports each replica's
	// effective version — max(committed, pending) — for the coordinator's
	// freshest-value pick and next-version mint.  A replica locked by a
	// prepared writer still holds its value from before that prepare, so
	// the writer's pending version is left out: the pair stays consistent,
	// and the reader's prepare refuses unless that writer aborts.
	var vers, stamps map[string]uint64
	if s.c.cfg.Replication != nil {
		vers = make(map[string]uint64, len(items))
	}
	if stamped {
		stamps = make(map[string]uint64, len(items))
	}
	var forwarded map[txn.ID]bool
	for _, item := range items {
		p := s.store.Get(item)
		values[item] = p
		if vers != nil {
			vers[item] = s.store.EffectiveVersion(item, s.locks[item])
		}
		if stamps != nil {
			stamps[item] = s.stampOf(item)
		}
		if forward {
			// §3.3: sending a polyvalue makes the recipient a site that
			// must learn the outcomes it depends on.
			for _, dep := range p.DependsOn() {
				if to != s.id {
					_ = s.store.AddDepSite(dep, string(to))
					if forwarded == nil {
						forwarded = map[txn.ID]bool{}
					}
					forwarded[dep] = true
				}
			}
		}
	}
	s.sendAhead(protocol.Message{
		Kind: protocol.MsgReadRep, TID: tid, To: to, Values: values,
		Versions: vers, Stamps: stamps,
	}, s.installSeq(items)) // reveals item values, nothing else logged
	s.passOnKnown(forwarded)
}

// onPrepare runs the compute phase for the local share of the write set.
func (s *Site) onPrepare(msg protocol.Message) {
	// The transport sends aborts ahead of bulk traffic, so one can
	// overtake the prepare it chases: a blind write locked now would
	// prepare a dead transaction and hold its items until the wait
	// timeout.  A copy of a prepare this site has acted on, arriving once
	// the outcome is known or the site is in doubt, would run the
	// transaction again.
	if committed, known := s.store.Outcome(msg.TID); known {
		if !committed {
			s.send(protocol.Message{
				Kind: protocol.MsgRefuse, TID: msg.TID, To: msg.From,
				Reason: "already aborted at " + string(s.id),
			})
		}
		return
	}
	if _, inDoubt := s.store.Await(msg.TID); inDoubt {
		return
	}
	ctx := s.part(msg.TID, msg.Coordinator)
	if ctx.machine.State() != protocol.StateIdle {
		return // duplicate prepare
	}
	if msg.TraceCtx != 0 {
		ctx.spanParent = trace.SpanID(msg.TraceCtx)
	}
	arriveAt := s.c.clk.Now()
	// computeSpan records this participant's compute-phase span.  It must
	// run after the ready is sent but before the after-ready crash point:
	// a committed transaction then always carries the span of every
	// participant whose ready it counted, which is the completeness
	// invariant cmd/polytrace audits.
	computeSpan := func(vote string, attrs ...string) {
		if !s.spansOn() {
			return
		}
		a := map[string]string{"vote": vote}
		for i := 0; i+1 < len(attrs); i += 2 {
			a[attrs[i]] = attrs[i+1]
		}
		s.recordSpan(trace.Span{Kind: spanPartCompute, TID: string(msg.TID),
			Parent: ctx.spanParent, Start: arriveAt, End: s.c.clk.Now(), Attrs: a})
	}
	if msg.Deadline > 0 {
		// Re-anchor the remaining budget against the local clock (wall
		// clocks of separate processes share no epoch).
		ctx.deadline = s.c.clk.Now() + vclock.Time(msg.Deadline)
	}
	if _, err := ctx.machine.Transition(protocol.EvPrepare); err != nil {
		return
	}
	refuse := func(reason string) {
		_, _ = ctx.machine.Transition(protocol.EvComputeFailed)
		s.releaseLocks(msg.TID)
		delete(s.parts, msg.TID)
		s.send(protocol.Message{
			Kind: protocol.MsgRefuse, TID: msg.TID, To: msg.From, Reason: reason,
		})
		// The Aborted vote makes the refusal permanent at the acceptors:
		// no takeover can ever drive this transaction to commit, which
		// is what lets the coordinator announce a refuse-abort without
		// waiting for consensus.
		s.paxosVote(msg, protocol.VoteAborted)
		computeSpan("refuse", "reason", reason)
	}
	if len(msg.Items) == 0 {
		// Read-only participant, prepared once every writer holds its
		// locks: its reads are still good if no install has changed their
		// items and no other transaction holds one, about to write it.
		// Then vote ready-read-only and leave the protocol — no wait
		// phase, no decision message needed.
		for item := range msg.Stamps {
			if _, held := s.locks[item]; held {
				refuse("lock conflict at " + string(s.id))
				return
			}
		}
		if s.stale(msg.Stamps) {
			refuse("stale read at " + string(s.id))
			return
		}
		delete(s.parts, msg.TID)
		s.send(protocol.Message{
			Kind: protocol.MsgReady, TID: msg.TID, To: msg.From, ReadOnly: true,
		})
		// A read-only participant still owns a Paxos instance (it is in
		// the registrar): commit stays unchoosable until it votes.
		s.paxosVote(msg, protocol.VotePrepared)
		computeSpan("ready", "readonly", "true")
		return
	}
	t, err := txn.New(msg.TID, msg.Program)
	if err != nil {
		refuse("bad program: " + err.Error())
		return
	}
	// The site runs only its own statements, reading other sites' items
	// from msg.Values and its own from its store.  It locks every local
	// item the transaction reads or writes, then refuses if the read round
	// read one that an install has changed since.  A chain's source,
	// prepared with no values, also locks its items the sinks read, to
	// send them on.
	local := func(item string) bool { return s.c.Placement(item) == s.id }
	var serve []string
	if len(msg.Values) == 0 {
		s.chained(t.Program, func(item string, _ protocol.SiteID) {
			if local(item) && !slices.Contains(serve, item) {
				serve = append(serve, item)
			}
		})
	}
	t.Program = t.Program.Filter(func(st expr.Assign) bool { return local(st.Target) })
	lock := append(slices.Clip(serve), t.Items()...)
	for item := range msg.Stamps {
		lock = append(lock, item)
	}
	slices.Sort(lock)
	lock = slices.Compact(slices.DeleteFunc(lock, func(item string) bool { return !local(item) }))
	if !s.lockAll(msg.TID, lock) {
		refuse("lock conflict at " + string(s.id))
		return
	}
	ctx.locked = lock
	if s.stale(msg.Stamps) {
		refuse("stale read at " + string(s.id))
		return
	}
	// A participant in doubt releases its items as polyvalues, and another
	// transaction may carry one here before this site locks.  Computing
	// from it would make the transaction depend on itself.
	for _, item := range lock {
		if slices.Contains(s.store.Get(item).DependsOn(), msg.TID) {
			refuse("already in doubt at " + string(s.id))
			return
		}
	}

	// Compute the writes from the coordinator's read snapshot, current by
	// the stamps, or from the local store for what it lacks, then keep the
	// local share.  Previous values come from the local store (the items
	// are locked, hence stable).
	ex := &polytxn.Executor{}
	res, err := ex.Execute(t, func(item string) polyvalue.Poly {
		if v, ok := msg.Values[item]; ok {
			return v
		}
		return s.store.Get(item)
	})
	if err != nil {
		refuse("compute: " + err.Error())
		return
	}
	ctx.writes = map[string]polyvalue.Poly{}
	ctx.previous = map[string]polyvalue.Poly{}
	for _, item := range msg.Items {
		ctx.writes[item] = res.Writes[item]
		ctx.previous[item] = s.store.Get(item)
	}
	// A source's values reveal nothing it is about to log, so they are
	// staged ahead of its prepared record and need not wait for its sync.
	if len(serve) > 0 {
		s.sendValues(msg.TID, msg.From, serve, true, false)
	}
	// Durably remember the in-doubt window before declaring ready, so a
	// crash in the wait phase recovers into polyvalues, not amnesia.
	if len(ctx.writes) > 0 {
		// A log failure is a durability panic inside walWrite: the site
		// dies without sending ready, which the coordinator treats like
		// any other participant crash — it never sees an ack for state
		// the disk doesn't hold.
		crashed, _ := s.walWrite(msg.TID, func() error {
			return s.store.MarkPrepared(storage.Prepared{
				TID: msg.TID, Coordinator: string(msg.Coordinator),
				Writes: ctx.writes, Previous: ctx.previous,
			})
		})
		if crashed {
			return
		}
		// Quorum replication: durably remember the versions this prepare
		// would assign, so concurrent read probes see them as pending
		// (and a recovered site still settles them at outcome time).
		if len(msg.Versions) > 0 {
			_ = s.store.SetVerPending(msg.TID, msg.Versions)
		}
	}
	// Failpoint: prepared record durable, ready unsent — the
	// coordinator times out while this site recovers in doubt.
	if s.maybeCrash(CrashBeforeReady, msg.TID) {
		return
	}
	if _, err := ctx.machine.Transition(protocol.EvComputed); err != nil {
		return
	}
	s.send(protocol.Message{Kind: protocol.MsgReady, TID: msg.TID, To: msg.From})
	// The ballot-0 Prepared vote travels with the ready (before the
	// after-ready failpoint: a participant that died right after its
	// ready still has its vote replicated, so consensus can commit).
	s.paxosVote(msg, protocol.VotePrepared)
	computeSpan("ready", "items", joinItems(msg.Items))
	// Failpoint: ready sent, wait phase entered — and immediately died.
	if s.maybeCrash(CrashAfterReady, msg.TID) {
		return
	}
	ctx.readyAt = s.c.clk.Now()
	// A deadline expiring mid-wait resolves the participant early (per
	// policy) instead of camping on locks for the full wait timeout: the
	// coordinator has already aborted by then.
	wt := vclock.Time(s.c.cfg.WaitTimeout)
	if ctx.deadline > 0 {
		if rem := ctx.deadline - ctx.readyAt; rem < wt {
			if rem < 0 {
				rem = 0
			}
			wt = rem
		}
	}
	ctx.waitTimer = s.after(wt, func() { s.onWaitTimeout(msg.TID) })
}

// onWaitTimeout fires when neither complete nor abort arrived promptly:
// the §3.1 moment that separates the polyvalue mechanism from blocking
// 2PC.  It is the one in-doubt rule: a restarted site resumes each
// prepared transaction in its wait phase and settles it here at once.
func (s *Site) onWaitTimeout(tid txn.ID) {
	ctx, ok := s.parts[tid]
	if !ok || ctx.machine.State() != protocol.StateWait {
		return
	}
	now := s.c.clk.Now()
	s.c.inDoubt.Inc()
	// A resumed participant has no wait to observe: its earlier
	// incarnation's ready time died with it.
	waitStart := ctx.readyAt
	if waitStart > 0 {
		s.c.phaseWait.Observe((now - waitStart).Seconds())
	}
	// Zero readyAt so a later outcome delivery (blocking resume, arbitrary
	// self-decision) does not observe this wait a second time.
	ctx.readyAt = 0
	waitSpan := func(resolution string) {
		if !s.spansOn() || waitStart == 0 {
			return
		}
		s.recordSpan(trace.Span{Kind: spanPartWait, TID: string(tid),
			Parent: ctx.spanParent, Start: waitStart, End: now,
			Attrs: map[string]string{"resolution": resolution}})
	}
	if ctx.deadline > 0 && now >= ctx.deadline {
		s.c.deadlinePart.Inc()
	}
	// camp holds every lock until the outcome is known.  The accountant's
	// ordinary hold so far closes under cause=lock (a resumed participant
	// has none open), and a fresh interval opens under the blocking cause.
	camp := func(cause, resolution string) {
		ctx.blocked = true
		s.flushBlocked(ctx.locked, causeLock, false)
		s.stampLocks(ctx.locked)
		ctx.blockedAt, ctx.blockCause = now, cause
		waitSpan(resolution)
		s.armOutcomeRetry(tid, ctx.coordinator)
	}
	if s.c.cfg.Policy == PolicyBlocking {
		// Baseline: hold everything until the outcome is known.
		camp(causeInDoubt, "blocked")
		return
	}
	if s.c.cfg.Policy == PolicyArbitrary {
		// §2.3 relaxed consistency: decide locally and move on.  Each
		// site guesses independently, so sites can disagree — the
		// atomicity violation the A3 ablation measures.
		guess := arbitraryChoice(s.id, tid)
		waitSpan("arbitrary")
		s.onOutcomeMsg(tid, guess)
		return
	}
	if s.budget.Enabled() {
		s.updateBudget()
		if s.budget.Degraded() || s.budget.OverPolyWith(s.store.PolyCount()+len(ctx.writes)) {
			// Graceful degradation: the polyvalue/dependency budget is
			// exhausted (or this install would push past it), so fall back
			// to classic blocking 2PC for this transaction — hold the
			// locks, install nothing, and wait for the outcome.  Memory
			// stays bounded at the cost of availability on exactly the
			// items this transaction touches.
			s.c.degradedTxns.Inc()
			camp(causeDegraded, "blocked-degraded")
			return
		}
	}
	if _, err := ctx.machine.Transition(protocol.EvTimeout); err != nil {
		return
	}
	waitSpan("polyvalue")
	// Durably swap the prepared entry for an await entry: a crash from
	// here on must still know to ask ctx.coordinator for the outcome.
	_ = s.store.SetAwait(tid, string(ctx.coordinator))
	s.installPolyvalues(tid, ctx.writes, ctx.previous)
	if s.spansOn() && len(ctx.writes) > 0 {
		s.pointSpan(spanPolyInstall, tid, ctx.spanParent,
			map[string]string{"items": joinItems(sortedKeys(ctx.writes))})
	}
	_ = s.store.ClearPrepared(tid)
	s.releaseLocks(tid)
	delete(s.parts, tid)
	s.armOutcomeRetry(tid, ctx.coordinator)
}

// install puts a committed write set in item order.  A polytransaction's
// result may itself be a polyvalue depending on other transactions, so
// every uncertain one gets its §3.3 dependency-table rows.  It stops at
// the first WAL error.
func (s *Site) install(writes map[string]polyvalue.Poly) error {
	for _, item := range sortedKeys(writes) {
		p := writes[item]
		if err := s.put(item, p); err != nil {
			return err
		}
		if _, certain := p.IsCertain(); !certain {
			s.c.polyInstalls.Inc()
			s.c.polyForks.Inc()
			for _, dep := range p.DependsOn() {
				_ = s.store.AddDepItem(dep, item)
			}
		}
	}
	s.reduceKnownDeps()
	return nil
}

// installPolyvalues writes {<new, T>, <old, !T>} for every updated item
// and records the §3.3 dependency-table rows.
func (s *Site) installPolyvalues(tid txn.ID, writes, previous map[string]polyvalue.Poly) {
	for _, item := range sortedKeys(writes) {
		p := polyvalue.Uncertain(tid, writes[item], previous[item])
		if err := s.put(item, p); err != nil {
			continue
		}
		if _, certain := p.IsCertain(); certain {
			continue // new equals old: no uncertainty introduced
		}
		s.c.polyInstalls.Inc()
		for _, dep := range p.DependsOn() {
			_ = s.store.AddDepItem(dep, item)
		}
	}
	s.reduceKnownDeps()
	s.updateBudget()
}

// updateBudget re-evaluates the degradation mode against the live
// polyvalue population and dependency-table size, tracing transitions.
// Cheap (two counters and a comparison), so it runs after every install
// and reduction sweep.
func (s *Site) updateBudget() {
	if !s.budget.Enabled() {
		return
	}
	poly, deps := s.store.PolyCount(), s.store.DepCount()
	switch s.budget.Update(poly, deps) {
	case 1:
		s.pointSpan(spanDegrade, "", 0, budgetAttrs(poly, deps))
	case -1:
		s.pointSpan(spanRestore, "", 0, budgetAttrs(poly, deps))
	}
}

// reduceKnownDeps reduces any dependency whose outcome this site already
// knows — outcome news can race ahead of a polyvalue install, and without
// this check such a polyvalue would never be reduced.
func (s *Site) reduceKnownDeps() {
	for _, dep := range s.store.DepTIDs() {
		if committed, known := s.store.Outcome(dep); known {
			s.reduceDependents(dep, committed)
		}
	}
}

// onOutcomeMsg handles a complete or abort message: if we are still a
// live participant in the wait phase, act on it; otherwise fold it into
// the general outcome-resolution path.
func (s *Site) onOutcomeMsg(tid txn.ID, committed bool) {
	ctx, ok := s.parts[tid]
	if !ok || ctx.machine.State() != protocol.StateWait {
		s.resolveOutcome(tid, committed)
		return
	}
	ev := protocol.EvAbort
	if committed {
		ev = protocol.EvComplete
	}
	act, err := ctx.machine.Transition(ev)
	if err != nil {
		return
	}
	if ctx.readyAt > 0 {
		s.c.phaseWait.Observe((s.c.clk.Now() - ctx.readyAt).Seconds())
		if s.spansOn() {
			resolution := "abort"
			if committed {
				resolution = "commit"
			}
			s.recordSpan(trace.Span{Kind: spanPartWait, TID: string(tid),
				Parent: ctx.spanParent, Start: ctx.readyAt, End: s.c.clk.Now(),
				Attrs: map[string]string{"resolution": resolution}})
		}
	}
	if act == protocol.ActInstall {
		_ = s.install(ctx.writes)
	}
	_ = s.store.ClearPrepared(tid)
	_ = s.store.SetOutcome(tid, committed)
	_ = s.store.SettleVersions(tid, committed)
	s.cancel(ctx.waitTimer)
	s.releaseLocks(tid)
	delete(s.parts, tid)
	// The outcome may also reduce older polyvalues we hold.  (The
	// acknowledgement that lets the coordinator forget the record is sent
	// by the message handler — every complete/abort is acked after
	// processing, whatever state the participant was in.)
	s.reduceDependents(tid, committed)
}

// ackOutcome acknowledges a processed complete/abort so the coordinator
// can garbage-collect the outcome record (§3.3).
func (s *Site) ackOutcome(msg protocol.Message) {
	if msg.From == s.id {
		// Self-delivery: strike ourselves from our own ack set directly.
		s.onOutcomeAck(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: msg.TID, From: s.id})
		return
	}
	s.send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: msg.TID, To: msg.From})
}

// onOutcomeAck collects acknowledgements: it strikes the sender from any
// §3.3 dependency entry (notification delivered), and when the last
// participant acks a transaction this site coordinated, the outcome
// record is scheduled for deletion.
func (s *Site) onOutcomeAck(msg protocol.Message) {
	_ = s.store.RemoveDepSite(msg.TID, string(msg.From))
	if !s.store.HasDeps(msg.TID) {
		if id, ok := s.notifyRetry[msg.TID]; ok {
			s.cancel(id)
			delete(s.notifyRetry, msg.TID)
		}
	}
	waiting, ok := s.acks[msg.TID]
	if !ok {
		return
	}
	delete(waiting, msg.From)
	if len(waiting) > 0 {
		return
	}
	delete(s.acks, msg.TID)
	if id, ok := s.ackRetry[msg.TID]; ok {
		// Everyone has the outcome: stop retransmitting the decision.
		s.cancel(id)
		delete(s.ackRetry, msg.TID)
	}
	tid := msg.TID
	if t, ok := s.decidedAt[tid]; ok {
		s.c.phaseSettle.Observe((s.c.clk.Now() - t).Seconds())
		if root, traced := s.spanOf[tid]; traced {
			s.recordSpan(trace.Span{Kind: spanPhaseSettle, TID: string(tid),
				Parent: root, Start: t, End: s.c.clk.Now()})
			delete(s.spanOf, tid)
		}
		delete(s.decidedAt, tid)
	}
	s.forgetLater(tid)
}

// ---------------------------------------------------------------------
// Outcome propagation and recovery (§3.3)
// ---------------------------------------------------------------------

// armOutcomeRetry keeps asking the coordinator for an outcome until it is
// known locally.
func (s *Site) armOutcomeRetry(tid txn.ID, coordinator protocol.SiteID) {
	s.armOutcomeRetryN(tid, coordinator, 1)
}

// armOutcomeRetryN sends inquiry number attempt and schedules the next
// one under the capped-backoff policy.
func (s *Site) armOutcomeRetryN(tid txn.ID, coordinator protocol.SiteID, attempt int) {
	if committed, known := s.store.Outcome(tid); known {
		s.resolveOutcome(tid, committed)
		return
	}
	if s.paxosPlane() {
		// The decision is replicated: presumed abort is unsound (a
		// takeover may still drive the transaction to COMMIT after the
		// coordinator dies), so in-doubt sites inquire of the acceptor
		// group and eventually take the decision over themselves.
		s.paxosInquire(tid, coordinator, attempt)
		return
	}
	if coordinator == "" || coordinator == s.id {
		// We are the coordinator.  With no live context and no durable
		// decision, the transaction cannot have committed (decisions are
		// logged before any complete is sent): presume abort locally.
		if _, live := s.coords[tid]; live {
			return
		}
		if err := s.store.SetOutcome(tid, false); err != nil {
			return
		}
		s.resolveOutcome(tid, false)
		return
	}
	s.send(protocol.Message{Kind: protocol.MsgOutcomeReq, TID: tid, To: coordinator})
	if attempt > 1 {
		s.c.outcomeRetries.Inc()
	}
	timer := s.after(s.retryBackoff(tid, attempt), func() {
		if _, known := s.store.Outcome(tid); known {
			return
		}
		s.armOutcomeRetryN(tid, coordinator, attempt+1)
	})
	s.retry[tid] = retryState{timer: timer, coordinator: coordinator, attempt: attempt}
}

// armDecisionResend schedules retransmission of a decided outcome to
// every participant that has not acknowledged it yet, paced by the same
// capped-backoff policy as the inquiry loop.  The final ack cancels it
// (onOutcomeAck); until then a dropped complete/abort is repaired from
// the coordinator side instead of waiting out the participants' own
// inquiry timeouts.
func (s *Site) armDecisionResend(tid txn.ID, committed bool, attempt int) {
	waiting, ok := s.acks[tid]
	if !ok || len(waiting) == 0 {
		return
	}
	s.ackRetry[tid] = s.after(s.retryBackoff(tid, attempt), func() {
		delete(s.ackRetry, tid)
		waiting, ok := s.acks[tid]
		if !ok || len(waiting) == 0 {
			return
		}
		kind := protocol.MsgAbort
		if committed {
			kind = protocol.MsgComplete
		}
		for _, site := range sortedKeys(waiting) {
			s.send(protocol.Message{Kind: kind, TID: tid, To: site, Committed: committed})
			s.c.decisionResends.Inc()
		}
		s.armDecisionResend(tid, committed, attempt+1)
	})
}

// retryBackoff returns the delay before retry number attempt (1-based):
// exponential backoff from RetryInterval, capped at 8×RetryInterval,
// with ±50% jitter, mirroring the TCP
// reconnect policy.  The jitter is a hash of (site, tid, attempt)
// rather than a PRNG draw, so simulated runs stay deterministic.
func (s *Site) retryBackoff(tid txn.ID, attempt int) vclock.Time {
	d := s.c.cfg.RetryInterval
	limit := 8 * d
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	h := fnv.New64a()
	h.Write([]byte(s.id))
	h.Write([]byte(tid))
	h.Write([]byte{byte(attempt), byte(attempt >> 8)})
	jitter := 0.5 + float64(h.Sum64()%1024)/1024
	return vclock.Time(float64(d) * jitter)
}

// onOutcomeReq answers from the durable outcome log; an unknown
// transaction with no live coordinator context is presumed aborted (the
// decision to commit is always logged before any complete is sent, so an
// unlogged transaction cannot have committed).
func (s *Site) onOutcomeReq(msg protocol.Message) {
	if committed, known := s.store.Outcome(msg.TID); known {
		s.send(protocol.Message{Kind: protocol.MsgOutcomeInfo, TID: msg.TID, To: msg.From, Committed: committed})
		return
	}
	if _, live := s.coords[msg.TID]; live {
		return // still deciding; the requester will retry
	}
	if s.paxosPlane() {
		// Never presume abort: the authority is the acceptor group.  An
		// acceptor holding undecided instance state answers by driving
		// the decision to consensus itself (the eventual outcome reaches
		// the requester through its inquiry loop or its own takeover).
		if _, leading := s.plead[msg.TID]; leading {
			return
		}
		if e, ok := s.store.PaxosState(msg.TID); ok {
			seed := siteIDs(e.Participants)
			if len(seed) == 0 {
				seed = []protocol.SiteID{msg.From}
			}
			pl := &paxosLead{seed: seed}
			s.plead[msg.TID] = pl
			s.paxosTakeover(msg.TID, pl)
		}
		return
	}
	if err := s.store.SetOutcome(msg.TID, false); err != nil {
		return
	}
	s.send(protocol.Message{Kind: protocol.MsgOutcomeInfo, TID: msg.TID, To: msg.From, Committed: false})
}

// noteConflict counts an outcome report that contradicts the outcome on
// record: this site was told both outcomes of one transaction, an
// atomicity break that check 8 of CheckInvariants reports.  The series
// is registered on first use, so runs without a conflict export nothing
// new.
func (s *Site) noteConflict() {
	s.c.reg.Counter("txn.outcome.conflicts", metrics.L("site", string(s.id))).Inc()
}

// resolveOutcome records a learned outcome, wakes a participant camping
// on its locks, reduces dependent polyvalues, and propagates the news to
// listed sites (§3.3).
func (s *Site) resolveOutcome(tid txn.ID, committed bool) {
	if prev, known := s.store.Outcome(tid); known && prev != committed {
		s.noteConflict()
		return
	}
	_ = s.store.SetOutcome(tid, committed)
	_ = s.store.SettleVersions(tid, committed)
	if s.paxosPlane() {
		// A decided transaction's acceptor state is dead weight however
		// the outcome arrived (announce, complete/abort, inquiry).
		if _, ok := s.store.PaxosState(tid); ok {
			_ = s.store.ClearPaxos(tid)
		}
		if pl, ok := s.plead[tid]; ok {
			s.cancel(pl.timer)
			delete(s.plead, tid)
		}
	}

	// A blocking-policy participant wakes up here.
	if ctx, ok := s.parts[tid]; ok && ctx.blocked {
		ctx.blocked = false
		if s.spansOn() && ctx.blockedAt > 0 {
			outcome := "abort"
			if committed {
				outcome = "commit"
			}
			s.recordSpan(trace.Span{Kind: spanPartBlocked, TID: string(tid),
				Parent: ctx.spanParent, Start: ctx.blockedAt, End: s.c.clk.Now(),
				Attrs: map[string]string{"cause": ctx.blockCause, "outcome": outcome}})
		}
		s.onOutcomeMsg(tid, committed)
		return
	}
	s.reduceDependents(tid, committed)
}

// reduceDependents applies a known outcome to every dependent local
// polyvalue, informs every site we sent dependent polyvalues to, and
// strikes the items from the dependency entry: what is left of it waits
// for those sites' acknowledgements.
func (s *Site) reduceDependents(tid txn.ID, committed bool) {
	rs, hadRetry := s.retry[tid]
	if hadRetry {
		s.cancel(rs.timer)
		delete(s.retry, tid)
		// We were in doubt and have now settled: acknowledge so the
		// coordinator can forget the outcome record.
		s.send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: tid, To: rs.coordinator})
	}
	if coord, ok := s.store.Await(tid); ok {
		_ = s.store.ClearAwait(tid)
		// A crash-recovered in-doubt site may have no retry entry; ack
		// from the durable record instead.
		if !hadRetry {
			s.send(protocol.Message{Kind: protocol.MsgOutcomeAck, TID: tid, To: protocol.SiteID(coord)})
		}
	}
	items, sites := s.store.Deps(tid)
	var reducedItems []string
	for _, item := range items {
		p := s.store.Get(item)
		if !p.Mentions(tid) {
			continue // overwritten since
		}
		reduced := p.Resolve(tid, committed)
		if err := s.write(item, reduced); err != nil {
			continue
		}
		s.c.polyReductions.Inc()
		reducedItems = append(reducedItems, item)
	}
	if s.spansOn() && len(reducedItems) > 0 {
		outcome := "abort"
		if committed {
			outcome = "commit"
		}
		s.pointSpan(spanPolyReduce, tid, 0,
			map[string]string{"items": joinItems(reducedItems), "outcome": outcome})
	}
	for _, site := range sites {
		s.send(protocol.Message{
			Kind: protocol.MsgOutcomeInfo, TID: tid,
			To: protocol.SiteID(site), Committed: committed,
		})
	}
	if len(items) > 0 {
		// The items are reduced; the entry lives on only while it lists
		// a site still to acknowledge.
		_ = s.store.ClearDeps(tid)
		for _, site := range sites {
			_ = s.store.AddDepSite(tid, site)
		}
	}
	if len(sites) > 0 {
		// Keep the entry until every listed site acknowledges; resend
		// periodically (targets may be down right now).
		if id, ok := s.notifyRetry[tid]; ok {
			s.cancel(id)
		}
		s.notifyRetry[tid] = s.after(s.c.cfg.RetryInterval, func() {
			delete(s.notifyRetry, tid)
			if s.store.HasDeps(tid) {
				s.reduceDependents(tid, committed)
			}
		})
	}
	// Participant-side outcome GC: once dependencies are cleared and we
	// are not coordinating this transaction's ack collection, the record
	// is only needed for duplicate suppression — forget it after the TTL.
	if _, coordinating := s.acks[tid]; !coordinating {
		s.forgetLater(tid)
	}
	// Reductions free budget: a degraded site returns to polyvalue mode
	// here once the population and dependency table shrink below cap.
	s.updateBudget()
}

// forgetLater queues tid's outcome record for deletion OutcomeTTL from
// now (§3.3); a negative OutcomeTTL keeps records forever.  One TTL and a
// monotone clock make append order expiry order, so the queue needs one
// timer, not one per record.
func (s *Site) forgetLater(tid txn.ID) {
	ttl := s.c.cfg.OutcomeTTL
	if ttl < 0 {
		return
	}
	s.expiries = append(s.expiries, expiry{tid: tid, at: s.c.clk.Now() + ttl})
	if s.expTimer == nil {
		s.armSweep()
	}
}

// armSweep re-arms the sweep timer for the queue's head, or leaves it
// disarmed when the queue is empty.  Sweeps are at least OutcomeTTL/16
// apart whatever the load, so a record lives between TTL and 17/16 TTL:
// keeping one longer only answers a late duplicate or inquiry from it.
func (s *Site) armSweep() {
	s.cancel(s.expTimer) // a sweep that raced crash must not fork a second chain
	s.expTimer = nil
	if s.expHead == len(s.expiries) {
		return
	}
	d := max(s.expiries[s.expHead].at-s.c.clk.Now(), s.c.cfg.OutcomeTTL/16)
	s.expTimer = s.after(d, s.sweepOutcomes)
}

// sweepOutcomes forgets every due outcome record unless the coordinator
// still awaits acks for it or §3.3 notifications for it are unacknowledged
// — the final ack, or the notification resend, queues it again.  It costs
// O(due entries): the slice is compacted only once the head passes its
// middle.
func (s *Site) sweepOutcomes() {
	now := s.c.clk.Now()
	for ; s.expHead < len(s.expiries) && s.expiries[s.expHead].at <= now; s.expHead++ {
		tid := s.expiries[s.expHead].tid
		if _, coordinating := s.acks[tid]; coordinating || s.store.HasDeps(tid) {
			continue
		}
		s.store.ForgetOutcome(tid)
	}
	if s.expHead > len(s.expiries)/2 {
		s.expiries, s.expHead = slices.Delete(s.expiries, 0, s.expHead), 0
	}
	s.armSweep()
}

// ---------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------

// crash loses all volatile state; the store survives.
func (s *Site) crash() {
	if !s.down {
		s.downAt = s.c.clk.Now()
	}
	s.setDown(true)
	for _, tid := range sortedKeys(s.parts) {
		ctx := s.parts[tid]
		s.cancel(ctx.waitTimer)
		// Close the blocking accountant's open intervals under the cause
		// each participant was holding for; the locks themselves are
		// volatile and die with the site.
		cause := causeLock
		if ctx.blockCause != "" {
			cause = ctx.blockCause
		}
		var owned []string
		for _, item := range s.lockedBy[tid] {
			if s.locks[item] == tid {
				owned = append(owned, item)
			}
		}
		s.flushBlocked(owned, cause, false)
	}
	// Anything still stamped (e.g. a mid-flight one-phase hold) closes as
	// an ordinary lock interval.
	if len(s.lockAt) > 0 {
		s.flushBlocked(sortedKeys(s.lockAt), causeLock, false)
	}
	for _, ctx := range s.coords {
		s.cancel(ctx.readTimer)
		s.cancel(ctx.readyTimer)
		s.cancel(ctx.deadlineTimer)
		if ctx.isQuery {
			s.completeQuery(ctx.qh, polyvalue.Poly{}, errSiteDown)
		} else {
			// The handle stays pending forever (the client's view of a
			// crashed coordinator), but its admission credit must not: a
			// site that kept crashing would otherwise leak its way to a
			// permanently closed gate.
			ctx.handle.releaseAdmission()
		}
	}
	for _, rs := range s.retry {
		s.cancel(rs.timer)
	}
	for _, pl := range s.plead {
		s.cancel(pl.timer)
	}
	for _, id := range s.pwatch {
		s.cancel(id)
	}
	for _, id := range s.ackRetry {
		s.cancel(id)
	}
	for _, id := range s.notifyRetry {
		s.cancel(id)
	}
	s.cancel(s.aeTimer)
	s.cancel(s.expTimer)
	s.locks = map[string]txn.ID{}
	s.lockedBy = map[txn.ID][]string{}
	s.parts = map[txn.ID]*partCtx{}
	s.coords = map[txn.ID]*coordCtx{}
	s.retry = map[txn.ID]retryState{}
	s.plead = map[txn.ID]*paxosLead{}
	s.pwatch = map[txn.ID]timerID{}
	s.ackRetry = map[txn.ID]timerID{}
	s.notifyRetry = map[txn.ID]timerID{}
	s.acks = map[txn.ID]map[protocol.SiteID]bool{}
	s.decidedAt = map[txn.ID]vclock.Time{}
	s.lockAt = map[string]vclock.Time{}
	s.spanOf = map[txn.ID]trace.SpanID{}
}

// durabilityPanic is the fsyncgate discipline's teeth: a write or fsync
// against the site's WAL failed, so the page cache may have silently
// dropped records the protocol was about to ack as durable.  The only
// safe move is to crash this incarnation immediately — before any
// Prepared/Committed leaves the site — and mark it unrestartable until
// the node is rebuilt from the on-disk bytes (which hold a prefix of
// what memory believed).  tid may be zero-valued when the failure is
// not tied to one transaction (e.g. a group-commit flush).
func (s *Site) durabilityPanic(tid txn.ID, err error) {
	if s.durLost {
		return
	}
	s.durLost = true
	s.durPanics.Inc()
	if !s.down {
		s.crash()
	}
}

// restart recovers from the durable store: each prepared-but-unresolved
// transaction resumes in its wait phase and the live wait-timeout rule
// settles it at once (polyvalues, a camp on its locks, or a guess, as a
// live site would).
func (s *Site) restart() {
	if !s.down {
		return
	}
	if s.durLost {
		// The in-memory store may have run ahead of the disk when the
		// log died; restarting it would resurrect unsynced state.  Only
		// a node rebuild (re-reading the on-disk bytes) recovers.
		return
	}
	s.setDown(false)
	// Every item gets a stamp no earlier incarnation issued, so no read
	// served before the crash validates after it.
	s.stamps, s.boot = map[string]uint64{}, s.c.stamps.Add(1)
	// The outcome-GC queue keeps the rule of a timer per record: an entry
	// that fell due while the site was down is dropped, so its record is
	// kept; entries due before the crash or after now stay queued.
	now := s.c.clk.Now()
	live := slices.DeleteFunc(s.expiries[s.expHead:], func(e expiry) bool {
		return s.downAt <= e.at && e.at <= now
	})
	s.expiries = s.expiries[:s.expHead+len(live)]
	s.armSweep()
	s.recoverDurableState()
	if s.c.cfg.Replication != nil && len(s.c.cfg.Sites) > 1 {
		s.armGossip()
	}
}

// recoverDurableState resumes whatever the durable store says was in
// flight: each prepared entry becomes a participant waiting in doubt,
// which onWaitTimeout settles at once; known outcomes reduce dependents,
// and await entries resume their outcome-request loops.  Called on site
// restart and, for file-backed clusters, at process start.
func (s *Site) recoverDurableState() {
	// The awaits the crash left: a resumed transaction that times out
	// into polyvalues below arms its own outcome inquiry.
	awaits := s.store.Awaits()
	for _, prep := range s.store.PreparedTxns() {
		s.resume(prep)
		if s.spansOn() {
			s.pointSpan(spanRecover, prep.TID, 0,
				map[string]string{"items": joinItems(sortedKeys(prep.Writes))})
		}
		s.onWaitTimeout(prep.TID)
	}
	// Dependency entries that predate the crash and whose outcome is
	// known are reduced now.
	s.reduceKnownDeps()
	// Resume the outcome-request loop for every transaction we installed
	// polyvalues for and still lack an outcome on (the durable await
	// table survives any number of crashes).
	for _, tid := range sortedKeys(awaits) {
		if committed, known := s.store.Outcome(tid); known {
			s.resolveOutcome(tid, committed)
			continue
		}
		s.armOutcomeRetry(tid, protocol.SiteID(awaits[tid]))
	}
	if s.paxosPlane() {
		s.paxosRecover()
	}
	s.updateBudget()
}

// resume rebuilds a prepared transaction's participant as the crash left
// it: in the wait phase, holding its write locks, with no lock timestamp
// (the accountant's interval closed with the crash).  The machine walks
// through prepare and computed before it is instrumented, because the
// earlier incarnation counted those transitions.
func (s *Site) resume(prep storage.Prepared) {
	coord := protocol.SiteID(prep.Coordinator)
	ctx := &partCtx{
		tid: prep.TID, coordinator: coord,
		machine: protocol.NewParticipant(prep.TID, coord),
		writes:  prep.Writes, previous: prep.Previous,
		locked: sortedKeys(prep.Writes),
	}
	_, _ = ctx.machine.Transition(protocol.EvPrepare)
	_, _ = ctx.machine.Transition(protocol.EvComputed)
	ctx.machine.Instrument(s.c.reg)
	for _, item := range ctx.locked {
		s.locks[item] = prep.TID
	}
	s.lockedBy[prep.TID] = slices.Clone(ctx.locked)
	s.parts[prep.TID] = ctx
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

// put installs an item: it writes it and gives it a fresh change stamp.
// Every install goes through here; a reduction, which is not a write,
// goes through write and keeps the stamp.
func (s *Site) put(item string, p polyvalue.Poly) error {
	if err := s.write(item, p); err != nil {
		return err
	}
	s.stamps[item] = s.c.stamps.Add(1)
	return nil
}

// stampOf returns item's change stamp.
func (s *Site) stampOf(item string) uint64 {
	if st, ok := s.stamps[item]; ok {
		return st
	}
	return s.boot
}

// stale reports whether any of the given item stamps is no longer
// current.
func (s *Site) stale(stamps map[string]uint64) bool {
	for item, st := range stamps {
		if s.stampOf(item) != st {
			return true
		}
	}
	return false
}

// write writes an item through the polyvalue-lifecycle tracker: certainty
// transitions update the population gauge and lifetime histogram.  All
// site-goroutine item writes go through here; Store.Put is only called
// directly where no cluster is attached (package storage's own users).
func (s *Site) write(item string, p polyvalue.Poly) error {
	before := s.store.Get(item)
	if err := s.store.Put(item, p); err != nil {
		return err
	}
	if s.glog != nil {
		s.itemSeq[item] = s.glog.Seq()
	}
	s.c.trackPut(s.id, item, before, p)
	return nil
}

// part finds or creates the participant context.
func (s *Site) part(tid txn.ID, coordinator protocol.SiteID) *partCtx {
	if ctx, ok := s.parts[tid]; ok {
		return ctx
	}
	ctx := &partCtx{
		tid: tid, coordinator: coordinator,
		machine: protocol.NewParticipant(tid, coordinator),
	}
	ctx.machine.Instrument(s.c.reg)
	s.parts[tid] = ctx
	return ctx
}

// lockAll acquires every item or none.
func (s *Site) lockAll(tid txn.ID, items []string) bool {
	for _, item := range items {
		if holder, held := s.locks[item]; held && holder != tid {
			return false
		}
	}
	for _, item := range items {
		s.locks[item] = tid
	}
	if len(items) > 0 {
		s.lockedBy[tid] = append(s.lockedBy[tid], items...)
		s.stampLocks(items)
	}
	return true
}

// releaseLocks frees every lock held by tid, closing the blocking
// accountant's intervals (attributed to the participant's blocking
// cause when it camped in doubt, plain cause=lock otherwise) and
// recording the transaction's lock-hold span.
func (s *Site) releaseLocks(tid txn.ID) {
	held := s.lockedBy[tid]
	owned := held[:0:0]
	for _, item := range held {
		if s.locks[item] == tid {
			owned = append(owned, item)
		}
	}
	cause := causeLock
	var parent trace.SpanID
	if ctx, ok := s.parts[tid]; ok {
		if ctx.blockCause != "" {
			cause = ctx.blockCause
		}
		parent = ctx.spanParent
	}
	if s.spansOn() && len(owned) > 0 {
		now := s.c.clk.Now()
		start := now
		for _, item := range owned {
			if at, ok := s.lockAt[item]; ok && at < start {
				start = at
			}
		}
		s.recordSpan(trace.Span{Kind: spanLocks, TID: string(tid),
			Parent: parent, Start: start, End: now,
			Attrs: map[string]string{"items": joinItems(owned)}})
	}
	s.flushBlocked(owned, cause, false)
	for _, item := range owned {
		delete(s.locks, item)
	}
	delete(s.lockedBy, tid)
}

func copyValues(m map[string]polyvalue.Poly) map[string]polyvalue.Poly {
	out := make(map[string]polyvalue.Poly, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// arbitraryChoice is the §2.3 baseline's local coin flip, made
// deterministic per (site, transaction) so runs are reproducible.
func arbitraryChoice(site protocol.SiteID, tid txn.ID) bool {
	h := fnv.New32a()
	h.Write([]byte(site))
	h.Write([]byte(tid))
	// FNV's low bit is a pure parity chain of the input's low bits, which
	// correlates across nearby site names; a middle bit is well mixed.
	return (h.Sum32()>>16)&1 == 1
}

// sortedKeys returns a map's keys in sorted order, so whatever is done
// per key (sends, and the RNG draws behind their delays; WAL writes)
// happens in the same order every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
