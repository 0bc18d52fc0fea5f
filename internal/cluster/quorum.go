package cluster

import (
	"maps"
	"sort"

	"repro/internal/expr"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// Quorum replication (cfg.Replication set): transactions and queries
// are written against LOGICAL item names and the coordinator speaks to
// each item's K physical replicas (<logical>_r<i>, placed on distinct
// sites by replica.Placement).
//
// Read phase: probe all K replicas of every accessed logical; a probe
// locks nothing.  A logical is satisfied once R (read-only) or max(R, W)
// (written) distinct replicas answered; unreachable sites are simply
// never waited for — this is what keeps the majority side of a
// partition serving while write-all would stall.  Each reply carries
// the replica's EFFECTIVE version (max of committed and pending), so
// the winner pick below always sees the newest value a read quorum can
// prove, and two concurrent transactions can never mint the same
// version number.
//
// Prepare phase: per logical, the winner is the reply with the highest
// effective version (ties broken toward the lowest replica index); the
// write set is the first W responding replica indices, stamped with
// version winner+1.  The program is rewritten onto those physical
// names (replica.RewritePlan) and prepared only at the responding
// sites.  Writer respondents lock their probed and written replicas and
// validate the probes' stamps; respondents hosting no write replica are
// prepared once every writer is ready, validate, vote ready-read-only
// and leave early.  Probed sites that never answered hold nothing.
// Replicas outside the write quorum go stale and are converged later by
// the anti-entropy plane (antientropy.go).
type quorumCtx struct {
	// replies[logical][replicaIndex] is the collected probe response.
	replies map[string]map[int]replicaReply
	// needed[logical] is how many distinct replica responses the
	// logical requires before the quorum is satisfied.
	needed map[string]int
	// written marks logicals in the transaction's write set.
	written map[string]bool
	// responded records the sites whose read replies arrived; the
	// participant set is exactly these at prepare time.
	responded map[protocol.SiteID]bool
	// newVer holds each written logical's minted version and program the
	// program rewritten onto physical replicas; prepare fixes both.
	newVer  map[string]uint64
	program string
}

// versions maps each written replica among items to the version its
// commit installs; nil off the quorum path and for a read-only site.
func (q *quorumCtx) versions(items []string) map[string]uint64 {
	if q == nil || len(items) == 0 {
		return nil
	}
	vers := make(map[string]uint64, len(items))
	for _, phys := range items {
		logical, _, _ := replica.Logical(phys)
		vers[phys] = q.newVer[logical]
	}
	return vers
}

// replicaReply is one replica's answer to the read probe.
type replicaReply struct {
	val polyvalue.Poly
	ver uint64
}

// satisfied reports whether every tracked logical reached its quorum.
func (q *quorumCtx) satisfied() bool {
	for logical, need := range q.needed {
		if len(q.replies[logical]) < need {
			return false
		}
	}
	return true
}

// winner returns the freshest reply for a logical: highest effective
// version, ties broken toward the lowest replica index (so every
// coordinator picks the same winner from the same replies).
func (q *quorumCtx) winner(logical string) (val polyvalue.Poly, idx int, ver uint64) {
	first := true
	for i, r := range q.replies[logical] {
		if first || r.ver > ver || (r.ver == ver && i < idx) {
			val, idx, ver = r.val, i, r.ver
			first = false
		}
	}
	return val, idx, ver
}

// sortedLogicals returns the tracked logical names in sorted order.
func (q *quorumCtx) sortedLogicals() []string {
	return sortedKeys(q.needed)
}

// beginQuorumTxn is beginTxn for quorum replication: validate the
// logical names, then probe all K replicas of every accessed item.
func (s *Site) beginQuorumTxn(t txn.T, h *Handle) {
	rep := s.c.cfg.Replication
	ctx := &coordCtx{
		tid: t.ID, t: t, handle: h,
		readWait: map[protocol.SiteID]bool{},
		values:   map[string]polyvalue.Poly{},
		stamps:   map[string]uint64{},
		startAt:  s.c.clk.Now(),
	}
	if d := s.c.cfg.TxnDeadline; d > 0 {
		ctx.deadline = ctx.startAt + vclock.Time(d)
	}
	if s.spansOn() {
		ctx.span = s.c.cfg.Spans.NextID()
	}
	for _, logical := range t.Items() {
		if err := replica.CheckName(logical); err != nil {
			s.c.aborted.Inc()
			s.decideHandle(h, StatusAborted, "replica: "+err.Error())
			s.recordTxnRoot(ctx, StatusAborted, "replica: "+err.Error(), true)
			return
		}
	}
	q := &quorumCtx{
		replies:   map[string]map[int]replicaReply{},
		needed:    map[string]int{},
		written:   map[string]bool{},
		responded: map[protocol.SiteID]bool{},
	}
	ctx.quorum = q
	for _, logical := range t.WriteSet() {
		q.written[logical] = true
	}
	probe := map[protocol.SiteID][]string{}
	for _, logical := range t.Items() {
		need := rep.R
		if q.written[logical] && rep.W > need {
			need = rep.W
		}
		q.needed[logical] = need
		q.replies[logical] = map[int]replicaReply{}
		for i := 0; i < rep.K; i++ {
			phys := replica.Name(logical, i)
			owner := s.c.Placement(phys)
			probe[owner] = append(probe[owner], phys)
		}
	}
	s.coords[t.ID] = ctx
	if ctx.deadline > 0 {
		ctx.deadlineTimer = s.after(s.c.cfg.TxnDeadline, func() { s.onTxnDeadline(t.ID) })
	}
	for _, site := range sortedKeys(probe) {
		items := probe[site]
		sort.Strings(items)
		ctx.readWait[site] = true
		s.send(protocol.Message{
			Kind: protocol.MsgReadReq, TID: t.ID, To: site,
			Items: items, Update: true, Coordinator: s.id,
		})
	}
	ctx.readTimer = s.after(s.c.cfg.ReadyTimeout, func() { s.onReadTimeout(ctx.tid) })
}

// beginQuorumQuery scatters a read-only query to all K replicas of
// every referenced logical and evaluates against the R-quorum winners.
// No locks: a query needs R reachable replicas per item, nothing more —
// reads keep working on the majority side of a partition.
func (s *Site) beginQuorumQuery(qid txn.ID, node expr.Node, qh *QueryHandle, certainBy vclock.Time) {
	rep := s.c.cfg.Replication
	ctx := &coordCtx{
		tid: qid, isQuery: true, qh: qh, qnode: node, qCertainBy: certainBy,
		readWait: map[protocol.SiteID]bool{},
		values:   map[string]polyvalue.Poly{},
	}
	q := &quorumCtx{
		replies:   map[string]map[int]replicaReply{},
		needed:    map[string]int{},
		written:   map[string]bool{},
		responded: map[protocol.SiteID]bool{},
	}
	ctx.quorum = q
	probe := map[protocol.SiteID][]string{}
	for _, logical := range expr.Vars(node) {
		if err := replica.CheckName(logical); err != nil {
			s.completeQuery(qh, polyvalue.Poly{}, err)
			return
		}
		q.needed[logical] = rep.R
		q.replies[logical] = map[int]replicaReply{}
		for i := 0; i < rep.K; i++ {
			phys := replica.Name(logical, i)
			probe[s.c.Placement(phys)] = append(probe[s.c.Placement(phys)], phys)
		}
	}
	s.coords[qid] = ctx
	if len(probe) == 0 {
		s.finishQuery(ctx)
		return
	}
	for _, site := range sortedKeys(probe) {
		items := probe[site]
		sort.Strings(items)
		ctx.readWait[site] = true
		s.send(protocol.Message{
			Kind: protocol.MsgReadReq, TID: qid, To: site,
			Items: items, Coordinator: s.id,
		})
	}
	ctx.readTimer = s.after(s.c.cfg.ReadyTimeout, func() { s.onReadTimeout(qid) })
}

// onQuorumReadRep folds one probe response in and fires the next phase
// once every logical reached its quorum.  Late replies after that are
// dropped by onReadRep's ctx.prepared guard (transactions) or the
// deleted context (queries).
func (s *Site) onQuorumReadRep(ctx *coordCtx, msg protocol.Message) {
	delete(ctx.readWait, msg.From)
	q := ctx.quorum
	q.responded[msg.From] = true
	for phys, p := range msg.Values {
		logical, i, ok := replica.Logical(phys)
		if !ok {
			continue
		}
		if _, tracked := q.needed[logical]; !tracked {
			continue
		}
		q.replies[logical][i] = replicaReply{val: p, ver: msg.Versions[phys]}
	}
	if ctx.stamps != nil { // a transaction's probe, not a query's
		maps.Copy(ctx.stamps, msg.Stamps)
	}
	if !q.satisfied() {
		return
	}
	s.cancel(ctx.readTimer)
	if ctx.isQuery {
		// Evaluate against the freshest value each read quorum saw,
		// keyed back to the logical names the expression references.
		for _, logical := range q.sortedLogicals() {
			val, _, _ := q.winner(logical)
			ctx.values[logical] = val
		}
		s.finishQuery(ctx)
		return
	}
	s.sendQuorumPrepares(ctx)
}

// sendQuorumPrepares rewrites the logical program onto the winning
// physical replicas and prepares the responding sites: the writers
// first, the read-only ones once every writer is ready.
func (s *Site) sendQuorumPrepares(ctx *coordCtx) {
	if s.maybeCrash(CrashBeforePrepare, ctx.tid) {
		return
	}
	if ctx.deadline > 0 && s.c.clk.Now() >= ctx.deadline {
		s.c.deadlineCoord.Inc()
		s.decide(ctx, false, reasonDeadline)
		return
	}
	q := ctx.quorum
	rep := s.c.cfg.Replication
	ctx.prepared = true
	ctx.prepareAt = s.c.clk.Now()
	s.c.phaseRead.Observe((ctx.prepareAt - ctx.startAt).Seconds())
	if s.spansOn() {
		s.recordSpan(trace.Span{Kind: spanPhaseRead, TID: string(ctx.tid),
			Parent: ctx.span, Start: ctx.startAt, End: ctx.prepareAt})
	}

	// Winner pick, write-set selection and version mint, per logical.
	plan := replica.Plan{Reads: map[string]int{}, Writes: map[string][]int{}}
	q.newVer = map[string]uint64{}
	physVals := map[string]polyvalue.Poly{}
	for _, logical := range q.sortedLogicals() {
		val, idx, ver := q.winner(logical)
		plan.Reads[logical] = idx
		physVals[replica.Name(logical, idx)] = val
		if !q.written[logical] {
			continue
		}
		idxs := make([]int, 0, len(q.replies[logical]))
		for i := range q.replies[logical] {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		plan.Writes[logical] = idxs[:rep.W]
		q.newVer[logical] = ver + 1
	}
	rewritten, err := replica.RewritePlan(ctx.t.Program, plan)
	if err != nil {
		s.decide(ctx, false, "replica rewrite: "+err.Error())
		return
	}
	q.program = rewritten.String()
	ctx.values = physVals

	// Only respondents participate in the commit round; probed sites
	// that never answered hold no vote — this is the line that lets
	// W-of-K commit ride out a partition.  Their replies are no longer
	// awaited.
	clear(ctx.readWait)
	ctx.participants = sortedKeys(q.responded)
	ctx.machine = protocol.NewCoordinator(ctx.tid, ctx.participants)
	ctx.machine.Instrument(s.c.reg)
	if s.paxosPlane() {
		s.paxosBegin(ctx)
	}
	ctx.readOnly = map[protocol.SiteID]bool{}
	ctx.writeOwner = map[protocol.SiteID][]string{}
	for logical, idxs := range plan.Writes {
		for _, i := range idxs {
			phys := replica.Name(logical, i)
			owner := s.c.Placement(phys)
			ctx.writeOwner[owner] = append(ctx.writeOwner[owner], phys)
		}
	}
	var writers []protocol.SiteID
	for _, site := range ctx.participants {
		if items, ok := ctx.writeOwner[site]; ok {
			sort.Strings(items)
			writers = append(writers, site)
		} else {
			ctx.later = append(ctx.later, site)
		}
	}
	s.prepare(ctx, writers)
	ctx.readyTimer = s.after(s.c.cfg.ReadyTimeout, func() { s.onReadyTimeout(ctx.tid) })
}
