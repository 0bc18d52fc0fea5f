package cluster

// Paxos Commit decision plane (Config.DecisionPlane == PlanePaxos).
//
// In the default wal plane the commit/abort decision lives in exactly
// one place — the coordinator's WAL — and a crashed coordinator leaves
// participants in doubt until it returns.  This file replicates the
// decision across 2F+1 acceptor sites instead (Gray & Lamport,
// "Consensus on Transaction Commit"): one Paxos instance per
// participant-vote, commit iff every instance chooses Prepared.
//
// Fast path (ballot 0): sendPrepares registers the participant set at
// the acceptors (MsgPaxosBegin); each participant sends its vote
// straight to the acceptors alongside its ready/refuse (MsgPaxosAccept
// at ballot 0); acceptors durably accept and report to the coordinator
// (MsgPaxosAccepted); the coordinator finalizes once every instance has
// a quorum.  One extra message delay over plain 2PC, no extra forced
// writes on the coordinator's critical path.
//
// Takeover: any site that must learn the outcome without the
// coordinator — an in-doubt participant whose inquiries go unanswered
// (or whose failure detector suspects the coordinator), a coordinator
// whose fast path stalls, a recovered acceptor-coordinator — runs
// classic Paxos phase 1/2 at a ballot from its own site-partitioned
// series.  Phase 1 reveals anything ballot 0 achieved; revealed votes
// are re-proposed, free instances are proposed Aborted.  Safety rules
// pinned by internal/consensus: abort announceable on one chosen
// Aborted; commit only with the registrar's full set chosen Prepared;
// a leader never invents a Prepared vote.
//
// The refuse shortcut: a coordinator that aborts because a participant
// REFUSED may announce without consensus — the refuser's own ballot-0
// Aborted vote is the only ballot-0 value its instance will ever have,
// and takeover leaders only re-propose revealed votes, so commit is
// unchoosable forever.  Timeout- and deadline-aborts get no such
// shortcut: a Prepared vote may be sitting at the acceptors, and a
// takeover leader could legitimately drive the transaction to COMMIT —
// so the coordinator runs its own takeover and obeys what consensus
// chooses.

import (
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/txn"
)

// paxosTakeoverAttempt is the outcome-inquiry attempt at which an
// in-doubt participant stops waiting for the coordinator and starts a
// takeover (earlier when the failure detector already suspects it).
const paxosTakeoverAttempt = 3

// paxosLead is one transaction's live leader state on this site: the
// pure consensus.Leader plus the escalation timer that replaces it with
// a higher-ballot takeover when it stalls.
type paxosLead struct {
	ld *consensus.Leader
	// attempt counts takeover rounds, driving the escalation backoff
	// (0 while the ballot-0 fast path is still trusted).
	attempt int
	timer   timerID
	// reason is the coordinator's intended abort reason, kept for the
	// finalize call once consensus settles.
	reason string
	// seed lists the instances a fresh takeover asserts (the full
	// participant set on the coordinator, self on a participant).
	seed []protocol.SiteID
	// span parents takeover/decision spans into the transaction's trace
	// (zero when tracing is off or the root is unknown).
	span trace.SpanID
}

func (s *Site) paxosPlane() bool { return s.c.cfg.DecisionPlane == PlanePaxos }

// paxosAcceptors returns the acceptor group — a pure function of the
// membership, so every site computes the same set.
func (s *Site) paxosAcceptors() []protocol.SiteID {
	return consensus.Acceptors(s.c.order, 0)
}

func (s *Site) paxosQuorum() int { return consensus.Quorum(len(s.paxosAcceptors())) }

// siteIndex returns this site's position in the membership list, the
// basis of its private ballot series.
func (s *Site) siteIndex() int {
	for i, id := range s.c.order {
		if id == s.id {
			return i
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

// paxosBegin opens the decision: the registrar goes to every acceptor
// and the ballot-0 collector starts tallying the 2b replies the
// participants' votes will generate.  Called from sendPrepares.
func (s *Site) paxosBegin(ctx *coordCtx) {
	acc := s.paxosAcceptors()
	for _, a := range acc {
		s.send(protocol.Message{
			Kind: protocol.MsgPaxosBegin, TID: ctx.tid, To: a,
			Coordinator: s.id, Participants: ctx.participants,
			TraceCtx: s.traceCtx(ctx),
		})
	}
	s.plead[ctx.tid] = &paxosLead{
		ld:   consensus.NewBallot0(ctx.tid, s.id, acc, ctx.participants),
		seed: ctx.participants,
		span: ctx.span,
	}
}

// paxosDecide routes a coordinator decision through consensus instead
// of announcing it directly.  Only refuse-aborts may finalize
// immediately (see the file comment); everything else waits for
// chosen-ness, with takeover escalation as the liveness engine.
func (s *Site) paxosDecide(ctx *coordCtx, committed bool, reason string) {
	pl, ok := s.plead[ctx.tid]
	if !ok {
		// No leader state (lost in a crash-restart with the context
		// somehow alive) — should not happen, but never block the
		// client on a missing map entry.
		s.finalizeDecision(ctx, committed, reason)
		return
	}
	if ctx.paxosPending {
		return // already driving a decision to consensus
	}
	if !committed && strings.HasPrefix(reason, "refused") {
		s.finalizeDecision(ctx, false, reason)
		return
	}
	pl.reason = reason
	ctx.paxosPending = true
	if c, done := pl.ld.Decided(); done {
		s.paxosFinalizeCoord(ctx, pl, c)
		return
	}
	if committed {
		// The participants' votes are en route to the acceptors; wait
		// for the tallies, with takeover as the stall repair.
		s.armPaxosEscalation(ctx.tid, pl)
		return
	}
	// Timeout/deadline abort: consensus decides, not presumption.
	s.paxosTakeover(ctx.tid, pl)
}

// paxosFinalizeCoord finalizes a live coordinator context with the
// consensus outcome, reconciling the reason when consensus overruled
// the coordinator's intent (a timeout-abort can end in COMMIT when the
// missing vote turns out to be Prepared at the acceptors).
func (s *Site) paxosFinalizeCoord(ctx *coordCtx, pl *paxosLead, committed bool) {
	reason := pl.reason
	if committed {
		reason = ""
	} else if reason == "" {
		reason = "paxos: aborted by consensus"
	}
	s.finalizeDecision(ctx, committed, reason)
}

// armPaxosEscalation schedules the next takeover round under the same
// capped backoff as outcome inquiries.  pl identity-checks against the
// map so a decision (which deletes the entry) or a crash (which resets
// the map) cancels the chain.
func (s *Site) armPaxosEscalation(tid txn.ID, pl *paxosLead) {
	pl.timer = s.after(s.retryBackoff(tid, pl.attempt+1), func() {
		cur, ok := s.plead[tid]
		if !ok || cur != pl {
			return
		}
		if _, done := pl.ld.Decided(); done {
			return
		}
		// Retransmit the current ballot's missing messages first; a
		// fresh takeover only when there is nothing left to resend
		// (ballot 0, or a superseded/stalled round).
		if re := pl.ld.Resend(); len(re) > 0 && pl.ld.Superseded() == 0 {
			for _, m := range re {
				m.TID = tid
				s.send(m)
			}
			s.armPaxosEscalation(tid, pl)
			return
		}
		s.paxosTakeover(tid, pl)
	})
}

// paxosTakeover replaces pl's leader with a fresh one at the next
// ballot of this site's series, above anything already seen.
func (s *Site) paxosTakeover(tid txn.ID, pl *paxosLead) {
	s.cancel(pl.timer)
	pl.attempt++
	floor := uint32(0)
	if pl.ld != nil {
		floor = pl.ld.Ballot()
		if sup := pl.ld.Superseded(); sup > floor {
			floor = sup
		}
	}
	ballot := consensus.BallotAbove(floor, s.siteIndex(), len(s.c.order))
	ld, msgs := consensus.NewTakeover(tid, s.id, s.paxosAcceptors(), ballot, pl.seed)
	pl.ld = ld
	s.c.paxosTakeovers.Inc()
	if s.spansOn() {
		s.pointSpan(spanPaxosTakeover, tid, pl.span, map[string]string{
			"ballot": strconv.FormatUint(uint64(ballot), 10),
		})
	}
	for _, m := range msgs {
		s.send(m)
	}
	s.armPaxosEscalation(tid, pl)
}

// ---------------------------------------------------------------------
// Participant side
// ---------------------------------------------------------------------

// paxosVote casts this participant's ballot-0 vote for its own instance
// directly at the acceptors — phase 2a of the fast path, sent together
// with the ready/refuse it mirrors.  msg is the prepare being answered
// (its From is the coordinator the acceptors' 2b replies go to).
func (s *Site) paxosVote(msg protocol.Message, vote protocol.Vote) {
	if !s.paxosPlane() {
		return
	}
	s.c.paxosVotes.Inc()
	for _, a := range s.paxosAcceptors() {
		s.send(protocol.Message{
			Kind: protocol.MsgPaxosAccept, TID: msg.TID, To: a,
			Ballot:      0,
			Coordinator: msg.From,
			PaxosState:  []protocol.PaxosInst{{Instance: s.id, Ballot: 0, Vote: vote}},
			TraceCtx:    msg.TraceCtx,
		})
	}
	if s.spansOn() {
		s.pointSpan(spanPaxosVote, msg.TID, trace.SpanID(msg.TraceCtx),
			map[string]string{"vote": vote.String()})
	}
}

// paxosInquire is the paxos-plane outcome-inquiry loop, replacing the
// wal plane's coordinator-only polling: inquiries alternate between the
// coordinator (it answers from its durable log) and the acceptors (they
// answer once a decision reached them), and after paxosTakeoverAttempt
// silent rounds — or as soon as the failure detector suspects the
// coordinator — the participant takes the decision over itself.  There
// is no presumed abort anywhere on this path; consensus is the only
// authority.
func (s *Site) paxosInquire(tid txn.ID, coordinator protocol.SiteID, attempt int) {
	acc := s.paxosAcceptors()
	target := coordinator
	if coordinator == "" || coordinator == s.id || attempt%2 == 0 {
		target = acc[(attempt/2)%len(acc)]
	}
	if target != s.id {
		s.send(protocol.Message{Kind: protocol.MsgOutcomeReq, TID: tid, To: target})
		if attempt > 1 {
			s.c.outcomeRetries.Inc()
		}
	}
	if _, leading := s.plead[tid]; !leading {
		orphaned := coordinator == "" || coordinator == s.id
		if orphaned || attempt >= paxosTakeoverAttempt || s.peerSuspected(coordinator) {
			pl := &paxosLead{seed: []protocol.SiteID{s.id}}
			s.plead[tid] = pl
			s.paxosTakeover(tid, pl)
		}
	}
	timer := s.after(s.retryBackoff(tid, attempt), func() {
		if _, known := s.store.Outcome(tid); known {
			return
		}
		s.armOutcomeRetryN(tid, coordinator, attempt+1)
	})
	s.retry[tid] = retryState{timer: timer, coordinator: coordinator, attempt: attempt}
}

// peerSuspected consults the transport's failure detector when one is
// layered in (guard.Detector wraps the node transport); without one,
// nobody is suspected and takeover waits out the attempt threshold.
func (s *Site) peerSuspected(id protocol.SiteID) bool {
	if id == "" || id == s.id {
		return false
	}
	d, ok := s.c.fab.(interface{ Suspected(protocol.SiteID) bool })
	return ok && d.Suspected(id)
}

// ---------------------------------------------------------------------
// Acceptor side
// ---------------------------------------------------------------------

// onPaxosBegin durably registers the transaction's participant set and
// coordinator (first write wins; duplicates append nothing).
func (s *Site) onPaxosBegin(msg protocol.Message) {
	if _, known := s.store.Outcome(msg.TID); known {
		return // decided already; registrar is dead weight
	}
	// A log failure is a durability panic inside walWrite.
	crashed, _ := s.walWrite(msg.TID, func() error {
		return s.store.SetPaxosMeta(msg.TID, string(msg.Coordinator), siteStrings(msg.Participants))
	})
	if crashed {
		return
	}
	s.armPaxosWatch(msg.TID)
}

// onPaxosPrepare is phase 1b: promise the ballot (monotonic, durable)
// and reveal the accepted state plus the registrar, or nack with the
// conflicting promise.  A decided transaction short-circuits to the
// decision itself.
func (s *Site) onPaxosPrepare(msg protocol.Message) {
	if committed, known := s.store.Outcome(msg.TID); known {
		s.send(protocol.Message{Kind: protocol.MsgPaxosDecision, TID: msg.TID, To: msg.From, Committed: committed})
		return
	}
	var got uint32
	crashed, _ := s.walWrite(msg.TID, func() error {
		var err error
		got, err = s.store.PaxosPromise(msg.TID, msg.Ballot)
		return err
	})
	if crashed {
		return
	}
	if got > msg.Ballot {
		s.c.paxosRejects.Inc()
		s.send(protocol.Message{Kind: protocol.MsgPaxosReject, TID: msg.TID, To: msg.From, Ballot: got})
		return
	}
	e, _ := s.store.PaxosState(msg.TID)
	s.send(protocol.Message{
		Kind: protocol.MsgPaxosPromise, TID: msg.TID, To: msg.From,
		Ballot:       msg.Ballot,
		Coordinator:  protocol.SiteID(e.Coordinator),
		Participants: siteIDs(e.Participants),
		PaxosState:   acceptedInsts(e),
	})
}

// onPaxosAccept is phase 2a: durably accept the proposed entries unless
// a higher ballot was promised.  Ballot-0 votes are additionally gated
// on the registrar being known — that pins the invariant "revealed
// state implies revealed participant set" takeover leaders rely on for
// commit decisions (the coordinator's escalation repairs the lost
// begin).
func (s *Site) onPaxosAccept(msg protocol.Message) {
	leader := msg.Coordinator
	if leader == "" {
		leader = msg.From
	}
	if committed, known := s.store.Outcome(msg.TID); known {
		s.send(protocol.Message{Kind: protocol.MsgPaxosDecision, TID: msg.TID, To: leader, Committed: committed})
		return
	}
	if len(msg.Participants) > 0 {
		// A takeover proposal that knows the registrar re-registers it
		// for acceptors that missed the begin (first write wins).
		_ = s.store.SetPaxosMeta(msg.TID, string(leader), siteStrings(msg.Participants))
	}
	if msg.Ballot == 0 {
		if e, ok := s.store.PaxosState(msg.TID); !ok || e.Coordinator == "" {
			return
		}
	}
	// Failpoint: the vote arrives and the acceptor dies before its
	// durable accept — the vote is lost here (F-1 more losses are
	// survivable).
	if s.maybeCrash(CrashBeforePaxosAccept, msg.TID) {
		return
	}
	accepted := true
	var conflict uint32
	crashed, _ := s.walWrite(msg.TID, func() error {
		for _, in := range msg.PaxosState {
			ok, c, err := s.store.PaxosAccept(msg.TID, string(in.Instance), msg.Ballot, uint8(in.Vote))
			if err != nil {
				return err
			}
			if !ok {
				accepted, conflict = false, c
				return nil
			}
		}
		return nil
	})
	if crashed {
		return
	}
	if !accepted {
		s.c.paxosRejects.Inc()
		s.send(protocol.Message{Kind: protocol.MsgPaxosReject, TID: msg.TID, To: leader, Ballot: conflict})
		return
	}
	s.c.paxosAccepts.Inc()
	s.armPaxosWatch(msg.TID)
	if s.spansOn() {
		insts := make([]string, 0, len(msg.PaxosState))
		for _, in := range msg.PaxosState {
			insts = append(insts, string(in.Instance))
		}
		s.pointSpan(spanPaxosAccept, msg.TID, trace.SpanID(msg.TraceCtx), map[string]string{
			"ballot":    strconv.FormatUint(uint64(msg.Ballot), 10),
			"instances": joinItems(insts),
		})
	}
	// Failpoint: accept durable, 2b unsent — the leader must hear from
	// a quorum elsewhere, or a takeover re-reads this state in phase 1.
	if s.maybeCrash(CrashAfterPaxosAccept, msg.TID) {
		return
	}
	echo := make([]protocol.PaxosInst, len(msg.PaxosState))
	for i, in := range msg.PaxosState {
		echo[i] = protocol.PaxosInst{Instance: in.Instance, Ballot: msg.Ballot, Vote: in.Vote}
	}
	s.send(protocol.Message{
		Kind: protocol.MsgPaxosAccepted, TID: msg.TID, To: leader,
		Ballot: msg.Ballot, PaxosState: echo,
	})
}

// ---------------------------------------------------------------------
// Leader replies and the decision
// ---------------------------------------------------------------------

func (s *Site) onPaxosPromise(msg protocol.Message) {
	pl, ok := s.plead[msg.TID]
	if !ok {
		return
	}
	for _, m := range pl.ld.OnPromise(msg.From, msg) {
		s.send(m)
	}
}

func (s *Site) onPaxosAccepted(msg protocol.Message) {
	pl, ok := s.plead[msg.TID]
	if !ok {
		return
	}
	if pl.ld.OnAccepted(msg.From, msg) {
		s.paxosDecided(msg.TID, pl)
	}
}

func (s *Site) onPaxosReject(msg protocol.Message) {
	pl, ok := s.plead[msg.TID]
	if !ok {
		return
	}
	pl.ld.OnReject(msg.Ballot)
}

// paxosDecided runs when this site's leader saw the decision quorum:
// finalize the live coordinator context if there is one, otherwise (a
// participant takeover, or a recovered coordinator with no client
// handle left) log the outcome, settle local state, and teach the
// acceptors and the original coordinator.
func (s *Site) paxosDecided(tid txn.ID, pl *paxosLead) {
	committed, _ := pl.ld.Decided()
	s.cancel(pl.timer)
	delete(s.plead, tid)
	s.c.paxosDecisions.Inc()
	if ctx, ok := s.coords[tid]; ok {
		s.paxosFinalizeCoord(ctx, pl, committed)
		return
	}
	crashed, _ := s.walWrite(tid, func() error {
		return s.store.SetOutcome(tid, committed)
	})
	if crashed {
		return
	}
	s.paxosAnnounce(tid, committed)
	if coord := pl.ld.Coordinator(); coord != "" && coord != s.id {
		s.send(protocol.Message{Kind: protocol.MsgPaxosDecision, TID: tid, To: coord, Committed: committed})
	}
	s.resolveOutcome(tid, committed)
}

// armPaxosWatch guards an acceptor holding undecided instance state
// against a lost announce: if nobody teaches it the outcome, it
// eventually drives the decision to consensus itself.  Paxos safety
// makes the re-derived outcome identical to any earlier one, and
// already-decided peers short-circuit phase 1 with the decision, so a
// late watchdog round converges in one message exchange.  The delay
// starts beyond every primary repair path's backoff — the watchdog is
// the GC of last resort, not a competing leader.
func (s *Site) armPaxosWatch(tid txn.ID) {
	if _, ok := s.pwatch[tid]; ok {
		return
	}
	s.pwatch[tid] = s.after(s.retryBackoff(tid, paxosTakeoverAttempt+2), func() {
		delete(s.pwatch, tid)
		e, ok := s.store.PaxosState(tid)
		if !ok {
			return // announced and cleared; nothing left to watch
		}
		if _, known := s.store.Outcome(tid); known {
			_ = s.store.ClearPaxos(tid)
			return
		}
		if _, live := s.coords[tid]; live {
			s.armPaxosWatch(tid) // the live coordinator is still driving
			return
		}
		if _, leading := s.plead[tid]; leading {
			s.armPaxosWatch(tid) // a takeover of ours is already underway
			return
		}
		seed := siteIDs(e.Participants)
		if len(seed) == 0 {
			// No registrar revealed here: seed from the accepted instances
			// themselves — every accepted instance names a genuine
			// participant, so proposing for (only) them is safe.
			for _, in := range acceptedInsts(e) {
				seed = append(seed, in.Instance)
			}
		}
		if len(seed) == 0 {
			// A bare promise with neither registrar nor accepted state:
			// some leader's phase 1 touched us and died before phase 2.
			// Whoever is in doubt drives its own takeover; just keep
			// watching until the decision (or the GC) reaches us.
			s.armPaxosWatch(tid)
			return
		}
		pl := &paxosLead{seed: seed}
		s.plead[tid] = pl
		s.paxosTakeover(tid, pl)
	})
}

// paxosAnnounce is the learn phase: tell every acceptor the outcome so
// it can answer inquiries from its durable log and garbage-collect its
// instance state.  Lost decisions are repaired by the next takeover
// (same outcome, by Paxos safety) or by the acceptors' own watchdogs,
// so no ack tracking is needed.
func (s *Site) paxosAnnounce(tid txn.ID, committed bool) {
	for _, a := range s.paxosAcceptors() {
		if a == s.id {
			_ = s.store.ClearPaxos(tid)
			continue
		}
		s.send(protocol.Message{Kind: protocol.MsgPaxosDecision, TID: tid, To: a, Committed: committed})
	}
}

// onPaxosDecision learns a decision someone else finalized: record it,
// settle any local in-doubt state, drop acceptor state, and stand down
// any leader of our own.
func (s *Site) onPaxosDecision(msg protocol.Message) {
	if prev, known := s.store.Outcome(msg.TID); known && prev != msg.Committed {
		s.noteConflict()
		return
	}
	if pl, ok := s.plead[msg.TID]; ok {
		s.cancel(pl.timer)
		delete(s.plead, msg.TID)
	}
	if ctx, ok := s.coords[msg.TID]; ok {
		// A takeover beat the live coordinator to the decision.
		reason := ""
		if !msg.Committed {
			reason = "paxos: decided by takeover"
		}
		s.finalizeDecision(ctx, msg.Committed, reason)
		_ = s.store.ClearPaxos(msg.TID)
		return
	}
	s.resolveOutcome(msg.TID, msg.Committed)
	_ = s.store.ClearPaxos(msg.TID)
}

// paxosRecover resumes the decision plane after a crash: decided
// transactions shed their dead acceptor state, and a transaction this
// site coordinated (per the durable registrar) with no outcome resumes
// convergence through a takeover — in-doubt participants drive their
// own takeovers via paxosInquire, so this is the coordinator's half.
func (s *Site) paxosRecover() {
	for _, tid := range s.store.PaxosTxns() {
		if _, known := s.store.Outcome(tid); known {
			_ = s.store.ClearPaxos(tid)
			continue
		}
		e, ok := s.store.PaxosState(tid)
		if !ok || e.Coordinator != string(s.id) {
			// Passive acceptor state: leaders elsewhere drive it, but the
			// watchdog guards against every driver being gone.
			if ok {
				s.armPaxosWatch(tid)
			}
			continue
		}
		if _, live := s.coords[tid]; live {
			continue
		}
		if _, leading := s.plead[tid]; leading {
			continue
		}
		seed := siteIDs(e.Participants)
		if len(seed) == 0 {
			continue
		}
		pl := &paxosLead{seed: seed}
		s.plead[tid] = pl
		s.paxosTakeover(tid, pl)
	}
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

func siteStrings(sites []protocol.SiteID) []string {
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = string(s)
	}
	return out
}

func siteIDs(sites []string) []protocol.SiteID {
	out := make([]protocol.SiteID, len(sites))
	for i, s := range sites {
		out[i] = protocol.SiteID(s)
	}
	return out
}

// acceptedInsts flattens a storage entry's accepted votes for the wire,
// sorted by instance for deterministic encodings.
func acceptedInsts(e storage.PaxosEntry) []protocol.PaxosInst {
	insts := sortedKeys(e.Accepted)
	out := make([]protocol.PaxosInst, 0, len(insts))
	for _, inst := range insts {
		a := e.Accepted[inst]
		out = append(out, protocol.PaxosInst{
			Instance: protocol.SiteID(inst), Ballot: a.Ballot, Vote: protocol.Vote(a.Vote),
		})
	}
	return out
}
