// Package protocol implements the paper's update protocol (§3.1,
// Figure 1): a two-phase commit in which a participant that times out in
// the wait phase installs polyvalues instead of blocking.
//
// The participant and coordinator are pure state machines: they consume
// events and emit actions, with no transport, storage, or clock of their
// own.  The cluster runtime (goroutine actors over a simulated network)
// and the Figure 1 conformance tests drive the same code.
package protocol

import (
	"fmt"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/txn"
)

// SiteID names a site (a node holding a partition of the database).
type SiteID string

// MsgKind enumerates protocol messages.
type MsgKind uint8

const (
	// MsgReadReq asks a site for the current (possibly poly) values of
	// named items, on behalf of a transaction's compute phase.
	MsgReadReq MsgKind = iota + 1
	// MsgReadRep returns the requested values.
	MsgReadRep
	// MsgPrepare carries the transaction to a participant: program source
	// plus the values of remote read items, so the participant can
	// compute new values for the items it holds.
	MsgPrepare
	// MsgReady reports a participant finished its compute phase
	// ("it then reports that it is ready ... by sending a ready message").
	MsgReady
	// MsgRefuse reports the participant cannot perform the transaction
	// (lock conflict or computation error); the coordinator will abort.
	MsgRefuse
	// MsgComplete instructs participants to install computed results.
	MsgComplete
	// MsgAbort instructs participants to discard computed results.
	MsgAbort
	// MsgOutcomeReq asks the coordinator (or any site that knows) for the
	// outcome of a transaction, during failure recovery (§3.3).
	MsgOutcomeReq
	// MsgOutcomeInfo announces a transaction's outcome so holders of
	// dependent polyvalues can reduce them (§3.3).
	MsgOutcomeInfo
	// MsgOutcomeAck tells the coordinator a participant has fully settled
	// the transaction, so the coordinator can eventually forget the
	// outcome record (§3.3: "any data structures used to keep track of
	// the transaction outcome should be quickly deleted when no longer
	// needed").
	MsgOutcomeAck
	// MsgHeartbeat is a transport-level liveness probe: the failure
	// detector sends one per interval to every peer and treats any
	// inbound traffic as proof of life.  Carries no transaction state;
	// sites ignore it (the detector consumes it below the cluster).
	MsgHeartbeat

	// The MsgPaxos* kinds implement the Paxos Commit decision plane
	// (Gray & Lamport, "Consensus on Transaction Commit"): one Paxos
	// instance per participant-vote, replicated across 2F+1 acceptor
	// sites so the commit/abort decision survives F failures.  They
	// carry the Ballot / Participants / PaxosState fields below.

	// MsgPaxosBegin is the registrar record: the coordinator tells every
	// acceptor the transaction's participant set (the instance set of
	// the decision) and its own identity, so a takeover leader can learn
	// both from any quorum.
	MsgPaxosBegin
	// MsgPaxosPrepare is Paxos phase 1a for every instance of one
	// transaction at once: a would-be leader asks acceptors to promise
	// Ballot and report what they have accepted.
	MsgPaxosPrepare
	// MsgPaxosPromise is phase 1b: the acceptor's promise for Ballot,
	// carrying its accepted (ballot, vote) per instance in PaxosState
	// and the participant set it learned from MsgPaxosBegin.
	MsgPaxosPromise
	// MsgPaxosAccept is phase 2a: a proposal to accept the PaxosState
	// entries at Ballot.  At ballot 0 it is the participant's own vote
	// sent straight to the acceptors (the fast path); at higher ballots
	// it comes from a takeover leader.  Coordinator names the leader the
	// acceptor's 2b reply must go to.
	MsgPaxosAccept
	// MsgPaxosAccepted is phase 2b: the acceptor durably accepted the
	// PaxosState entries at Ballot.
	MsgPaxosAccepted
	// MsgPaxosReject is the nack for phases 1a/2a: the acceptor has
	// promised a higher ballot (carried in Ballot) and the sender must
	// retry above it.
	MsgPaxosReject
	// MsgPaxosDecision is the learn message: the leader that saw a
	// choice quorum tells acceptors the final outcome (Committed), so
	// they can persist it, answer outcome inquiries, and garbage-collect
	// instance state.
	MsgPaxosDecision

	// The MsgAntiEntropy* kinds implement the epidemic outcome/version
	// gossip plane (Bayou-style anti-entropy): sites periodically
	// exchange compact digests of known transaction outcomes and local
	// replica versions with a random peer, so dependency-table knowledge
	// and fresh replica values cross partitions without coordinator
	// involvement.  They carry the Versions / Outcomes fields below.

	// MsgAntiEntropyDigest opens one gossip round: the initiator's
	// recent transaction outcomes (Outcomes) and the effective versions
	// of the replicas it hosts, keyed by LOGICAL item name (Versions —
	// replicas have different physical names on each site, so gossip
	// speaks the logical namespace).
	MsgAntiEntropyDigest
	// MsgAntiEntropyReply answers a digest: outcomes the initiator was
	// missing (Outcomes), fresher replica values the responder holds
	// (Versions + Values, logical names), and the logical items the
	// responder wants newer values for (Items).
	MsgAntiEntropyReply
	// MsgAntiEntropyUpdate closes the round: the initiator ships the
	// newer values the responder asked for (Versions + Values, logical
	// names).
	MsgAntiEntropyUpdate

	// MsgReadRelease is retired: reads take no locks, so there is
	// nothing to release and no site sends it.  The kind keeps its number
	// for code that counts messages by kind.
	MsgReadRelease
)

// Paxos reports whether k is one of the Paxos Commit decision-plane
// kinds.
func (k MsgKind) Paxos() bool {
	return k >= MsgPaxosBegin && k <= MsgPaxosDecision
}

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case MsgReadReq:
		return "read-req"
	case MsgReadRep:
		return "read-rep"
	case MsgPrepare:
		return "prepare"
	case MsgReady:
		return "ready"
	case MsgRefuse:
		return "refuse"
	case MsgComplete:
		return "complete"
	case MsgAbort:
		return "abort"
	case MsgOutcomeReq:
		return "outcome-req"
	case MsgOutcomeInfo:
		return "outcome-info"
	case MsgOutcomeAck:
		return "outcome-ack"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgPaxosBegin:
		return "paxos-begin"
	case MsgPaxosPrepare:
		return "paxos-prepare"
	case MsgPaxosPromise:
		return "paxos-promise"
	case MsgPaxosAccept:
		return "paxos-accept"
	case MsgPaxosAccepted:
		return "paxos-accepted"
	case MsgPaxosReject:
		return "paxos-reject"
	case MsgPaxosDecision:
		return "paxos-decision"
	case MsgAntiEntropyDigest:
		return "anti-entropy-digest"
	case MsgAntiEntropyReply:
		return "anti-entropy-reply"
	case MsgAntiEntropyUpdate:
		return "anti-entropy-update"
	default:
		return fmt.Sprintf("msg(%d)", uint8(k))
	}
}

// Message is one protocol message.  Fields beyond Kind/TID/From/To are
// populated per kind; unused fields are zero.
type Message struct {
	Kind MsgKind
	TID  txn.ID
	From SiteID
	To   SiteID

	// MsgReadReq: items requested.  MsgPrepare: the items this
	// participant holds (its share of the write set).
	Items []string
	// MsgReadReq: whether the read is on behalf of an update transaction
	// (false for §3.4 read-only queries): the reply then carries stamps,
	// and any polyvalue it returns makes the requester a holder (§3.3).
	Update bool
	// MsgReadRep and MsgPrepare: item values (current values for
	// read-rep; remote read values for prepare).
	Values map[string]polyvalue.Poly
	// MsgPrepare: transaction body source text.
	Program string
	// MsgPrepare: the coordinator to whom ready is sent and from whom
	// the outcome can later be requested.
	Coordinator SiteID
	// MsgRefuse: human-readable reason, for tracing.
	Reason string
	// MsgReady: the participant holds only read items, found them current
	// and keeps nothing (the classic read-only 2PC optimization); it needs
	// no complete/abort and must not be waited on for outcome acks.
	ReadOnly bool
	// MsgOutcomeInfo: the outcome.
	Committed bool
	// MsgPrepare: the transaction's remaining time budget as of the
	// send, zero when no deadline is set.  Remaining time
	// rather than an absolute instant, because wall clocks of separate
	// processes share no epoch; the receiver re-anchors it against its
	// own clock.  Expired work is aborted (coordinator) or resolved per
	// policy (participant) instead of camping on locks.
	Deadline time.Duration
	// MsgReadRep to an update and MsgPrepare: item change stamps.  A read
	// reply maps each served item to its stamp, which every install at
	// the site changes; a prepare carries the stamps of the recipient's
	// items that the coordinator read, and the recipient refuses unless
	// each is still current.
	Stamps map[string]uint64
	// MsgPrepare: the coordinator's root span ID for this
	// transaction, so participant-side spans parent into the same causal
	// tree.  Zero when span tracing is off — the common case — and then
	// absent from the wire encoding entirely (internal/wire writes an
	// optional section only when it is non-empty), so tracing costs
	// nothing when unused.
	TraceCtx uint64

	// The MsgPaxos* kinds (zero elsewhere):

	// Ballot is the Paxos ballot the message speaks for: the proposal
	// ballot on prepare/accept, the promised ballot on promise/accepted,
	// and the conflicting higher promise on reject.  Ballot 0 is the
	// coordinator's fast path.
	Ballot uint32
	// Participants is the registrar payload: the transaction's
	// participant set (== the decision's Paxos instance set), carried on
	// MsgPaxosBegin and echoed back on MsgPaxosPromise.
	Participants []SiteID
	// PaxosState carries per-instance entries: proposals on
	// MsgPaxosAccept, durably accepted state on MsgPaxosAccepted and
	// MsgPaxosPromise.
	PaxosState []PaxosInst

	// Quorum replication / anti-entropy (zero where unused):

	// Versions carries item versions.  On MsgReadRep it maps each
	// requested physical replica item to the replying site's effective
	// version (max of committed and pending); on MsgPrepare it maps each
	// written physical item to the version the transaction will install
	// on commit; on the MsgAntiEntropy* kinds it maps LOGICAL item names
	// to replica versions.
	Versions map[string]uint64
	// Outcomes carries gossip'd transaction outcomes on the
	// MsgAntiEntropy* kinds, sorted by transaction ID.
	Outcomes []OutcomeRec
}

// OutcomeRec is one gossip'd transaction outcome.
type OutcomeRec struct {
	TID       txn.ID
	Committed bool
}

// Vote is a ballot value in one Paxos Commit instance: the participant's
// verdict on its share of the transaction.
type Vote uint8

const (
	// VoteNone marks a free instance (no value accepted yet).
	VoteNone Vote = iota
	// VotePrepared is the participant's "ready" vote.
	VotePrepared
	// VoteAborted is the participant's refusal, or a takeover leader's
	// proposal for an instance whose participant never voted.
	VoteAborted
)

// String names the vote.
func (v Vote) String() string {
	switch v {
	case VoteNone:
		return "none"
	case VotePrepared:
		return "prepared"
	case VoteAborted:
		return "aborted"
	default:
		return fmt.Sprintf("vote(%d)", uint8(v))
	}
}

// PaxosInst is one Paxos-instance entry on a paxos message: the state of
// (or a proposal for) the instance deciding Instance's vote.
type PaxosInst struct {
	// Instance names the participant whose vote this instance decides.
	Instance SiteID
	// Ballot is the ballot the vote was (or is to be) accepted at.
	Ballot uint32
	// Vote is the instance's value.
	Vote Vote
}

// String renders a compact trace line for the message.
func (m Message) String() string {
	return fmt.Sprintf("%s %s->%s tid=%s", m.Kind, m.From, m.To, m.TID)
}
