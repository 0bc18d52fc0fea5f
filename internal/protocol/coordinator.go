package protocol

import (
	"fmt"
	"sort"

	"repro/internal/txn"
)

// CState is the coordinator's per-transaction state.
type CState uint8

const (
	// CCollecting: prepares sent, awaiting ready messages.
	CCollecting CState = iota + 1
	// CCommitted: all readies arrived; complete messages sent.
	CCommitted
	// CAborted: a refusal or timeout occurred; abort messages sent.
	CAborted
)

// String names the coordinator state.
func (s CState) String() string {
	switch s {
	case CCollecting:
		return "collecting"
	case CCommitted:
		return "committed"
	case CAborted:
		return "aborted"
	default:
		return fmt.Sprintf("cstate(%d)", uint8(s))
	}
}

// Coordinator tracks one transaction's commit decision: it collects ready
// messages from every participant and decides complete ("after the
// transaction coordinator has received ready messages from all sites ...
// it sends out complete messages") or abort ("if ready messages are not
// promptly received").
//
// Once decided, the decision is immutable — this is the essential 2PC
// property; late readies or duplicate timeouts cannot change it.
type Coordinator struct {
	TID          txn.ID
	state        CState
	participants map[SiteID]bool // true once ready received
	ins          *Instruments
}

// NewCoordinator starts collecting for the given participant set.
func NewCoordinator(tid txn.ID, participants []SiteID) *Coordinator {
	m := make(map[SiteID]bool, len(participants))
	for _, s := range participants {
		m[s] = false
	}
	return &Coordinator{TID: tid, state: CCollecting, participants: m}
}

// State returns the current decision state.
func (c *Coordinator) State() CState { return c.state }

// Decided reports whether an outcome has been fixed, and what it is.
func (c *Coordinator) Decided() (committed, decided bool) {
	switch c.state {
	case CCommitted:
		return true, true
	case CAborted:
		return false, true
	default:
		return false, false
	}
}

// Participants returns the participant set, sorted.
func (c *Coordinator) Participants() []SiteID {
	out := make([]SiteID, 0, len(c.participants))
	for s := range c.participants {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ready reports whether site's ready has arrived.
func (c *Coordinator) Ready(site SiteID) bool { return c.participants[site] }

// OnReady records a ready message.  It returns true when this ready
// completes the set and the coordinator has just decided to commit; the
// runtime must then durably record the outcome and send complete
// messages.  Readies from unknown sites or after a decision are ignored.
func (c *Coordinator) OnReady(from SiteID) (decidedCommit bool) {
	if c.state != CCollecting {
		return false
	}
	if _, ok := c.participants[from]; !ok {
		return false
	}
	c.participants[from] = true
	c.countReady()
	for _, ready := range c.participants {
		if !ready {
			return false
		}
	}
	c.state = CCommitted
	c.decision("commit", "all-ready")
	return true
}

// OnRefuse records a refusal; if the transaction was still undecided it
// is now aborted and the runtime must record the outcome and send abort
// messages.  Returns whether the abort decision was made by this call.
func (c *Coordinator) OnRefuse(from SiteID) (decidedAbort bool) {
	if c.state != CCollecting {
		return false
	}
	c.state = CAborted
	c.decision("abort", "refused")
	return true
}

// OnTimeout fires when ready messages were not promptly received.
// Returns whether the abort decision was made by this call.
func (c *Coordinator) OnTimeout() (decidedAbort bool) {
	if c.state != CCollecting {
		return false
	}
	c.state = CAborted
	c.decision("abort", "ready-timeout")
	return true
}
