package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// Status is the client-visible state of a submitted transaction.
type Status uint8

const (
	// StatusPending: no decision has reached the client yet.  If the
	// coordinator failed, the transaction may already be in doubt at
	// participants (inspect the stores / poly counts).
	StatusPending Status = iota
	// StatusCommitted: the coordinator decided commit.
	StatusCommitted
	// StatusAborted: the coordinator decided abort (refusal, lock
	// conflict, computation error, or ready-collection timeout).
	StatusAborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Handle tracks one submitted transaction from the client's side.
type Handle struct {
	TID txn.ID

	mu        sync.Mutex
	status    Status
	reason    string
	submitted vclock.Time
	decided   vclock.Time
	// done closes when the decision lands; Wait blocks on it.  Nil for
	// handles created before this field existed (tests constructing
	// Handle directly) — decide tolerates that.
	done chan struct{}
	// release returns the coordinator site's admission credit; invoked
	// exactly once, by decide or — for handles a coordinator crash left
	// pending forever — by releaseAdmission.  Nil when no gate applies.
	release func()
}

// Wait blocks until the transaction decides, or until timeout elapses
// (wall time; the node runtime's clock IS wall time).  It returns the
// final status and true, or the current status and false on timeout.
// Only meaningful in node mode — the simulated runtime decides handles
// synchronously as RunUntil executes events.
func (h *Handle) Wait(timeout time.Duration) (Status, bool) {
	h.mu.Lock()
	ch := h.done
	st := h.status
	h.mu.Unlock()
	if st != StatusPending || ch == nil {
		return st, st != StatusPending
	}
	// Stopped on return: under go 1.22 timer rules an unstopped timer
	// stays in the runtime heap until it fires.
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return h.Status(), true
	case <-t.C:
		return h.Status(), false
	}
}

// Status returns the current client-visible status.
func (h *Handle) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status
}

// Reason explains an abort ("" otherwise).
func (h *Handle) Reason() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reason
}

// Latency returns the simulated time from submission to decision, or
// (0, false) while pending.
func (h *Handle) Latency() (vclock.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.status == StatusPending {
		return 0, false
	}
	return h.decided - h.submitted, true
}

func (h *Handle) decide(st Status, reason string, at vclock.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.status != StatusPending {
		return
	}
	h.status = st
	h.reason = reason
	h.decided = at
	if h.done != nil {
		close(h.done)
	}
	if r := h.release; r != nil {
		h.release = nil
		r()
	}
}

// releaseAdmission returns the admission credit without deciding the
// handle — the coordinator-crash path, where the handle legitimately
// stays pending but the credit must not leak.  Idempotent, and a no-op
// once decide has run.
func (h *Handle) releaseAdmission() {
	h.mu.Lock()
	r := h.release
	h.release = nil
	h.mu.Unlock()
	if r != nil {
		r()
	}
}

// QueryHandle tracks one read-only query.
type QueryHandle struct {
	mu     sync.Mutex
	done   bool
	result polyvalue.Poly
	err    error
	// doneCh closes on completion; nil unless built by newQueryHandle
	// (node mode).
	doneCh chan struct{}
}

func newQueryHandle() *QueryHandle { return &QueryHandle{doneCh: make(chan struct{})} }

// Wait blocks until the query completes or timeout elapses, returning
// the answer and whether it completed.  Node-mode counterpart of polling
// Result while the simulation runs.
func (q *QueryHandle) Wait(timeout time.Duration) (polyvalue.Poly, error, bool) {
	q.mu.Lock()
	ch := q.doneCh
	done := q.done
	q.mu.Unlock()
	if done || ch == nil {
		return q.Result()
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	}
	return q.Result()
}

// Result returns the query's answer once available.  The answer may be a
// polyvalue (§3.4: the system can present uncertain outputs); callers
// needing certainty check IsCertain and decide to wait or re-ask.
func (q *QueryHandle) Result() (polyvalue.Poly, error, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.result, q.err, q.done
}

func (q *QueryHandle) complete(p polyvalue.Poly, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done {
		return
	}
	q.done = true
	q.result = p
	q.err = err
	if q.doneCh != nil {
		close(q.doneCh)
	}
}
