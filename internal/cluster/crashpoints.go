package cluster

import (
	"fmt"
	"sort"

	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/txn"
)

// CrashPoint names a one-shot failpoint inside the commit protocol.  A
// site armed at a point crashes (volatile state lost, durable store
// kept) the next time execution reaches it, exactly as a power cut
// there would.  The registry generalizes the original single
// before-decision hook so the torture harness can exercise every
// distinct durability window of the protocol.
type CrashPoint string

const (
	// CrashBeforePrepare fires on the coordinator after all reads
	// arrive, before any prepare message is sent: reads leave no state,
	// so no participant holds anything.
	CrashBeforePrepare CrashPoint = "before-prepare"
	// CrashBeforeReady fires on a participant after its prepared record
	// is durably logged but before the ready message leaves: the
	// coordinator sees a ready timeout while this site recovers its
	// in-doubt state from the WAL.
	CrashBeforeReady CrashPoint = "before-ready"
	// CrashAfterReady fires on a participant just after sending ready:
	// the paper's wait-phase window, entered with the prepared record
	// already durable.
	CrashAfterReady CrashPoint = "after-ready"
	// CrashBeforeDecision fires on the coordinator the instant it would
	// decide COMMIT — every ready collected, nothing logged or sent.
	// This is the paper's critical moment (the original ARMCRASH hook).
	CrashBeforeDecision CrashPoint = "before-decision"
	// CrashAfterDecisionLog fires on the coordinator after the commit
	// decision is durably logged but before any complete message is
	// sent: participants time out into polyvalues and must extract the
	// outcome from the restarted coordinator's log.
	CrashAfterDecisionLog CrashPoint = "after-decision-log"
	// CrashBeforePaxosAccept fires on a PlanePaxos acceptor when a
	// 2a/vote arrives, before anything is durably accepted: the vote is
	// lost at this acceptor (survivable at up to F of them).
	CrashBeforePaxosAccept CrashPoint = "before-paxos-accept"
	// CrashAfterPaxosAccept fires on a PlanePaxos acceptor right after
	// its durable accept, before the 2b reply leaves: the leader must
	// reach quorum elsewhere or a takeover re-reads this state.
	CrashAfterPaxosAccept CrashPoint = "after-paxos-accept"
	// CrashMidWALAppend tears the site's next durable log write in half
	// (storage.FileLog.TearNext) and crashes: recovery must replay the
	// intact prefix and discard the torn record.  On sites without a
	// file-backed WAL the crash still fires right after the append.
	CrashMidWALAppend CrashPoint = "mid-wal-append"
)

// CrashPoints lists every registered crash point, sorted.
func CrashPoints() []CrashPoint {
	pts := []CrashPoint{
		CrashBeforePrepare, CrashBeforeReady, CrashAfterReady,
		CrashBeforeDecision, CrashAfterDecisionLog, CrashMidWALAppend,
		CrashBeforePaxosAccept, CrashAfterPaxosAccept,
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

func validCrashPoint(p CrashPoint) bool {
	switch p {
	case CrashBeforePrepare, CrashBeforeReady, CrashAfterReady,
		CrashBeforeDecision, CrashAfterDecisionLog, CrashMidWALAppend,
		CrashBeforePaxosAccept, CrashAfterPaxosAccept:
		return true
	}
	return false
}

// ArmCrash arms a one-shot crash point at a site.  The site crashes the
// next time its protocol execution reaches the point; decision-side
// points only fire for COMMIT decisions (aborts carry no durability
// risk worth interrupting).
func (c *Cluster) ArmCrash(id protocol.SiteID, point CrashPoint) error {
	if !validCrashPoint(point) {
		return fmt.Errorf("cluster: unknown crash point %q (have %v)", point, CrashPoints())
	}
	site, ok := c.sites[id]
	if !ok {
		return fmt.Errorf("cluster: unknown site %q", id)
	}
	site.do(func() { site.armed[point] = true })
	return nil
}

// ArmCrashBeforeDecision makes the site crash the instant it would next
// decide COMMIT as a coordinator — after collecting every ready
// message, before logging or sending complete.  This is the paper's
// "critical moment"; kept as a convenience alias for
// ArmCrash(id, CrashBeforeDecision).
func (c *Cluster) ArmCrashBeforeDecision(id protocol.SiteID) {
	_ = c.ArmCrash(id, CrashBeforeDecision)
}

// maybeCrash fires an armed crash point: the site crashes and the
// point disarms.  Returns true when the crash happened (the caller
// must abandon whatever it was doing — all volatile state is gone).
func (s *Site) maybeCrash(point CrashPoint, tid txn.ID) bool {
	if !s.armed[point] {
		return false
	}
	delete(s.armed, point)
	s.crash()
	return true
}

// walWrite performs one durable log write, honouring an armed
// mid-wal-append crash: the write tears half-way on file-backed stores
// and the site dies with the torn tail on disk.  Returns crashed=true
// when the site is gone (err is then irrelevant to the caller).
func (s *Site) walWrite(tid txn.ID, write func() error) (crashed bool, err error) {
	if s.armed[CrashMidWALAppend] && s.flog != nil {
		s.flog.TearNext()
	}
	err = write()
	if s.maybeCrash(CrashMidWALAppend, tid) {
		return true, err
	}
	if err != nil && storage.IsTornWrite(err) {
		// A tear armed directly on the FileLog (node-mode kill -9
		// emulation) or injected by a fault.Disk torn rule, without the
		// crash point: treat as the crash it models.  The torn fragment
		// self-repairs (truncate on next write / recovery), so this is
		// an ordinary crash, not a durability panic.
		s.crash()
		return true, err
	}
	if err != nil {
		// fsyncgate: any other failure to log (failed fsync, ENOSPC,
		// sticky earlier error) means the disk may hold less than memory
		// believes.  The site must die before acking anything durable.
		s.durabilityPanic(tid, err)
		return true, err
	}
	return false, err
}
