package cluster

import (
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
)

// Quorum replication (cfg.Replication set): transactions and queries
// are written against LOGICAL item names and the coordinator speaks to
// each item's K physical replicas (<logical>_r<i>, placed on distinct
// sites by replica.Placement).  It runs the single-copy coordinator
// (beginTxn, beginQuery, onReadRep, sendPrepares); this file holds only
// what replication adds to it.
//
// Read phase: probe all K replicas of every accessed logical; a probe
// locks nothing.  A logical is satisfied once R (read-only) or max(R, W)
// (written) distinct replicas answered; unreachable sites are simply
// never waited for — this is what keeps the majority side of a
// partition serving while W = K would stall.  Each reply carries
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
	// newVer holds each written logical's minted version; prepare fixes
	// it.
	newVer map[string]uint64
}

// replicaReply is one replica's answer to the read probe.
type replicaReply struct {
	val polyvalue.Poly
	ver uint64
}

// newQuorum starts the bookkeeping for a transaction or query over the
// logical items, writes among them, and returns the physical replicas
// to probe: all K of every item.  Names in the replica namespace are
// rejected.
func newQuorum(rep *ReplicationConfig, items, writes []string) (*quorumCtx, []string, error) {
	q := &quorumCtx{
		replies:   map[string]map[int]replicaReply{},
		needed:    map[string]int{},
		written:   map[string]bool{},
		responded: map[protocol.SiteID]bool{},
	}
	for _, logical := range writes {
		q.written[logical] = true
	}
	probes := make([]string, 0, len(items)*rep.K)
	for _, logical := range items {
		if err := replica.CheckName(logical); err != nil {
			return nil, nil, err
		}
		q.needed[logical] = rep.R
		if q.written[logical] {
			q.needed[logical] = max(rep.R, rep.W)
		}
		q.replies[logical] = map[int]replicaReply{}
		for i := 0; i < rep.K; i++ {
			probes = append(probes, replica.Name(logical, i))
		}
	}
	return q, probes, nil
}

// fold records one probe reply and keeps values at each logical's
// current winner, which is what a query evaluates against.
func (q *quorumCtx) fold(msg protocol.Message, values map[string]polyvalue.Poly) {
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
		values[logical], _, _ = q.winner(logical)
	}
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

// plan fixes a quorum transaction's prepare: per logical the winner to
// read, the first W responding replicas to write and the version they
// install.  It rewrites ctx's program onto those physical replicas,
// keys its values by them, and makes the respondents its participants.
func (s *Site) plan(ctx *coordCtx) error {
	q := ctx.quorum
	plan := replica.Plan{Reads: map[string]int{}, Writes: map[string][]int{}}
	q.newVer = map[string]uint64{}
	physVals := map[string]polyvalue.Poly{}
	for _, logical := range sortedKeys(q.needed) {
		val, idx, ver := q.winner(logical)
		plan.Reads[logical] = idx
		physVals[replica.Name(logical, idx)] = val
		if q.written[logical] {
			plan.Writes[logical] = sortedKeys(q.replies[logical])[:s.c.cfg.Replication.W]
			q.newVer[logical] = ver + 1
		}
	}
	rewritten, err := replica.RewritePlan(ctx.t.Program, plan)
	if err != nil {
		return err
	}
	ctx.t.Program, ctx.values = rewritten, physVals
	// Only respondents participate in the commit round; probed sites
	// that never answered hold no vote — this is the line that lets
	// W-of-K commit ride out a partition.  Their replies are no longer
	// awaited.
	clear(ctx.readWait)
	ctx.participants = sortedKeys(q.responded)
	return nil
}
