package cluster

import (
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// Gossip pacing and digest caps.  A digest's windows rotate across
// rounds, so every outcome and version is eventually offered.
const (
	aeInterval    = time.Second // mean gap between a site's rounds (simulated)
	aeFanout      = 1           // peers contacted per round
	aeMaxOutcomes = 64          // transaction outcomes per digest
	aeMaxItems    = 128         // logical-item versions per digest
)

// Anti-entropy gossip (quorum replication only): about every
// aeInterval each site opens a round with a deterministically-chosen peer
// and they exchange (1) transaction outcomes — the epidemic §3.3
// channel that reduces stranded polyvalues when the coordinator that
// decided them is dead — and (2) versioned replica values, converging
// the replicas a W-of-K commit skipped.  Three messages per round:
//
//	Digest (initiator → peer):  my recent outcomes; committed versions
//	                            of the logicals I host
//	Reply  (peer → initiator):  outcomes you were missing; my fresher
//	                            values; the logicals I want from you
//	Update (initiator → peer):  the wanted values
//
// Value copies are guarded four ways: the incoming value must be
// certain, the local replica must be certain (gossip never overwrites
// a polyvalue — reduction owns that), unlocked (no live transaction is
// mid-flight on it), and strictly older by version.  Outcome learning
// has no such guard: resolveOutcome already handles every local state.
func (s *Site) armGossip() {
	// Jitter the interval (hash, not PRNG — simulated runs must stay
	// deterministic) so sites don't gossip in lockstep.
	h := fnv.New64a()
	h.Write([]byte(s.id))
	h.Write([]byte{byte(s.aeRound), byte(s.aeRound >> 8), byte(s.aeRound >> 16)})
	jitter := 0.75 + float64(h.Sum64()%1024)/2048 // 0.75x .. 1.25x
	d := vclock.Time(float64(aeInterval) * jitter)
	s.aeTimer = s.after(d, func() {
		s.aeRound++
		s.gossipRound()
		s.armGossip()
	})
}

// gossipRound opens one round: pick aeFanout peers and send each a
// digest of our outcomes and hosted replica versions.
func (s *Site) gossipRound() {
	peers := s.gossipPeers()
	if len(peers) == 0 {
		return
	}
	outs, vers := s.buildDigest()
	if len(outs) == 0 && len(vers) == 0 {
		return
	}
	s.c.aeRounds.Inc()
	for _, peer := range peers {
		s.send(protocol.Message{
			Kind: protocol.MsgAntiEntropyDigest, To: peer,
			Outcomes: outs, Versions: vers,
		})
	}
}

// gossipPeers picks aeFanout peers for this round, deterministically from
// (site, round), skipping self and peers the transport's failure
// detector currently suspects (see peerSuspected: a breaker would drop
// the messages anyway; spend the round on someone reachable).
func (s *Site) gossipPeers() []protocol.SiteID {
	var candidates []protocol.SiteID
	for _, id := range s.c.order {
		if id == s.id || s.peerSuspected(id) {
			continue
		}
		candidates = append(candidates, id)
	}
	if len(candidates) == 0 {
		return nil
	}
	n := min(aeFanout, len(candidates))
	h := fnv.New64a()
	h.Write([]byte(s.id))
	h.Write([]byte{byte(s.aeRound), byte(s.aeRound >> 8), byte(s.aeRound >> 16)})
	start := int(h.Sum64() % uint64(len(candidates)))
	out := make([]protocol.SiteID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, candidates[(start+i)%len(candidates)])
	}
	return out
}

// buildDigest summarizes this site's gossip-relevant state: known
// outcomes sorted by transaction ID and the committed version of every
// logical whose replicas we host.  Both lists are capped; the windows
// rotate with the round counter so a backlog larger than one digest is
// still fully offered over successive rounds.
func (s *Site) buildDigest() ([]protocol.OutcomeRec, map[string]uint64) {
	known := s.store.OutcomesSnapshot()
	tids := make([]string, 0, len(known))
	for tid := range known {
		tids = append(tids, string(tid))
	}
	sort.Strings(tids)
	tids = rotateWindow(tids, aeMaxOutcomes, s.aeRound)
	outs := make([]protocol.OutcomeRec, 0, len(tids))
	for _, tid := range tids {
		outs = append(outs, protocol.OutcomeRec{TID: txn.ID(tid), Committed: known[txn.ID(tid)]})
	}

	byLogical := map[string]uint64{}
	for phys, ver := range s.store.VersionsSnapshot() {
		logical, _, ok := replica.Logical(phys)
		if !ok {
			continue
		}
		if ver > byLogical[logical] {
			byLogical[logical] = ver
		}
	}
	logicals := sortedKeys(byLogical)
	logicals = rotateWindow(logicals, aeMaxItems, s.aeRound)
	vers := make(map[string]uint64, len(logicals))
	for _, logical := range logicals {
		vers[logical] = byLogical[logical]
	}
	return outs, vers
}

// rotateWindow returns up to max entries of a sorted list, starting at
// an offset that advances with the round number.
func rotateWindow(list []string, max, round int) []string {
	if len(list) <= max {
		return list
	}
	start := (round * max) % len(list)
	out := make([]string, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, list[(start+i)%len(list)])
	}
	return out
}

// onAEDigest answers one gossip round: learn the offered outcomes,
// then reply with outcomes the initiator was missing, fresher values
// for the logicals it advertised, and a want-list for the ones where
// the initiator is ahead of us.
func (s *Site) onAEDigest(msg protocol.Message) {
	s.learnOutcomes(msg.Outcomes)

	offered := make(map[txn.ID]bool, len(msg.Outcomes))
	for _, rec := range msg.Outcomes {
		offered[rec.TID] = true
	}
	known := s.store.OutcomesSnapshot()
	missing := make([]string, 0, len(known))
	for tid := range known {
		if !offered[tid] {
			missing = append(missing, string(tid))
		}
	}
	sort.Strings(missing)
	missing = rotateWindow(missing, aeMaxOutcomes, s.aeRound)
	outs := make([]protocol.OutcomeRec, 0, len(missing))
	for _, tid := range missing {
		outs = append(outs, protocol.OutcomeRec{TID: txn.ID(tid), Committed: known[txn.ID(tid)]})
	}

	vers := map[string]uint64{}
	vals := map[string]polyvalue.Poly{}
	var wants []string
	for _, logical := range sortedKeys(msg.Versions) {
		theirs := msg.Versions[logical]
		val, mine, hosted := s.hostedReplica(logical)
		if !hosted {
			continue
		}
		if mine > theirs {
			if _, certain := val.IsCertain(); certain && len(vals) < aeMaxItems {
				vers[logical] = mine
				vals[logical] = val
			}
		} else if mine < theirs && len(wants) < aeMaxItems {
			wants = append(wants, logical)
		}
	}
	if len(outs) == 0 && len(vers) == 0 && len(wants) == 0 {
		return
	}
	s.send(protocol.Message{
		Kind: protocol.MsgAntiEntropyReply, To: msg.From,
		Outcomes: outs, Versions: vers, Values: vals, Items: wants,
	})
}

// onAEReply closes our side of a round we initiated: learn outcomes,
// apply the peer's fresher values, and ship the values it asked for.
func (s *Site) onAEReply(msg protocol.Message) {
	s.learnOutcomes(msg.Outcomes)
	s.applyReplicaValues(msg)
	if len(msg.Items) == 0 {
		return
	}
	vers := map[string]uint64{}
	vals := map[string]polyvalue.Poly{}
	for _, logical := range msg.Items {
		val, ver, hosted := s.hostedReplica(logical)
		if !hosted || ver == 0 {
			continue
		}
		if _, certain := val.IsCertain(); !certain {
			continue
		}
		vers[logical] = ver
		vals[logical] = val
	}
	if len(vers) == 0 {
		return
	}
	s.send(protocol.Message{
		Kind: protocol.MsgAntiEntropyUpdate, To: msg.From,
		Versions: vers, Values: vals,
	})
}

// onAEUpdate applies the round-closing value shipment.
func (s *Site) onAEUpdate(msg protocol.Message) {
	s.applyReplicaValues(msg)
}

// learnOutcomes folds gossip'd outcomes into the local store via the
// ordinary resolution path: unknown outcomes reduce dependent
// polyvalues, wake blocked participants, settle prepared entries and
// propagate further per §3.3 — exactly as if the coordinator itself
// had answered.  This is the channel that un-strands polyvalues whose
// coordinator died after deciding.
func (s *Site) learnOutcomes(recs []protocol.OutcomeRec) {
	for _, rec := range recs {
		if _, known := s.store.Outcome(rec.TID); known {
			continue
		}
		s.c.aeOutcomesLearned.Inc()
		s.resolveOutcome(rec.TID, rec.Committed)
	}
}

// applyReplicaValues copies gossip'd logical values onto the stale
// local replicas that may accept them (see the guards on the package
// comment above).
func (s *Site) applyReplicaValues(msg protocol.Message) {
	for _, logical := range sortedKeys(msg.Values) {
		val := msg.Values[logical]
		ver := msg.Versions[logical]
		if ver == 0 {
			continue
		}
		if _, certain := val.IsCertain(); !certain {
			continue
		}
		for i := 0; i < s.c.cfg.Replication.K; i++ {
			phys := replica.Name(logical, i)
			if s.c.Placement(phys) != s.id {
				continue
			}
			if _, locked := s.locks[phys]; locked {
				continue
			}
			local := s.store.Get(phys)
			if _, certain := local.IsCertain(); !certain {
				continue // reduction owns polyvalued replicas
			}
			if ver <= s.store.EffectiveVersion(phys, "") {
				continue
			}
			if err := s.put(phys, val); err != nil {
				continue
			}
			if _, err := s.store.SetVersion(phys, ver); err != nil {
				continue
			}
			s.c.aeItemsCopied.Inc()
		}
	}
}

// hostedReplica returns the freshest committed local replica of a
// logical item: its value, version, and whether this site hosts any
// replica of it at all.
func (s *Site) hostedReplica(logical string) (val polyvalue.Poly, ver uint64, hosted bool) {
	for i := 0; i < s.c.cfg.Replication.K; i++ {
		phys := replica.Name(logical, i)
		if s.c.Placement(phys) != s.id {
			continue
		}
		v := s.store.Version(phys)
		if !hosted || v > ver {
			val, ver = s.store.Get(phys), v
		}
		hosted = true
	}
	return val, ver, hosted
}
