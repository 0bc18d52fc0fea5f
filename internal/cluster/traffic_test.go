package cluster

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestTransferMessageCounts pins the traffic of one committed
// transfer, by kind, in each placement a transfer can have.  Changes to
// timing (batching, output commit) must leave these numbers alone; a
// change that piggy-backs or drops a message must move them here first.
//
// A guarded transfer whose accounts sit on N = 2 different sites:
//
//	prepare  2  ready    2   vote round, 2N
//	read-rep 1               the debit site's value for the credit site
//	complete 2               decision, N
//	outcome-ack 2 or 1       §3.3 record GC, N (N−1 when the coordinator
//	                         is a participant: it strikes itself directly)
//
// 9 messages when the coordinator hosts neither account, 8 when it hosts
// one (4 of the 8 are self-addressed and never reach a socket).  The
// guard makes the credit site read the debit account, but the debit
// site reads only its own: it is prepared first, sends the coordinator
// that value, and the credit site is prepared with it — a chain, with no
// read round.  An unguarded transfer needs no value at all: 8 and 7
// messages, and 4 for the single participant, which reads only its own
// items and so skips the read round.  A program with a read-only
// participant keeps the read round, 2 read-req and 2 read-rep, and that
// participant gets no decision and sends no ack — Figure 1's sequence,
// whether or not the coordinator hosts the read.
//
// Gray & Lamport's two-phase commit costs 3N−1 = 5 (3N−3 = 3 with the
// coordinator co-located): there the initiating participant's
// spontaneous vote replaces one prepare/ready pair and nothing
// acknowledges the decision.  Here the commit rounds proper cost 3N = 6,
// and the acks add N.
//
// The benchmark's uniform three-site bank workload runs the guarded
// program: it mixes the two-site (8, 9), single-participant (4) and
// all-local (0) placements at 4:2:2:1, mean 58/9 ≈ 6.4 — the
// protocol.msgs_per_commit it reports.
func TestTransferMessageCounts(t *testing.T) {
	const (
		unguarded = "a1 = a1 - 5; b1 = b1 + 5"
		guarded   = "a1 = a1 - 5 if a1 >= 5; b1 = b1 + 5 if a1 >= 5"
		oneSite   = "a1 = a1 - 5 if a1 >= 5; a2 = a2 + 5 if a1 >= 5"
		readOnly  = "b1 = b1 + 5 if a1 >= 5"
		figure1   = "b1 = b1 + a1"
	)
	for _, tc := range []struct {
		name    string
		program string
		coord   protocol.SiteID
		want    map[string]int64
	}{
		{"coordinator hosts one account", unguarded, "A", map[string]int64{
			"prepare": 2, "ready": 2, "complete": 2, "outcome-ack": 1}},
		{"coordinator hosts neither", unguarded, "C", map[string]int64{
			"prepare": 2, "ready": 2, "complete": 2, "outcome-ack": 2}},
		{"guarded, coordinator hosts one account", guarded, "A", map[string]int64{
			"read-rep": 1, "prepare": 2, "ready": 2, "complete": 2, "outcome-ack": 1}},
		{"guarded, coordinator hosts neither", guarded, "C", map[string]int64{
			"read-rep": 1, "prepare": 2, "ready": 2, "complete": 2, "outcome-ack": 2}},
		{"read-only participant", readOnly, "C", map[string]int64{
			"read-req": 2, "read-rep": 2, "prepare": 2, "ready": 2, "complete": 1, "outcome-ack": 1}},
		{"figure 1, coordinator hosts the read", figure1, "A", map[string]int64{
			"read-req": 2, "read-rep": 2, "prepare": 2, "ready": 2, "complete": 1, "outcome-ack": 1}},
		{"guarded, single participant", oneSite, "C", map[string]int64{
			"prepare": 1, "ready": 1, "complete": 1, "outcome-ack": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, PolicyPolyvalue)
			loadInt(t, c, "a1", 100)
			loadInt(t, c, "a2", 100)
			loadInt(t, c, "b1", 100)
			h, err := c.Submit(tc.coord, tc.program)
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(30 * time.Second)
			if h.Status() != StatusCommitted {
				t.Fatalf("transfer %v, want committed", h.Status())
			}
			var total int64
			for kind, n := range tc.want {
				total += n
				if got := sent(c, kind); got != n {
					t.Errorf("sent{type=%s} = %d, want %d", kind, got, n)
				}
			}
			snap := c.Metrics().Snapshot()
			if s, d := snap.Total("network.sent"), snap.Total("network.delivered"); s != total || d != total {
				t.Errorf("sent %d, delivered %d, want %d of each; by kind:\n%s", s, d, total, snap.Export())
			}
		})
	}
}
