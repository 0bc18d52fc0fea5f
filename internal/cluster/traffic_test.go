package cluster

import (
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestTransferMessageCounts pins the traffic of one committed
// two-account transfer, by kind, in the two placements a transfer
// between accounts on different sites can have.  Changes to timing
// (batching, output commit) must leave these numbers alone; a
// change that piggy-backs or drops a message must move them here first.
//
// With N = 2 participants:
//
//	read-req 2  read-rep 2   read-collect round, 2N
//	prepare  2  ready    2   vote round, 2N
//	complete 2               decision, N
//	outcome-ack 2 or 1       §3.3 record GC, N (N−1 when the coordinator
//	                         is a participant: it strikes itself directly)
//
// 12 messages when the coordinator hosts neither account, 11 when it
// hosts one (5 of the 11 are self-addressed and never reach a socket).
// Gray & Lamport's two-phase commit costs 3N−1 = 5 (3N−3 = 3 with the
// coordinator co-located): there the initiating participant's
// spontaneous vote replaces one prepare/ready pair, reads are local
// work and nothing acknowledges the decision.  Here the commit rounds
// proper cost 3N = 6, and the read round and the acks add 2N + N.
//
// The benchmark's uniform three-site bank workload mixes these with the
// single-participant (6) and all-local (0) placements at 4:2:2:1, mean
// 80/9 ≈ 8.9 — the protocol.msgs_per_commit it reports.
func TestTransferMessageCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		coord protocol.SiteID
		want  map[string]int64
	}{
		{"coordinator hosts one account", "A", map[string]int64{
			"read-req": 2, "read-rep": 2, "prepare": 2, "ready": 2, "complete": 2, "outcome-ack": 1}},
		{"coordinator hosts neither", "C", map[string]int64{
			"read-req": 2, "read-rep": 2, "prepare": 2, "ready": 2, "complete": 2, "outcome-ack": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, PolicyPolyvalue)
			loadInt(t, c, "a1", 100)
			loadInt(t, c, "b1", 100)
			h, err := c.Submit(tc.coord, "a1 = a1 - 5; b1 = b1 + 5")
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(30 * time.Second)
			if h.Status() != StatusCommitted {
				t.Fatalf("transfer %v, want committed", h.Status())
			}
			st := c.NetStats()
			var total int64
			for kind, n := range tc.want {
				total += n
				if got := st.SentByType[kind]; got != n {
					t.Errorf("sent{type=%s} = %d, want %d", kind, got, n)
				}
			}
			if st.Sent != total || st.Delivered != total {
				t.Errorf("sent %d, delivered %d, want %d of each; by kind:\n%s", st.Sent, st.Delivered, total, st.Format())
			}
		})
	}
}
