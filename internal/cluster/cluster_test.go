package cluster

import (
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/condition"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// newTestCluster builds a 3-site cluster with explicit item placement:
// items prefixed a*/b*/c* live on sites A/B/C.
func newTestCluster(t *testing.T, policy Policy) *Cluster {
	t.Helper()
	c, err := New(Config{
		Sites:  []protocol.SiteID{"A", "B", "C"},
		Net:    network.Config{Latency: 10 * time.Millisecond},
		Policy: policy,
		Placement: func(item string) protocol.SiteID {
			switch item[0] {
			case 'a':
				return "A"
			case 'b':
				return "B"
			default:
				return "C"
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// sent reads network.sent{type=kind} from the cluster's registry.
func sent(c *Cluster, kind string) int64 {
	return c.Metrics().Snapshot().Counter("network.sent", metrics.L("type", kind))
}

func loadInt(t *testing.T, c *Cluster, item string, v int64) {
	t.Helper()
	if err := c.Load(item, polyvalue.Simple(value.Int(v))); err != nil {
		t.Fatal(err)
	}
}

func readInt(t *testing.T, c *Cluster, item string) int64 {
	t.Helper()
	v, ok := c.Read(item).IsCertain()
	if !ok {
		t.Fatalf("item %s uncertain: %v", item, c.Read(item))
	}
	n, ok := value.AsInt(v)
	if !ok {
		t.Fatalf("item %s not int: %v", item, v)
	}
	return n
}

func TestCommitDistributedTransfer(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "acct1", 100)
	loadInt(t, c, "bacct2", 0)
	h, err := c.Submit("A", "acct1 = acct1 - 30; bacct2 = bacct2 + 30")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	if got := readInt(t, c, "acct1"); got != 70 {
		t.Errorf("acct1 = %d", got)
	}
	if got := readInt(t, c, "bacct2"); got != 30 {
		t.Errorf("bacct2 = %d", got)
	}
	if n := len(c.PolyItems()); n != 0 {
		t.Errorf("poly items after clean commit: %d", n)
	}
	if lat, ok := h.Latency(); !ok || lat <= 0 {
		t.Errorf("latency = %v,%v", lat, ok)
	}
	st := c.Stats()
	if st.Committed != 1 || st.Aborted != 0 || st.InDoubt != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLocalTransactionOnCoordinator(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 5)
	h, _ := c.Submit("A", "ax = ax * 2")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	if got := readInt(t, c, "ax"); got != 10 {
		t.Errorf("ax = %d", got)
	}
}

func TestGuardedTransactionAbortsNothing(t *testing.T) {
	// Guard fails: commit happens but writes nothing.
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "abal", 10)
	h, _ := c.Submit("B", "abal = abal - 50 if abal >= 50")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	if got := readInt(t, c, "abal"); got != 10 {
		t.Errorf("abal = %d", got)
	}
}

func TestComputeErrorAborts(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if err := c.Load("astr", polyvalue.Simple(value.Str("x"))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("A", "astr = astr * 2")
	c.RunFor(time.Second)
	if h.Status() != StatusAborted {
		t.Fatalf("status = %v", h.Status())
	}
	if h.Reason() == "" {
		t.Error("abort reason empty")
	}
}

func TestLockConflictAbortsOne(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 100)
	h1, _ := c.Submit("B", "ax = ax - 10")
	h2, _ := c.Submit("C", "ax = ax - 10")
	c.RunFor(2 * time.Second)
	s1, s2 := h1.Status(), h2.Status()
	committed := 0
	if s1 == StatusCommitted {
		committed++
	}
	if s2 == StatusCommitted {
		committed++
	}
	if committed != 1 {
		t.Fatalf("statuses = %v, %v — exactly one should commit under no-wait locking", s1, s2)
	}
	if got := readInt(t, c, "ax"); got != 90 {
		t.Errorf("ax = %d, want 90 (one transfer applied)", got)
	}
}

func TestSequentialTransactionsBothCommit(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 100)
	h1, _ := c.Submit("B", "ax = ax - 10")
	c.RunFor(time.Second)
	h2, _ := c.Submit("C", "ax = ax - 10")
	c.RunFor(time.Second)
	if h1.Status() != StatusCommitted || h2.Status() != StatusCommitted {
		t.Fatalf("statuses = %v, %v", h1.Status(), h2.Status())
	}
	if got := readInt(t, c, "ax"); got != 80 {
		t.Errorf("ax = %d", got)
	}
}

// TestCoordinatorCrashInstallsPolyvalues is the paper's headline
// scenario: the coordinator fails at the critical moment (all readies
// collected, decision not yet sent).  Participants time out in the wait
// phase, install {<new, T>, <old, !T>}, and keep processing.
func TestCoordinatorCrashInstallsPolyvalues(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	c.ArmCrashBeforeDecision("A")
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(2 * time.Second)

	if h.Status() != StatusPending {
		t.Fatalf("handle status = %v — the client never hears a decision", h.Status())
	}
	if !c.IsDown("A") {
		t.Fatal("failpoint did not crash the coordinator")
	}
	polys := c.PolyItems()
	if len(polys) != 2 {
		t.Fatalf("poly items = %v, want [bsrc cdst]", polys)
	}
	// Each polyvalue carries both possible values.
	src := c.Read("bsrc")
	min, max, ok := src.MinMax()
	if !ok || min != 60 || max != 100 {
		t.Errorf("bsrc = %v (min %g max %g)", src, min, max)
	}
	// The items are AVAILABLE: a new transaction on bsrc commits even
	// though A is still down (B coordinates, only B/C involved... bsrc is
	// on B).  This is the whole point of the mechanism.
	h2, _ := c.Submit("B", "bsrc = bsrc - 10")
	c.RunFor(2 * time.Second)
	if h2.Status() != StatusCommitted {
		t.Fatalf("follow-up on polyvalued item: %v (%s)", h2.Status(), h2.Reason())
	}
	src = c.Read("bsrc")
	min, max, ok = src.MinMax()
	if !ok || min != 50 || max != 90 {
		t.Errorf("bsrc after polytransaction = %v", src)
	}

	// Recovery: restart A.  The in-doubt participants keep asking A for
	// the outcome; A has no durable record of the transaction, so it
	// presumes abort, and every polyvalue reduces to the no-transfer
	// branch.
	c.Restart("A")
	// The inquiry loop backs off up to 8x the retry interval (with
	// jitter), so give recovery a couple of full backoff
	// periods to drain.
	c.RunFor(15 * time.Second)
	if len(c.PolyItems()) != 0 {
		t.Fatalf("polyvalues survived recovery: %v", c.PolyItems())
	}
	if got := readInt(t, c, "bsrc"); got != 90 {
		t.Errorf("bsrc after recovery = %d, want 90 (100 aborted-transfer, -10 committed)", got)
	}
	if got := readInt(t, c, "cdst"); got != 0 {
		t.Errorf("cdst after recovery = %d, want 0", got)
	}
	if st := c.Stats(); st.PolyReductions == 0 {
		t.Error("no polyvalue reductions counted")
	}
}

// TestPartitionAfterDecisionResolvesToCommit: the coordinator decides
// commit and logs it durably, but the complete messages are lost to a
// partition.  Participants install polyvalues; when the partition heals
// their outcome requests return "committed" and the polyvalues reduce to
// the new values.
func TestPartitionAfterDecisionResolvesToCommit(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	// Timeline with L=10ms (one round: no statement reads another
	// site's item): prepares arrive 10ms, readies arrive 20ms (decision!),
	// completes would arrive 30ms.  Cut both links at 25ms: decision
	// logged, completes in flight are dropped at delivery.
	c.sched.After(25*time.Millisecond, func() {
		c.Partition("A", "B")
		c.Partition("A", "C")
	})
	h, _ := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(time.Second)

	if h.Status() != StatusCommitted {
		t.Fatalf("coordinator decided %v", h.Status())
	}
	if len(c.PolyItems()) != 2 {
		t.Fatalf("participants should be in doubt: polys = %v", c.PolyItems())
	}
	// Heal; retries fetch the outcome; polyvalues reduce to committed
	// values.
	c.HealAll()
	c.RunFor(5 * time.Second)
	if len(c.PolyItems()) != 0 {
		t.Fatalf("polyvalues survived heal: %v", c.PolyItems())
	}
	if got := readInt(t, c, "bsrc"); got != 60 {
		t.Errorf("bsrc = %d, want 60", got)
	}
	if got := readInt(t, c, "cdst"); got != 40 {
		t.Errorf("cdst = %d, want 40", got)
	}
}

// TestPolytransactionPropagatesAndReduces: a transaction reads a
// polyvalued item and writes a polyvalued result to a different site;
// outcome news must travel the §3.3 dependency chain and reduce both.
func TestPolytransactionPropagatesAndReduces(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	c.ArmCrashBeforeDecision("A")
	_, _ = c.Submit("A", "bsrc = bsrc - 40")
	c.RunFor(time.Second)
	if len(c.PolyItems()) != 1 {
		t.Fatalf("setup: polys = %v", c.PolyItems())
	}
	// Polytransaction: copy uncertainty from bsrc (site B) to cdst
	// (site C), coordinated by C.
	h, _ := c.Submit("C", "cdst = bsrc * 2")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("polytransaction: %v (%s)", h.Status(), h.Reason())
	}
	dst := c.Read("cdst")
	if _, certain := dst.IsCertain(); certain {
		t.Fatalf("cdst should be uncertain: %v", dst)
	}
	min, max, _ := dst.MinMax()
	if min != 120 || max != 200 {
		t.Errorf("cdst = %v (min %g max %g)", dst, min, max)
	}
	// Resolve: restart A → presumed abort → bsrc=100 and cdst=200.
	c.Restart("A")
	c.RunFor(10 * time.Second)
	if polys := c.PolyItems(); len(polys) != 0 {
		t.Fatalf("unreduced polyvalues: %v", polys)
	}
	if got := readInt(t, c, "bsrc"); got != 100 {
		t.Errorf("bsrc = %d", got)
	}
	if got := readInt(t, c, "cdst"); got != 200 {
		t.Errorf("cdst = %d", got)
	}
	// Dependency tables must be empty everywhere (§3.3: "the data
	// structures used in the mechanism are also quickly removed").
	for _, id := range c.Sites() {
		if tids := c.Store(id).DepTIDs(); len(tids) != 0 {
			t.Errorf("site %s retains dependency entries %v", id, tids)
		}
	}
}

// TestCertainOutputFromUncertainInput: §5's credit-authorization shape —
// the polytransaction's output does not depend on which branch is real,
// so it writes a SIMPLE value and propagates no uncertainty.
func TestCertainOutputFromUncertainInput(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bbal", 500)
	c.ArmCrashBeforeDecision("A")
	_, _ = c.Submit("A", "bbal = bbal - 40")
	c.RunFor(time.Second)
	if len(c.PolyItems()) != 1 {
		t.Fatalf("setup: polys = %v", c.PolyItems())
	}
	h, _ := c.Submit("C", "cok = bbal >= 100")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("authorization txn: %v (%s)", h.Status(), h.Reason())
	}
	ok, certain := c.Read("cok").IsCertain()
	if !certain {
		t.Fatalf("authorization should be certain: %v", c.Read("cok"))
	}
	if !ok.Equal(value.Bool(true)) {
		t.Errorf("cok = %v", ok)
	}
}

func TestQueryUncertainOutput(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bseats", 12)
	c.ArmCrashBeforeDecision("A")
	_, _ = c.Submit("A", "bseats = bseats + 1")
	c.RunFor(time.Second)

	qh, err := c.Query("C", "150 - bseats")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	p, qerr, done := qh.Result()
	if !done || qerr != nil {
		t.Fatalf("query: done=%v err=%v", done, qerr)
	}
	min, max, ok := p.MinMax()
	if !ok || min != 137 || max != 138 {
		t.Errorf("remaining = %v", p)
	}
}

func TestQueryErrors(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if _, err := c.Query("nope", "1 + 1"); err == nil {
		t.Error("unknown site accepted")
	}
	if _, err := c.Query("A", "1 +"); err == nil {
		t.Error("bad expression accepted")
	}
	// Query needing a down site times out with an error.
	loadInt(t, c, "bx", 1)
	c.Crash("B")
	qh, _ := c.Query("A", "bx + 1")
	c.RunFor(2 * time.Second)
	if _, qerr, done := qh.Result(); !done || qerr == nil {
		t.Errorf("query against down site: done=%v err=%v", done, qerr)
	}
}

func TestSubmitErrors(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	if _, err := c.Submit("nope", "x = 1"); err == nil {
		t.Error("unknown site accepted")
	}
	if _, err := c.Submit("A", "garbage &&"); err == nil {
		t.Error("bad program accepted")
	}
	// Submission to a crashed site aborts immediately.
	c.Crash("A")
	h, err := c.Submit("A", "ax = 1")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if h.Status() != StatusAborted {
		t.Errorf("status = %v", h.Status())
	}
}

// TestParticipantCrashRecoversFromWAL: a participant crashes in the wait
// phase; on restart it finds the prepared record in its WAL, installs
// polyvalues, and later resolves them by asking the coordinator.
func TestParticipantCrashRecoversFromWAL(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "adst", 0)
	// Crash B the instant after it sends ready (ready sent at ~30ms).
	c.sched.After(31*time.Millisecond, func() { c.Crash("B") })
	h, _ := c.Submit("A", "bsrc = bsrc - 40; adst = adst + 40")
	c.RunFor(time.Second)
	// A decided: it got B's ready (sent before the crash) and its own.
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v (%s)", h.Status(), h.Reason())
	}
	// adst (on A) committed normally; bsrc is stuck on crashed B.
	if got := readInt(t, c, "adst"); got != 40 {
		t.Errorf("adst = %d", got)
	}
	// Restart B: WAL recovery installs a polyvalue for bsrc, then the
	// outcome request to A resolves it to the committed value.
	c.Restart("B")
	c.RunFor(5 * time.Second)
	if got := readInt(t, c, "bsrc"); got != 60 {
		t.Errorf("bsrc after WAL recovery = %d, want 60", got)
	}
	if len(c.PolyItems()) != 0 {
		t.Errorf("polys = %v", c.PolyItems())
	}
}

// TestBlockingPolicyStallsItems: the A1 ablation scenario — under the
// blocking baseline the in-doubt participant holds its locks, so new
// transactions on those items abort until the failure is repaired.
func TestBlockingPolicyStallsItems(t *testing.T) {
	c := newTestCluster(t, PolicyBlocking)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	c.ArmCrashBeforeDecision("A")
	_, _ = c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	c.RunFor(2 * time.Second)
	if len(c.PolyItems()) != 0 {
		t.Fatalf("blocking policy installed polyvalues: %v", c.PolyItems())
	}
	// New transaction on the locked item must fail.
	h2, _ := c.Submit("B", "bsrc = bsrc - 10")
	c.RunFor(2 * time.Second)
	if h2.Status() != StatusAborted {
		t.Fatalf("blocked item accepted a transaction: %v", h2.Status())
	}
	// Repair: restart A; the blocked participant learns "presumed abort",
	// releases, and the retry succeeds.
	c.Restart("A")
	c.RunFor(5 * time.Second)
	h3, _ := c.Submit("B", "bsrc = bsrc - 10")
	c.RunFor(2 * time.Second)
	if h3.Status() != StatusCommitted {
		t.Fatalf("post-repair transaction: %v (%s)", h3.Status(), h3.Reason())
	}
	if got := readInt(t, c, "bsrc"); got != 90 {
		t.Errorf("bsrc = %d, want 90", got)
	}
}

// TestBlockingParticipantCrashRecovery: blocking policy + participant
// crash in wait — on restart the item is re-locked (still unavailable)
// until the outcome arrives.
func TestBlockingParticipantCrashRecovery(t *testing.T) {
	c := newTestCluster(t, PolicyBlocking)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "adst", 0)
	c.sched.After(31*time.Millisecond, func() { c.Crash("B") })
	h, _ := c.Submit("A", "bsrc = bsrc - 40; adst = adst + 40")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v", h.Status())
	}
	c.Restart("B")
	c.RunFor(5 * time.Second)
	// Outcome fetched from A: commit applies the prepared writes.
	if got := readInt(t, c, "bsrc"); got != 60 {
		t.Errorf("bsrc = %d, want 60", got)
	}
}

func TestCrashBringsDownQueries(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	qh, _ := c.Query("A", "ax + 1")
	c.Crash("A")
	c.RunFor(time.Second)
	if _, err, done := qh.Result(); !done || err == nil {
		t.Errorf("query on crashed coordinator: done=%v err=%v", done, err)
	}
}

func TestStatsAndStringers(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 1)
	h, _ := c.Submit("A", "bx = 2") // cross-site: exercises the network
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	if c.Metrics().Snapshot().Total("network.delivered") == 0 {
		t.Error("no network activity recorded")
	}
	if c.LatencyHistogram().Count() != 1 {
		t.Errorf("latency samples = %d", c.LatencyHistogram().Count())
	}
	if StatusPending.String() != "pending" || StatusCommitted.String() != "committed" ||
		StatusAborted.String() != "aborted" || Status(9).String() != "status(9)" {
		t.Error("Status strings wrong")
	}
	if PolicyPolyvalue.String() != "polyvalue" || PolicyBlocking.String() != "blocking" {
		t.Error("Policy strings wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty site list accepted")
	}
	if _, err := New(Config{Sites: []protocol.SiteID{"A", "A"}}); err == nil {
		t.Error("duplicate sites accepted")
	}
}

func TestDefaultPlacementDeterministic(t *testing.T) {
	c, err := New(Config{Sites: []protocol.SiteID{"A", "B", "C"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Placement("item42") != c.Placement("item42") {
		t.Error("placement not deterministic")
	}
	// A name outside the replica namespace hashes with FNV-1a over Sites.
	for _, item := range []string{"item42", "acct0", "acct63", "x_r", "x_rb"} {
		h := fnv.New32a()
		h.Write([]byte(item))
		if got, want := c.Placement(item), c.Sites()[int(h.Sum32())%3]; got != want {
			t.Errorf("Placement(%q) = %s, want %s", item, got, want)
		}
	}
	// All sites receive some share over many items.
	counts := map[protocol.SiteID]int{}
	for i := 0; i < 300; i++ {
		counts[c.Placement(string(rune('a'+i%26))+string(rune('0'+i%10)))]++
	}
	for _, s := range c.Sites() {
		if counts[s] == 0 {
			t.Errorf("site %s owns nothing", s)
		}
	}
}

// TestSerialEquivalenceUnderFailure: the acid test — run a workload with
// a mid-stream coordinator crash, resolve everything, and compare the
// final state to the serial execution of exactly the committed
// transactions.
func TestSerialEquivalenceUnderFailure(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "ax", 1000)
	loadInt(t, c, "by", 1000)
	loadInt(t, c, "cz", 1000)

	type sub struct {
		src string
		h   *Handle
	}
	var subs []sub
	submit := func(coord protocol.SiteID, src string) {
		h, err := c.Submit(coord, src)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{src: src, h: h})
		c.RunFor(500 * time.Millisecond)
	}

	submit("A", "ax = ax - 100; by = by + 100")
	c.ArmCrashBeforeDecision("B")
	submit("B", "by = by - 50; cz = cz + 50") // crashes B, in doubt
	submit("C", "cz = cz * 2")                // polytransaction over cz
	submit("A", "ax = ax - 1")
	c.Restart("B")
	c.RunFor(10 * time.Second)

	// Compute expected state: committed txns in submission order;
	// the in-doubt one resolved to presumed abort.
	expected := map[string]int64{"ax": 1000, "by": 1000, "cz": 1000}
	apply := []func(){
		func() { expected["ax"] -= 100; expected["by"] += 100 },
		func() {}, // aborted (presumed) — no effect
		func() { expected["cz"] *= 2 },
		func() { expected["ax"] -= 1 },
	}
	for i, s := range subs {
		switch i {
		case 1:
			if s.h.Status() == StatusCommitted {
				t.Fatalf("in-doubt txn reported committed to client")
			}
		default:
			if s.h.Status() != StatusCommitted {
				t.Fatalf("txn %d (%s): %v (%s)", i, s.src, s.h.Status(), s.h.Reason())
			}
			_ = apply
		}
	}
	for i, f := range apply {
		if i == 1 {
			continue
		}
		f()
	}
	if polys := c.PolyItems(); len(polys) != 0 {
		t.Fatalf("unresolved polys: %v", polys)
	}
	for item, want := range expected {
		if got := readInt(t, c, item); got != want {
			t.Errorf("%s = %d, want %d", item, got, want)
		}
	}
	// §3.3 hygiene: once everything settled, the outcome records and
	// dependency tables have been garbage-collected everywhere ("that
	// site can forget the outcome of T and the table entry for T").
	for _, id := range c.Sites() {
		if tids := c.Store(id).DepTIDs(); len(tids) != 0 {
			t.Errorf("site %s retains dependency entries %v", id, tids)
		}
		for _, s := range subs {
			if _, known := c.Store(id).Outcome(s.h.TID); known {
				t.Errorf("site %s retains outcome record for %s after GC window", id, s.h.TID)
			}
		}
	}
}

// TestUncertainValueConditionShape: the installed polyvalue literally has
// the {<new, T>, <old, !T>} shape from §3.1.
func TestUncertainValueConditionShape(t *testing.T) {
	c := newTestCluster(t, PolicyPolyvalue)
	loadInt(t, c, "bx", 7)
	c.ArmCrashBeforeDecision("A")
	h, _ := c.Submit("A", "bx = 9")
	c.RunFor(time.Second)
	p := c.Read("bx")
	pairs := p.Pairs()
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", p)
	}
	tid := condition.TID(h.TID)
	for _, pr := range pairs {
		n, _ := value.AsInt(pr.Val)
		switch n {
		case 9:
			if !pr.Cond.Equal(condition.Committed(tid)) {
				t.Errorf("new-value condition = %v", pr.Cond)
			}
		case 7:
			if !pr.Cond.Equal(condition.Aborted(tid)) {
				t.Errorf("old-value condition = %v", pr.Cond)
			}
		default:
			t.Errorf("unexpected value %d", n)
		}
	}
}
