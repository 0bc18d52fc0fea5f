package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/txn"
)

// runArbitraryTrial crashes the coordinator of a B→C transfer at the
// critical moment under PolicyArbitrary and reports each participant's
// local guess plus what the items ended up holding.
func runArbitraryTrial(t *testing.T) (c *Cluster, tid txn.ID) {
	t.Helper()
	c = newTestCluster(t, PolicyArbitrary)
	loadInt(t, c, "bsrc", 100)
	loadInt(t, c, "cdst", 0)
	c.ArmCrashBeforeDecision("A")
	h, err := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	return c, h.TID
}

// TestArbitraryPolicyDecidesLocally: under §2.3 relaxed consistency the
// in-doubt participants decide unilaterally — items stay available and
// hold definite (certain) values, but each site's value reflects its own
// guess, which is exactly where atomicity can break.
func TestArbitraryPolicyDecidesLocally(t *testing.T) {
	c, tid := runArbitraryTrial(t)
	if n := len(c.PolyItems()); n != 0 {
		t.Fatalf("arbitrary policy installed polyvalues: %v", c.PolyItems())
	}
	guessB := arbitraryChoice("B", tid)
	guessC := arbitraryChoice("C", tid)
	wantSrc := int64(100)
	if guessB {
		wantSrc = 60
	}
	wantDst := int64(0)
	if guessC {
		wantDst = 40
	}
	if got := readInt(t, c, "bsrc"); got != wantSrc {
		t.Errorf("bsrc = %d, want %d (guess %v)", got, wantSrc, guessB)
	}
	if got := readInt(t, c, "cdst"); got != wantDst {
		t.Errorf("cdst = %d, want %d (guess %v)", got, wantDst, guessC)
	}
	// Items are immediately available for new transactions.
	h2, _ := c.Submit("B", "bsrc = bsrc - 1")
	c.RunFor(2 * time.Second)
	if h2.Status() != StatusCommitted {
		t.Errorf("follow-up after arbitrary decision: %v", h2.Status())
	}
}

// TestArbitraryPolicyCanViolateAtomicity demonstrates the §2.3 defect
// the polyvalue mechanism exists to avoid: across many transactions,
// independent guesses at two sites disagree for some transaction,
// applying half a transfer.  (Guesses are a deterministic hash, so we
// find a disagreeing TID and assert the violation it implies.)
func TestArbitraryPolicyCanViolateAtomicity(t *testing.T) {
	c, tid := runArbitraryTrial(t)
	// Search the deterministic guess function over the TID space this
	// cluster generates: disagreement must exist and be common.
	agree, disagree := 0, 0
	for i := 0; i < 200; i++ {
		id := txn.ID(string(tid) + string(rune('a'+i%26)) + string(rune('0'+i%10)))
		if arbitraryChoice("B", id) == arbitraryChoice("C", id) {
			agree++
		} else {
			disagree++
		}
	}
	if disagree == 0 {
		t.Fatal("independent guesses never disagree — the baseline would be magically atomic")
	}
	if agree == 0 {
		t.Fatal("guesses always disagree — hash is degenerate")
	}

	// The trial never tells a guessing site the real outcome: the
	// coordinator stays down and a guess arms no inquiry, so nothing is
	// counted.  Told the opposite of its guess, B counts the conflict,
	// and check 8 stays silent — this policy breaks atomicity by design.
	conflicts := func() int64 {
		return c.Metrics().Snapshot().Counter("txn.outcome.conflicts", metrics.L("site", "B"))
	}
	if n := conflicts(); n != 0 {
		t.Fatalf("trial counted %d conflicts before any outcome was reported", n)
	}
	site := c.sites["B"]
	site.do(func() { site.resolveOutcome(tid, !arbitraryChoice("B", tid)) })
	if n := conflicts(); n != 1 {
		t.Errorf("txn.outcome.conflicts{site=B} = %d, want 1", n)
	}
	for _, v := range c.CheckInvariants() {
		if strings.Contains(v, "told both outcomes") {
			t.Errorf("check 8 ran under PolicyArbitrary: %s", v)
		}
	}
}

// TestArbitraryRecoveryFromWAL: a participant that crashes while in
// doubt under the arbitrary policy applies its guess at restart.
func TestArbitraryRecoveryFromWAL(t *testing.T) {
	c := newTestCluster(t, PolicyArbitrary)
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
	want := int64(100)
	if arbitraryChoice("B", h.TID) {
		want = 60
	}
	if got := readInt(t, c, "bsrc"); got != want {
		t.Errorf("bsrc = %d, want %d", got, want)
	}
	// The committed-at-A half is definitely applied: if B guessed abort,
	// the transfer was torn (momentarily real in this baseline).
	if got := readInt(t, c, "adst"); got != 40 {
		t.Errorf("adst = %d", got)
	}
}

func TestArbitraryPolicyString(t *testing.T) {
	if PolicyArbitrary.String() != "arbitrary" {
		t.Errorf("String = %q", PolicyArbitrary.String())
	}
}

// TestArbitraryChoiceDeterministic pins the reproducibility contract.
func TestArbitraryChoiceDeterministic(t *testing.T) {
	for _, site := range []protocol.SiteID{"A", "B"} {
		if arbitraryChoice(site, "T1") != arbitraryChoice(site, "T1") {
			t.Fatal("choice not deterministic")
		}
	}
}
