package repl

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// session runs a script and returns the combined output.
func session(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	r, err := New(3, cluster.PolicyPolyvalue, 1, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, cluster.PolicyPolyvalue, 1, nil); err == nil {
		t.Error("zero sites accepted")
	}
}

func TestBasicSession(t *testing.T) {
	out := session(t, `
load x 100
submit site0 x = x + 1
run 2s
status
read x
stats
`)
	if !strings.Contains(out, "x = 100") {
		t.Errorf("load missing: %s", out)
	}
	if !strings.Contains(out, "committed") {
		t.Errorf("status missing commit: %s", out)
	}
	if !strings.Contains(out, "x = 101") {
		t.Errorf("read wrong: %s", out)
	}
	if !strings.Contains(out, "committed=1") {
		t.Errorf("stats wrong: %s", out)
	}
}

func TestFailureScenarioSession(t *testing.T) {
	// The coordinator must be a different site from x's owner, or the
	// crash takes the item's own site down and no polyvalue appears.
	var out strings.Builder
	r, err := New(3, cluster.PolicyPolyvalue, 1, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	owner := r.Cluster().Placement("x")
	coord := ""
	for _, s := range r.Cluster().Sites() {
		if s != owner {
			coord = string(s)
			break
		}
	}
	script := strings.NewReplacer("COORD", coord).Replace(`
load x 10
armcrash COORD
submit COORD x = x + 5
run 2s
sites
polys
expected x 0.9
restart COORD
run 20s
read x
`)
	if err := r.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "DOWN") {
		t.Errorf("crash not reported: %s", got)
	}
	if !strings.Contains(got, "<15,") && !strings.Contains(got, "<10,") {
		t.Errorf("polyvalue not listed: %s", got)
	}
	if !strings.Contains(got, "E[x | p=0.9] = 14.5") {
		t.Errorf("expected value missing: %s", got)
	}
	if !strings.Contains(got, "x = 10\n") {
		t.Errorf("post-repair read wrong: %s", got)
	}
}

func TestQuerySession(t *testing.T) {
	out := session(t, `
load seats 12
query site1 150 - seats
run 1s
status
`)
	if !strings.Contains(out, "q1") || !strings.Contains(out, "138") {
		t.Errorf("query output wrong: %s", out)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	out := session(t, `
partition site0 site1
heal site0 site1
healall
`)
	for _, want := range []string{"cut", "link site0--site1 healed", "all links healed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in: %s", want, out)
		}
	}
}

func TestTraceAndHelp(t *testing.T) {
	// y at site1 reads x at site0: a read round, then the commit rounds.
	out := session(t, `
load x 1
load y 1
submit site1 y = x + y
run 1s
trace 5
help
`)
	for _, want := range []string{
		"txn t.T1 [committed]",
		"phase.read", "locks", "part.compute", "part.wait", "phase.settle",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "commands:") {
		t.Errorf("help missing: %s", out)
	}
}

func TestErrorsKeepSessionAlive(t *testing.T) {
	var out strings.Builder
	r, err := New(2, cluster.PolicyPolyvalue, 1, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bad := []string{
		"bogus", "load", "load x notanumber", "submit", "submit nowhere x = 1",
		"query site0", "read", "run", "run notaduration", "crash", "crash nowhere",
		"restart nowhere", "armcrash nowhere", "partition site0",
		"heal site0", "expected x", "expected x nan...", "trace zero",
	}
	for _, line := range bad {
		if err := r.Execute(line); err == nil {
			t.Errorf("command %q did not error", line)
		}
	}
	// Still functional afterwards.
	if err := r.Execute("load x 5"); err != nil {
		t.Fatalf("session broken after errors: %v", err)
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	var out strings.Builder
	r, _ := New(2, cluster.PolicyPolyvalue, 1, &out)
	defer r.Close()
	if err := r.Execute("# a comment"); err != nil {
		t.Error(err)
	}
	if err := r.Execute("   "); err != nil {
		t.Error(err)
	}
}

func TestQueryCertainCommand(t *testing.T) {
	out := session(t, `
load seats 12
queryc site1 5s seats + 1
run 2s
status
`)
	if !strings.Contains(out, "certain-mode query") || !strings.Contains(out, "13") {
		t.Errorf("queryc output: %s", out)
	}
	// Bad args error.
	var buf strings.Builder
	r, _ := New(2, cluster.PolicyPolyvalue, 1, &buf)
	defer r.Close()
	for _, bad := range []string{"queryc site0 5s", "queryc site0 nota x", "queryc nope 5s x"} {
		if err := r.Execute(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestCheckCommand(t *testing.T) {
	out := session(t, `
load x 5
submit site0 x = 6
run 2s
check
`)
	if !strings.Contains(out, "all invariants hold") {
		t.Errorf("check output: %s", out)
	}
}

func TestQuitEndsRun(t *testing.T) {
	var out strings.Builder
	r, _ := New(2, cluster.PolicyPolyvalue, 1, &out)
	defer r.Close()
	if err := r.Run(strings.NewReader("quit\nload x 1\n")); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Error("quit did not mark session done")
	}
	if strings.Contains(out.String(), "x = 1") {
		t.Error("commands after quit executed")
	}
}
