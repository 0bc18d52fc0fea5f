package fault

import (
	"strings"
	"testing"

	"repro/internal/vclock"
)

// planes builds a fresh network and disk plane, neither touching a
// real clock, socket or file while plans are applied.
func planes() (*Injector, *Disk) {
	return Wrap(&fakeTransport{}, Config{Seed: 1, Clock: vclock.NewScheduler()}), NewDisk(nil, DiskConfig{Seed: 1})
}

// TestGrammarRefusesBadInput: on both planes a p that is not a finite
// number in [0, 1], a key the verb does not take and a flag the verb
// does not take are refused, and a refused line leaves the rule it
// would have replaced in force.
func TestGrammarRefusesBadInput(t *testing.T) {
	cases := []struct {
		disk bool
		line string
		want string
	}{
		{false, "drop p=nan", "fault: p=NaN out of [0,1]"},
		{false, "drop p=inf", "fault: p=+Inf out of [0,1]"},
		{false, "delay p=-inf min=1ms max=2ms", "fault: p=-Inf out of [0,1]"},
		{false, "dup p=1.5", "fault: p=1.5 out of [0,1]"},
		{false, "dup p=-0.1", "fault: p=-0.1 out of [0,1]"},
		{false, "dup p=0.5 too=B", `fault: dup does not take "too=B"`},
		{false, "drop p=0.5 path=A.wal", `fault: drop does not take "path=A.wal"`},
		{false, "drop p=1 forever", `fault: drop does not take "forever"`},
		{false, "partition a=A b=B sticky", `fault: partition does not take "sticky"`},
		{false, "heal a=A b=B heal=1s", `fault: heal does not take "heal=1s"`},
		{false, "status verbose", `fault: status does not take "verbose"`},
		{true, "fsync p=nan", "diskfault: p=NaN out of [0,1]"},
		{true, "enospc p=inf", "diskfault: p=+Inf out of [0,1]"},
		{true, "slow p=2 min=1ms max=2ms", "diskfault: p=2 out of [0,1]"},
		{true, "enospc p=1 pth=A.wal", `diskfault: enospc does not take "pth=A.wal"`},
		{true, "torn p=1 to=B", `diskfault: torn does not take "to=B"`},
		{true, "readflip p=1 oneway", `diskfault: readflip does not take "oneway"`},
		{true, "partition a=A b=B", `diskfault: unknown command "partition"`},
	}
	for _, tc := range cases {
		in, d := planes()
		var p interface {
			Apply(string) (string, error)
			Status() string
		} = in
		if tc.disk {
			p = d
		}
		// The p=nan lines would replace these; no refused line may.
		prior := "drop p=0.25"
		if tc.disk {
			prior = "fsync p=0.25"
		}
		if _, err := p.Apply(prior); err != nil {
			t.Fatalf("%q: %v", prior, err)
		}
		before := p.Status()
		_, err := p.Apply(tc.line)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: err = %v, want %q", tc.line, err, tc.want)
		}
		if after := p.Status(); after != before {
			t.Errorf("%q changed the plan:\n%s\nto\n%s", tc.line, before, after)
		}
	}
}

// TestOnceOnEveryKind: `once` disarms a rule after its first hit on the
// network plane too, so `drop p=1 once` drops exactly one message.
func TestOnceOnEveryKind(t *testing.T) {
	inner := &fakeTransport{}
	in := Wrap(inner, Config{Seed: 1})
	if reply, err := in.Apply("drop p=1 once"); err != nil || reply != "set drop from=* to=* p=1 once" {
		t.Fatalf("reply %q, err %v", reply, err)
	}
	for i := 0; i < 5; i++ {
		in.Send(msg("A", "B"))
	}
	if got := inner.count(); got != 4 {
		t.Fatalf("delivered %d of 5, want 4 (one drop)", got)
	}
	if st := in.Status(); st != "no active faults\ninjected{kind=drop} 1\n" {
		t.Fatalf("status after the one-shot fired:\n%s", st)
	}
	// sticky: the first hit arms the rule for every later match.
	if _, err := in.Apply("dup p=0.5 sticky"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		in.Send(msg("A", "B"))
	}
	if st := in.Status(); !strings.Contains(st, "rule dup from=* to=* p=0.5 sticky(fired)") {
		t.Fatalf("sticky dup did not fire:\n%s", st)
	}
}

// documentedNetPlans and documentedDiskPlans are every plan the README,
// scripts/chaos_demo.sh and polynode's flag help and package comment
// show; a grammar change that stops one parsing fails here.
var documentedNetPlans = []string{
	"drop to=B p=0.15",
	"partition a=A b=B heal=2s",
	"partition a=A b=B heal=5s",
	"status",
	"clear",
	"heal",
	"drop p=0.1; delay p=0.2 min=5ms max=40ms",
	"delay p=0.3 min=5ms max=40ms",
	"corrupt to=C p=0.2",
	"dup p=0.1",
	"drop to=B p=0.1; delay p=0.2 min=5ms max=40ms",
}

var documentedDiskPlans = []string{
	"slow p=0.2 min=1ms max=10ms",
	"fsync p=1 once",
	"slow p=0.1 min=1ms max=5ms",
	"fsync p=0.01 once; slow p=0.2 min=1ms max=10ms",
}

func TestDocumentedPlansParse(t *testing.T) {
	for _, plan := range documentedNetPlans {
		in, _ := planes()
		if err := in.ApplyPlan(plan); err != nil {
			t.Errorf("network plan %q: %v", plan, err)
		}
	}
	for _, plan := range documentedDiskPlans {
		_, d := planes()
		if err := d.ApplyPlan(plan); err != nil {
			t.Errorf("disk plan %q: %v", plan, err)
		}
	}
}

// FuzzApplyPlan feeds arbitrary plans, as the control port and the
// -faults/-disk-faults flags would, to both planes: no line may panic,
// and every rule installed must have P in [0, 1] and min <= max.
func FuzzApplyPlan(f *testing.F) {
	for _, plan := range append(documentedNetPlans, documentedDiskPlans...) {
		f.Add(plan)
	}
	f.Add("fsync p=0.3; enospc path=B p=0.2; torn p=0.1 sticky; readflip p=0.5 once")
	f.Add("partition a=A b=B oneway heal=1s; heal a=A b=B; seed n=3")
	f.Fuzz(func(t *testing.T, plan string) {
		in, d := planes()
		in.ApplyPlan(plan)
		d.ApplyPlan(plan)
		in.Status()
		d.Status()
		for _, rules := range [][]Rule{in.rules, d.rules} {
			for _, r := range rules {
				if !(r.P >= 0 && r.P <= 1) || r.MinDelay > r.MaxDelay {
					t.Fatalf("plan %q installed %s", plan, r)
				}
			}
		}
	})
}
