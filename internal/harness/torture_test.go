package harness

import (
	"testing"
)

func TestTortureCleanSeeds(t *testing.T) {
	type run struct {
		seed int64
		txns int
	}
	runs := []run{
		// Seed 773 at polyverify's 40 transactions: a coordinator
		// forwards a polyvalue on a transaction whose outcome it already
		// knows.
		{773, 40},
	}
	for seed := int64(100); seed < 106; seed++ {
		runs = append(runs, run{seed, 25})
	}
	for _, r := range runs {
		rep, err := Torture(TortureConfig{Seed: r.seed, Txns: r.txns})
		if err != nil {
			t.Fatalf("seed %d: %v", r.seed, err)
		}
		if !rep.OK() {
			t.Errorf("seed %d: %s\n%v", r.seed, rep, rep.Violations)
		}
		if rep.Committed+rep.Aborted+rep.Pending != r.txns {
			t.Errorf("seed %d: statuses don't sum: %s", r.seed, rep)
		}
	}
}

func TestTortureDeterministic(t *testing.T) {
	a, err := Torture(TortureConfig{Seed: 7, Txns: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Torture(TortureConfig{Seed: 7, Txns: 20})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
}

func TestTortureDefaults(t *testing.T) {
	rep, err := Torture(TortureConfig{Seed: 1, Txns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}
