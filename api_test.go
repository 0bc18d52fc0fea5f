package polyvalues

import (
	"testing"
	"time"
)

// These tests exercise the public facade end to end, the way a library
// consumer would: polyvalue algebra, polytransaction execution, the
// cluster, and the analysis tooling.

func TestFacadePolyvalueAlgebra(t *testing.T) {
	bal := Uncertain("T1", Simple(Int(60)), Simple(Int(100)))
	if _, certain := bal.IsCertain(); certain {
		t.Fatal("uncertain value reported certain")
	}
	min, max, ok := bal.MinMax()
	if !ok || min != 60 || max != 100 {
		t.Errorf("MinMax = %g,%g,%v", min, max, ok)
	}
	resolved := bal.Resolve("T1", true)
	if v, ok := resolved.IsCertain(); !ok || !v.Equal(Int(60)) {
		t.Errorf("Resolve = %v", resolved)
	}
	c, err := ParseCond("T1&!T2 | T3")
	if err != nil || c.NumProducts() != 2 {
		t.Errorf("ParseCond: %v, %v", c, err)
	}
	if !Committed("T1").Or(Aborted("T1")).IsTrue() {
		t.Error("T1 | !T1 should be true")
	}
	if !CondTrue().And(CondFalse()).IsFalse() {
		t.Error("true & false should be false")
	}
	p, err := NewPoly([]Pair{
		{Val: Int(1), Cond: Committed("T9")},
		{Val: Int(2), Cond: Aborted("T9")},
	})
	if err != nil || p.NumPairs() != 2 {
		t.Errorf("NewPoly: %v, %v", p, err)
	}
	merged := Compose([]Alternative{
		{Cond: Committed("T9"), Val: Simple(Bool(true))},
		{Cond: Aborted("T9"), Val: Simple(Bool(true))},
	})
	if _, certain := merged.IsCertain(); !certain {
		t.Errorf("Compose should merge equal alternatives: %v", merged)
	}
}

func TestFacadeExecutor(t *testing.T) {
	tx := MustTxn("T1", "approved = bal >= 50")
	ex := &Executor{}
	res, err := ex.Execute(tx, func(item string) Poly {
		return Uncertain("T9", Simple(Int(500)), Simple(Int(450)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certain {
		t.Errorf("authorization should be certain: %v", res.Writes["approved"])
	}
	node, err := ParseExpr("bal + 1")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ex.EvalQuery(node, func(string) Poly {
		return Uncertain("T9", Simple(Int(1)), Simple(Int(2)))
	})
	if err != nil || q.NumPairs() != 2 {
		t.Errorf("EvalQuery: %v, %v", q, err)
	}
}

func TestFacadeSerialApply(t *testing.T) {
	final, err := SerialApply(map[string]Value{"x": Int(10)}, []HistoryEntry{
		{Txn: MustTxn("T1", "x = x * 3"), Outcome: OutcomeCommitted},
		{Txn: MustTxn("T2", "x = 0"), Outcome: OutcomeAborted},
	})
	if err != nil || !final["x"].Equal(Int(30)) {
		t.Errorf("SerialApply: %v, %v", final, err)
	}
	if OutcomePending.String() != "pending" {
		t.Error("outcome alias broken")
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Sites: []SiteID{"s1", "s2"},
		Net:   NetConfig{Latency: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("x", Simple(Int(5))); err != nil {
		t.Fatal(err)
	}
	h, err := c.Submit("s1", "x = x + 1")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("status = %v", h.Status())
	}
	if v, _ := c.Read("x").IsCertain(); !v.Equal(Int(6)) {
		t.Errorf("x = %v", c.Read("x"))
	}
	var st ClusterStats = c.Stats()
	if st.Committed != 1 {
		t.Errorf("stats = %+v", st)
	}
	qh, err := c.Query("s2", "x * 10")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if p, qerr, done := qh.Result(); !done || qerr != nil {
		t.Errorf("query: %v %v %v", p, qerr, done)
	} else if v, _ := p.IsCertain(); !v.Equal(Int(60)) {
		t.Errorf("query result = %v", p)
	}
	if StatusPending.String() != "pending" || StatusAborted.String() != "aborted" {
		t.Error("status aliases broken")
	}
	if PolicyPolyvalue.String() != "polyvalue" || PolicyBlocking.String() != "blocking" {
		t.Error("policy aliases broken")
	}
}

func TestFacadeWorkload(t *testing.T) {
	g, err := NewWorkload(WorkloadConfig{Kind: WorkloadBank, Items: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseProgram(g.Next()); err != nil {
		t.Errorf("workload txn does not parse: %v", err)
	}
	if WorkloadReservations.String() != "reservations" || WorkloadInventory.String() != "inventory" {
		t.Error("workload kind aliases broken")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	if len(Table1()) != 11 || len(Table2()) != 6 {
		t.Error("table definitions wrong")
	}
	p := ModelParams{U: 10, F: 0.01, I: 10000, R: 0.01, Y: 0, D: 1}
	if p.SteadyState() < 11 || p.SteadyState() > 11.2 {
		t.Errorf("steady state = %g", p.SteadyState())
	}
	r, err := SimRun(SimParams{Model: p, Seed: 1, Warmup: 200, Measure: 1000})
	if err != nil || r.Transactions == 0 {
		t.Errorf("SimRun: %+v, %v", r, err)
	}
	if FormatTable1() == "" {
		t.Error("FormatTable1 empty")
	}
	results, err := RunTable2(1, 100, 500)
	if err != nil || FormatTable2(results) == "" {
		t.Errorf("RunTable2: %v", err)
	}
	if len(Figure1Transitions()) != 7 {
		t.Errorf("Figure 1 has %d edges", len(Figure1Transitions()))
	}
	if _, ok := AsInt(Int(3)); !ok {
		t.Error("AsInt alias broken")
	}
	if _, ok := AsFloat(Float(1.5)); !ok {
		t.Error("AsFloat alias broken")
	}
	var n Value = Nil{}
	if n.Kind().String() != "nil" {
		t.Error("Nil alias broken")
	}
	if !Str("a").Equal(Str("a")) {
		t.Error("Str alias broken")
	}
	g := NewIDGen("x")
	if g.Next() == g.Next() {
		t.Error("IDGen broken")
	}
}

func TestFacadeMinimize(t *testing.T) {
	// Cond is a type alias, so Quine-McCluskey minimization is available
	// directly on facade conditions.
	c, err := ParseCond("T1&T2 | T1&!T2")
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Minimize(); !m.Equal(Committed("T1")) {
		t.Errorf("Minimize = %v", m)
	}
}

func TestFacadeReplication(t *testing.T) {
	if ReplicaName("bal", 2) != "bal_r2" {
		t.Error("ReplicaName wrong")
	}
	c, err := NewCluster(ClusterConfig{
		Sites:       []SiteID{"a", "b", "c", "d"},
		Replication: &ReplicationConfig{K: 3, W: 3, R: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadReplicated("bal", Simple(Int(100))); err != nil {
		t.Fatal(err)
	}
	if c.Placement(ReplicaName("bal", 0)) == c.Placement(ReplicaName("bal", 1)) {
		t.Error("replicas co-located")
	}
	h, err := c.Submit("a", "bal = bal - 1")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatalf("replicated write: %v (%s)", h.Status(), h.Reason())
	}
	for i := 0; i < 3; i++ {
		if got := c.Read(ReplicaName("bal", i)); !got.Equal(Simple(Int(99))) {
			t.Errorf("replica %d = %v, want 99", i, got)
		}
	}
	q, err := c.Query("b", "bal")
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if p, qerr, done := q.Result(); !done || qerr != nil || !p.Equal(Simple(Int(99))) {
		t.Errorf("replicated read: %v done=%v err=%v", p, done, qerr)
	}
}

func TestFacadeObservability(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Sites: []SiteID{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("x", Simple(Int(5))); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Submit("a", "x = x + 1")
	c.RunFor(time.Second)
	if h.Status() != StatusCommitted {
		t.Fatal("setup failed")
	}
	snap := c.Snapshot()
	if v, ok := snap["x"].IsCertain(); !ok || !v.Equal(Int(6)) {
		t.Errorf("snapshot x = %v", snap["x"])
	}
	owner := c.Placement("x")
	info, err := c.SiteInfo(owner)
	if err != nil || info.Items != 1 {
		t.Errorf("SiteInfo = %+v, %v", info, err)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestFacadeQueryCertain(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Sites: []SiteID{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("x", Simple(Int(5))); err != nil {
		t.Fatal(err)
	}
	qh, err := c.QueryCertain("a", "x + 1", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	p, qerr, done := qh.Result()
	if !done || qerr != nil {
		t.Fatalf("QueryCertain: %v %v", qerr, done)
	}
	if v, _ := p.IsCertain(); !v.Equal(Int(6)) {
		t.Errorf("result = %v", p)
	}
	if ErrStillUncertain == nil {
		t.Error("ErrStillUncertain not exported")
	}
}

func TestFacadeTable2Multi(t *testing.T) {
	stats, err := RunTable2Multi(2, 1, 200, 800)
	if err != nil || len(stats) != 6 {
		t.Fatalf("RunTable2Multi: %v, %d rows", err, len(stats))
	}
	if FormatTable2Multi(stats) == "" {
		t.Error("empty format")
	}
}

func TestFacadeExperiment(t *testing.T) {
	rep, err := RunExperiment(Experiment{
		Sites: 2, Items: 4, Txns: 6, Workload: WorkloadBank, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed == 0 || rep.Availability() != 1 {
		t.Errorf("report = %+v", rep)
	}
	var s ExperimentSample
	if len(rep.Series) > 0 {
		s = rep.Series[0]
	}
	_ = s
	if rep.Stats.Committed == 0 {
		t.Error("cluster stats missing")
	}
}
