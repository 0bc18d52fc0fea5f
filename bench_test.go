package polyvalues

// The benchmark harness regenerates every table and figure in the
// paper's evaluation (§4), plus the ablations called out in DESIGN.md:
//
//	BenchmarkTable1Model              — Table 1 (model predictions)
//	BenchmarkTable2Simulation         — Table 2 (simulated vs predicted)
//	BenchmarkFigure1Protocol          — Figure 1 (update-protocol states)
//	BenchmarkAblationBlockingVsPolyvalue — A1 (availability under failure)
//	BenchmarkAblationPolytxnFanout    — A2 (polytransaction compute cost)
//
// Reported custom metrics carry the reproduced numbers; `go test
// -bench=. -benchmem` prints them, and cmd/polytables renders the same
// tables for human reading.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/condition"
	"repro/internal/polytxn"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
)

// BenchmarkTable1Model regenerates Table 1: steady-state polyvalue
// predictions for the paper's 11 parameter rows.  The metric
// max_rel_err_vs_paper is the largest relative deviation from the
// printed values (expected ≈ 0: the table is closed-form arithmetic).
func BenchmarkTable1Model(b *testing.B) {
	rows := Table1()
	var maxErr float64
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			p := row.Params.SteadyState()
			sink += p
			if e := math.Abs(p-row.PaperP) / row.PaperP; e > maxErr {
				maxErr = e
			}
		}
	}
	b.ReportMetric(maxErr, "max_rel_err_vs_paper")
	b.ReportMetric(float64(len(rows)), "rows")
	_ = sink
}

// BenchmarkTable2Simulation regenerates Table 2: the §4.2 discrete-event
// simulation for the paper's 6 parameter rows.  Metrics report the mean
// measured/predicted ratio (paper: measured tracks prediction from at or
// below) and the worst ratio.
func BenchmarkTable2Simulation(b *testing.B) {
	var meanRatio, worstHigh float64
	runs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := RunTable2(int64(1000+i), 1500, 15000)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range results {
			ratio := r.Measured.MeanPolyvalues / r.Row.PaperPredicted
			sum += ratio
			if ratio > worstHigh {
				worstHigh = ratio
			}
		}
		meanRatio += sum / float64(len(results))
		runs++
	}
	b.ReportMetric(meanRatio/float64(runs), "measured_over_predicted")
	b.ReportMetric(worstHigh, "worst_ratio")
}

// BenchmarkFigure1Protocol regenerates Figure 1 by driving every edge of
// the participant state machine (idle→compute→wait with complete, abort
// and timeout exits) once per iteration, confirming action/state pairs.
func BenchmarkFigure1Protocol(b *testing.B) {
	transitions := Figure1Transitions()
	b.ReportMetric(float64(len(transitions)), "edges")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range transitions {
			p := protocol.NewParticipant("T1", "c")
			switch tr.From {
			case protocol.StateCompute:
				mustStep(b, p, protocol.EvPrepare)
			case protocol.StateWait:
				mustStep(b, p, protocol.EvPrepare)
				mustStep(b, p, protocol.EvComputed)
			}
			act, err := p.Transition(tr.Event)
			if err != nil || act != tr.Action || p.State() != tr.To {
				b.Fatalf("edge %v --%v--> broken: %v %v", tr.From, tr.Event, act, err)
			}
		}
	}
}

func mustStep(b *testing.B, p *protocol.Participant, ev protocol.PEvent) {
	b.Helper()
	if _, err := p.Transition(ev); err != nil {
		b.Fatal(err)
	}
}

// ablationCluster runs the A1 scenario under one policy: a coordinator
// crashes at the critical moment of a cross-site transfer, then K
// follow-up transactions target the affected items while the failure is
// outstanding.  Returns the fraction of follow-ups that committed.
func ablationCluster(b *testing.B, policy Policy, followUps int) float64 {
	c, err := NewCluster(ClusterConfig{
		Sites:  []SiteID{"A", "B", "C"},
		Net:    NetConfig{Latency: 10 * time.Millisecond},
		Policy: policy,
		Placement: func(item string) SiteID {
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
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("bsrc", Simple(Int(100000))); err != nil {
		b.Fatal(err)
	}
	if err := c.Load("cdst", Simple(Int(0))); err != nil {
		b.Fatal(err)
	}
	c.ArmCrashBeforeDecision("A")
	if _, err := c.Submit("A", "bsrc = bsrc - 40; cdst = cdst + 40"); err != nil {
		b.Fatal(err)
	}
	c.RunFor(2 * time.Second)

	committed := 0
	for i := 0; i < followUps; i++ {
		h, err := c.Submit("B", "bsrc = bsrc - 1")
		if err != nil {
			b.Fatal(err)
		}
		c.RunFor(2 * time.Second)
		if h.Status() == StatusCommitted {
			committed++
		}
	}
	return float64(committed) / float64(followUps)
}

// BenchmarkAblationBlockingVsPolyvalue measures the availability win of
// polyvalues over blocking 2PC while a coordinator failure leaves
// participants in doubt: the fraction of follow-up transactions on the
// affected items that commit promptly (paper's core claim: 1.0 for
// polyvalues, 0.0 for blocking).
func BenchmarkAblationBlockingVsPolyvalue(b *testing.B) {
	const followUps = 5
	var polyFrac, blockFrac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		polyFrac = ablationCluster(b, PolicyPolyvalue, followUps)
		blockFrac = ablationCluster(b, PolicyBlocking, followUps)
	}
	b.ReportMetric(polyFrac, "polyvalue_commit_frac")
	b.ReportMetric(blockFrac, "blocking_commit_frac")
	if polyFrac <= blockFrac {
		b.Fatalf("polyvalue availability %g not above blocking %g", polyFrac, blockFrac)
	}
}

// BenchmarkAblationPolytxnFanout measures §3.2's compute cost as the
// number of independently-uncertain inputs grows (alternatives double
// per input) — the cost DESIGN.md's A2 ablation quantifies and the
// paper's §4 analysis argues stays small because polyvalue populations
// stay small.
func BenchmarkAblationPolytxnFanout(b *testing.B) {
	for _, uncertain := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("uncertain=%d", uncertain), func(b *testing.B) {
			store := map[string]Poly{}
			src := "out = 0"
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("in%d", i)
				if i < uncertain {
					store[name] = Uncertain(TID(fmt.Sprintf("T%d", i)),
						Simple(Int(int64(i+1))), Simple(Int(0)))
				} else {
					store[name] = Simple(Int(int64(i + 1)))
				}
				src += " + " + name
			}
			tx := MustTxn("TX", "out = "+src[len("out = 0 + "):])
			ex := &Executor{}
			lookup := func(item string) Poly {
				if p, ok := store[item]; ok {
					return p
				}
				return Simple(Nil{})
			}
			b.ResetTimer()
			var alts int
			for i := 0; i < b.N; i++ {
				res, err := ex.Execute(tx, lookup)
				if err != nil {
					b.Fatal(err)
				}
				alts = res.Alternatives
			}
			b.ReportMetric(float64(alts), "alternatives")
		})
	}
}

// BenchmarkAblationRelaxedConsistency contrasts the paper's §2.3
// baseline (arbitrary local decisions) with polyvalues on the same
// failure schedule: both keep processing, but the arbitrary policy
// violates atomicity — the bank workload's conservation invariant breaks
// — while polyvalues never do.  Metrics: conservation indicator (1 =
// money conserved) per policy.
func BenchmarkAblationRelaxedConsistency(b *testing.B) {
	run := func(p Policy, seed int64) ExperimentReport {
		rep, err := RunExperiment(Experiment{
			Sites: 3, Items: 8, Txns: 60,
			Workload: WorkloadBank, Policy: p,
			CrashEvery: 10, RepairAfter: time.Second,
			Gap: 100 * time.Millisecond, Seed: seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	arbViolations, polyViolations, trials := 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arb := run(PolicyArbitrary, int64(i))
		poly := run(PolicyPolyvalue, int64(i))
		trials++
		if !arb.ConservationOK {
			arbViolations++
		}
		if !poly.ConservationOK {
			polyViolations++
		}
	}
	b.ReportMetric(1-float64(arbViolations)/float64(trials), "arbitrary_conserved")
	b.ReportMetric(1-float64(polyViolations)/float64(trials), "polyvalue_conserved")
	if polyViolations > 0 {
		b.Fatal("polyvalue policy violated conservation")
	}
}

// BenchmarkClusterAvailabilityHarness runs the E3 and E5 experiments:
// the live protocol under a crash schedule, reporting availability
// during failure windows and the polyvalue population peak — the
// cluster-level validation of the paper's availability claim (cf. the §4
// analysis, which this complements).  E3 is the crash-every=15 row; E5
// is all three, availability under increasing failure frequency.
func BenchmarkClusterAvailabilityHarness(b *testing.B) {
	for _, k := range []int{8, 15, 30} {
		b.Run(fmt.Sprintf("crash-every=%d", k), func(b *testing.B) {
			run := func(p Policy, seed int64) ExperimentReport {
				rep, err := RunExperiment(Experiment{
					Sites: 3, Items: 6, Txns: 60,
					Workload: WorkloadBank, Policy: p,
					CrashEvery: k, RepairAfter: time.Second,
					Gap: 100 * time.Millisecond, Seed: seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				return rep
			}
			var poly, block ExperimentReport
			for i := 0; i < b.N; i++ {
				poly, block = run(PolicyPolyvalue, int64(i)), run(PolicyBlocking, int64(i))
			}
			b.ReportMetric(poly.Availability(), "polyvalue_availability")
			b.ReportMetric(block.Availability(), "blocking_availability")
			b.ReportMetric(float64(poly.PeakPolys), "peak_polyvalues")
			b.ReportMetric(float64(poly.FinalPolys), "final_polyvalues")
		})
	}
}

// BenchmarkBurstDecayTransient regenerates the E4 experiment: the §4.1
// stability claim ("a serious failure causing the introduction of many
// polyvalues does not cause the number of polyvalues to grow without
// limit").  A burst of 500 polyvalues is injected and the simulated
// decay is compared against the model transient; the metric is the mean
// relative error over the decay horizon.
func BenchmarkBurstDecayTransient(b *testing.B) {
	m := ModelParams{U: 10, F: 0.01, I: 10000, R: 0.01, Y: 0, D: 1}
	const p0 = 500
	var meanErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := SimRun(SimParams{
			Model: m, Seed: int64(i), Warmup: 0.001, Measure: 400,
			InitialPolyvalues: p0, SampleEvery: 50,
		})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		n := 0
		for _, s := range r.Series {
			if s.T == 0 {
				continue
			}
			want := m.Transient(p0, s.T)
			sum += math.Abs(float64(s.P)-want) / want
			n++
		}
		meanErr = sum / float64(n)
	}
	b.ReportMetric(meanErr, "mean_rel_err_vs_transient")
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the core data structures and the runtime
// ---------------------------------------------------------------------

// BenchmarkConditionAlgebra measures canonical SOP operations on the
// condition shapes polyvalues actually produce.
func BenchmarkConditionAlgebra(b *testing.B) {
	a := condition.MustParse("T1&!T2 | T3")
	c := condition.MustParse("!T1&T4 | T2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := a.And(c)
		e := a.Or(c)
		_ = d.Assign("T1", true)
		_ = e.Not()
	}
}

// BenchmarkPolyvalueUncertainResolve measures the §3.1 install and §3.3
// reduce path for one item.
func BenchmarkPolyvalueUncertainResolve(b *testing.B) {
	old := Simple(Int(100))
	for i := 0; i < b.N; i++ {
		p := Uncertain("T1", Simple(Int(60)), old)
		p = Uncertain("T2", Simple(Int(50)), p)
		p = p.Resolve("T1", true)
		p = p.Resolve("T2", false)
		if _, certain := p.IsCertain(); !certain {
			b.Fatal("did not resolve")
		}
	}
}

// BenchmarkClusterCommit measures one distributed commit (three sites,
// two items) end to end on the simulated network.
func BenchmarkClusterCommit(b *testing.B) {
	c, err := NewCluster(ClusterConfig{
		Sites: []SiteID{"A", "B", "C"},
		Net:   NetConfig{Latency: time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Load("x", Simple(Int(0))); err != nil {
		b.Fatal(err)
	}
	if err := c.Load("y", Simple(Int(0))); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := c.Submit("A", "x = x + 1; y = y + 1")
		if err != nil {
			b.Fatal(err)
		}
		c.RunFor(time.Second)
		if h.Status() != StatusCommitted {
			b.Fatalf("status = %v (%s)", h.Status(), h.Reason())
		}
	}
}

// BenchmarkClusterScaling measures one distributed commit as the site
// count (and so the participant fan-out) grows.
func BenchmarkClusterScaling(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			sites := make([]SiteID, n)
			for i := range sites {
				sites[i] = SiteID(fmt.Sprintf("s%d", i))
			}
			c, err := NewCluster(ClusterConfig{
				Sites: sites,
				Net:   NetConfig{Latency: time.Millisecond},
				Placement: func(item string) SiteID {
					// One item per site: itemK on site K.
					return sites[int(item[len(item)-1]-'0')%n]
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			src := ""
			for i := 0; i < n && i < 8; i++ {
				if i > 0 {
					src += "; "
				}
				src += fmt.Sprintf("item%d = item%d + 1", i, i)
			}
			for i := 0; i < n && i < 8; i++ {
				if err := c.Load(fmt.Sprintf("item%d", i), Simple(Int(0))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := c.Submit(sites[0], src)
				if err != nil {
					b.Fatal(err)
				}
				c.RunFor(time.Second)
				if h.Status() != StatusCommitted {
					b.Fatalf("status = %v (%s)", h.Status(), h.Reason())
				}
			}
		})
	}
}

// BenchmarkWALAppendRecover measures the storage engine's durability
// path: append one put and replay a 1000-record log.
func BenchmarkWALAppendRecover(b *testing.B) {
	seed := storage.NewStore()
	for i := 0; i < 1000; i++ {
		if err := seed.Put(fmt.Sprintf("item%d", i%100), Simple(Int(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	log := seed.WALBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := storage.Recover(log)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put("x", Simple(Int(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(log)))
}

// BenchmarkSimulation measures the §4.2 simulator's event throughput at
// the paper's main Table 2 operating point.
func BenchmarkSimulation(b *testing.B) {
	p := SimParams{Model: ModelParams{U: 10, F: 0.01, I: 10000, R: 0.01, Y: 0, D: 1},
		Warmup: 100, Measure: 2000}
	var txns int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		r, err := SimRun(p)
		if err != nil {
			b.Fatal(err)
		}
		txns += r.Transactions
	}
	b.ReportMetric(float64(txns)/float64(b.N), "txns/run")
}

// BenchmarkPolytxnQueryUncertain measures §3.4 uncertain-output query
// evaluation.
func BenchmarkPolytxnQueryUncertain(b *testing.B) {
	seats := Uncertain("T1", Simple(Int(12)), Simple(Int(13)))
	node, err := ParseExpr("150 - seats")
	if err != nil {
		b.Fatal(err)
	}
	ex := &polytxn.Executor{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ex.EvalQuery(node, func(string) Poly { return seats })
		if err != nil {
			b.Fatal(err)
		}
		if p.NumPairs() != 2 {
			b.Fatal("wrong fan-out")
		}
	}
}

// BenchmarkWireCodec measures the binary message codec used by the TCP
// transport: frame encode and decode across three representative shapes
// (B/op shows the bounded decode allocations).
func BenchmarkWireCodec(b *testing.B) {
	poly := polyvalue.Uncertain("T1",
		polyvalue.Simple(value.Int(70)),
		polyvalue.Simple(value.Int(100)))
	nested := polyvalue.Uncertain("T2", poly, polyvalue.Simple(value.Int(0)))

	largeValues := map[string]polyvalue.Poly{}
	var largeItems []string
	for i := 0; i < 32; i++ {
		item := fmt.Sprintf("acct%02d", i)
		largeItems = append(largeItems, item)
		largeValues[item] = nested
	}

	cases := []struct {
		name string
		msg  protocol.Message
	}{
		{"small", protocol.Message{
			Kind: protocol.MsgOutcomeAck, TID: "t42", From: "A", To: "B",
		}},
		{"typical", protocol.Message{
			Kind: protocol.MsgReadRep, TID: "t42", From: "B", To: "A",
			Items: []string{"acct1", "acct2"},
			Values: map[string]polyvalue.Poly{
				"acct1": polyvalue.Simple(value.Int(100)),
				"acct2": poly,
			},
		}},
		{"large", protocol.Message{
			Kind: protocol.MsgPrepare, TID: "t42", From: "A", To: "C",
			Items:   largeItems,
			Values:  largeValues,
			Program: "acct00 = acct00 - 30 if acct00 >= 30; acct01 = acct01 + 30 if acct00 >= 30",
		}},
	}
	for _, tc := range cases {
		frame := wire.EncodeFrame(tc.msg)
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportMetric(float64(len(frame)), "frame_bytes")
			buf := make([]byte, 0, len(frame))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = wire.AppendFrame(buf[:0], tc.msg)
			}
			_ = buf
		})
		b.Run("decode/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := wire.DecodeFrame(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
