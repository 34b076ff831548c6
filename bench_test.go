package nprt

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablation benches DESIGN.md calls out. Each
// benchmark regenerates its artifact through internal/experiments and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Benchmark hyper-period counts default to
// a fast setting; set -paperhp=10000 for the paper's full 10K hyper-periods.

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"nprt/internal/cumulative"
	"nprt/internal/esr"
	"nprt/internal/experiments"
	"nprt/internal/ilp"
	"nprt/internal/offline"
	"nprt/internal/sim"
	"nprt/internal/workload"
)

var paperHP = flag.Int("paperhp", 200, "hyper-periods per simulation in paper benchmarks (10000 = paper scale)")

func benchCfg() experiments.Config {
	return experiments.Config{Hyperperiods: *paperHP, Seed: 1}
}

// BenchmarkTable1 regenerates Table I (characteristics + Theorem-1
// verdicts for all 14 cases).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 14 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkTable2 regenerates Table II (the independent-error comparison)
// and reports the normalized mean errors as custom metrics.
func BenchmarkTable2(b *testing.B) {
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Normalized["EDF+ESR"], "norm-esr")
		b.ReportMetric(last.Normalized["ILP+OA"], "norm-ilp")
		b.ReportMetric(last.Normalized["ILP+Post+OA"], "norm-post")
		b.ReportMetric(last.Normalized["Flipped EDF"], "norm-flip")
		b.ReportMetric(last.AvgMissPct, "accurate-miss-%")
	}
}

// BenchmarkFig3 regenerates Figure 3 (mean error vs utilization sweep).
func BenchmarkFig3(b *testing.B) {
	var last *experiments.FigResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		pts := last.Series["Flipped EDF"]
		b.ReportMetric(pts[0].MeanError, "flip-err-lowU")
		b.ReportMetric(pts[len(pts)-1].MeanError, "flip-err-highU")
	}
}

// BenchmarkTable3 regenerates Table III (cumulative-error stress tests).
func BenchmarkTable3(b *testing.B) {
	var feasible int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		feasible = 0
		for _, r := range rows {
			if r.DPFeasible {
				feasible++
			}
		}
	}
	b.ReportMetric(float64(feasible), "dp-feasible-cases")
}

// BenchmarkFig4 regenerates Figure 4 (DP(C) candidate counts with and
// without pruning).
func BenchmarkFig4(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		maxW, maxWo := 0, 0
		for _, v := range last.WithPruning {
			if v > maxW {
				maxW = v
			}
		}
		for _, v := range last.WithoutPruning {
			if v > maxWo {
				maxWo = v
			}
		}
		b.ReportMetric(float64(maxW), "max-frontier-pruned")
		b.ReportMetric(float64(maxWo), "max-frontier-unpruned")
	}
}

// BenchmarkTable4 regenerates Table IV (Newton–Raphson task profiles from
// real kernel characterization).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		infos, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if len(infos) != 3 {
			b.Fatal("wrong task count")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 (prototype: real Newton–Raphson
// execution under the scheduling methods across a utilization sweep).
func BenchmarkFig5(b *testing.B) {
	var last *experiments.FigResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		sum := func(m string) (s float64) {
			for _, p := range last.Series[m] {
				s += p.MeanError
			}
			return
		}
		b.ReportMetric(sum("EDF-Imprecise"), "imprecise-err-sum")
		b.ReportMetric(sum("ILP+Post+OA"), "ilppost-err-sum")
	}
}

// --- Ablations ---------------------------------------------------------------

func mustCaseSet(b *testing.B, name string) *TaskSet {
	b.Helper()
	c, err := workload.CaseByName(name)
	if err != nil {
		b.Fatal(err)
	}
	s, err := c.Set()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationSlackKinds compares EDF+ESR with each slack source
// disabled (individual / idle / inter-job) on the Rnd9 case.
func BenchmarkAblationSlackKinds(b *testing.B) {
	s := mustCaseSet(b, "Rnd9")
	variants := []struct {
		name string
		mk   func() *esr.Policy
	}{
		{"full", func() *esr.Policy { return esr.New() }},
		{"no-individual", func() *esr.Policy { return &esr.Policy{DisableIndividual: true, Label: "ESR-noind"} }},
		{"no-idle", func() *esr.Policy { return &esr.Policy{DisableIdle: true, Label: "ESR-noidle"} }},
		{"no-inter", func() *esr.Policy { return &esr.Policy{DisableInter: true, Label: "ESR-nointer"} }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				res, e := sim.Run(s, v.mk(), sim.Config{
					Hyperperiods: *paperHP,
					Sampler:      sim.NewRandomSampler(s, 1),
				})
				if e != nil {
					b.Fatal(e)
				}
				err = res.MeanError()
			}
			b.ReportMetric(err, "mean-error")
		})
	}
}

// BenchmarkAblationPostRules compares ILP+Post+OA with each §IV-B rewrite
// disabled on the Rnd11 case.
func BenchmarkAblationPostRules(b *testing.B) {
	s := mustCaseSet(b, "Rnd11")
	base, err := offline.BuildILPSchedule(s)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opt  offline.PostProcessOptions
	}{
		{"full", offline.PostProcessOptions{}},
		{"no-postpone", offline.PostProcessOptions{DisablePostpone: true}},
		{"no-samemode-swap", offline.PostProcessOptions{DisableSameModeSwap: true}},
		{"no-imprecise-later", offline.PostProcessOptions{DisableImpreciseLater: true}},
		{"none", offline.PostProcessOptions{DisablePostpone: true, DisableSameModeSwap: true, DisableImpreciseLater: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var errv float64
			for i := 0; i < b.N; i++ {
				post, _ := offline.PostProcess(base, v.opt)
				p := offline.NewOA("ablate", post)
				res, e := sim.Run(s, p, sim.Config{
					Hyperperiods: *paperHP,
					Sampler:      sim.NewRandomSampler(s, 1),
				})
				if e != nil {
					b.Fatal(e)
				}
				errv = res.MeanError()
			}
			b.ReportMetric(errv, "mean-error")
		})
	}
}

// BenchmarkThetaSweep measures EDF+ESR(C)'s error-violation rate across θ
// values on the Rnd8 case.
func BenchmarkThetaSweep(b *testing.B) {
	s := mustCaseSet(b, "Rnd8")
	for _, theta := range []float64{0.1, 0.25, 0.5, 1.0, 2.0} {
		b.Run(formatTheta(theta), func(b *testing.B) {
			var viol float64
			for i := 0; i < b.N; i++ {
				p := &cumulative.ESRPolicy{Theta: theta}
				if _, e := sim.Run(s, p, sim.Config{
					Hyperperiods: *paperHP,
					Sampler:      sim.NewRandomSampler(s, 1),
				}); e != nil {
					b.Fatal(e)
				}
				viol = p.ViolationPercent()
			}
			b.ReportMetric(viol, "violation-%")
		})
	}
}

func formatTheta(v float64) string {
	switch {
	case v < 0.2:
		return "theta-0.1"
	case v < 0.3:
		return "theta-0.25"
	case v < 0.7:
		return "theta-0.5"
	case v < 1.5:
		return "theta-1.0"
	default:
		return "theta-2.0"
	}
}

// BenchmarkEngineDispatch measures the raw simulator dispatch rate on the
// paper's largest case (Rnd13, 163 jobs per hyper-period) and on synthetic
// stress sets whose pending queue averages n/2 deep. Those rows run
// EDF-Imprecise, which only ever dispatches the EDF head; the mix row runs
// plan-paper's seven methods on Rnd13 (EDF-Accurate with DropLate), so the
// ESR slack queries and the offline+OA commitments are timed too. The
// pending set is a linear scan, so the stress rows grow with the square of
// n. Run with -benchmem to see the allocation win from the pooled run
// state.
func BenchmarkEngineDispatch(b *testing.B) {
	type bcase struct {
		name     string
		set      *TaskSet
		hp       int
		policies []string // each op runs every policy once
	}
	edfImprecise := []string{"EDF-Imprecise"}
	cases := []bcase{{name: "Rnd13", set: mustCaseSet(b, "Rnd13"), hp: 10, policies: edfImprecise}}
	for _, n := range []int{50, 200, 500, 1000} {
		s, err := workload.SyntheticStress(n)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, bcase{name: fmt.Sprintf("stress%d", n), set: s, hp: 5, policies: edfImprecise})
	}
	cases = append(cases, bcase{name: "mix", set: mustCaseSet(b, "Rnd13"), hp: 10, policies: tableIMethods})
	for _, c := range cases {
		policies := make([]sim.Policy, len(c.policies))
		for i, m := range c.policies {
			p, err := buildDiffPolicy(m, c.set)
			if err != nil {
				b.Fatal(err)
			}
			policies[i] = p
		}
		b.Run(c.name, func(b *testing.B) {
			sampler := sim.NewRandomSampler(c.set, 1)
			var jobs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs = 0
				for j, p := range policies {
					res, err := sim.Run(c.set, p, sim.Config{
						Hyperperiods: c.hp,
						Sampler:      sampler,
						DropLate:     c.policies[j] == "EDF-Accurate",
					})
					if err != nil {
						b.Fatal(err)
					}
					jobs += res.Jobs
				}
			}
			b.ReportMetric(float64(jobs), "jobs/op")
		})
	}
}

// BenchmarkILPOffline measures the offline mode-ILP solver stack on the
// paper's four largest cases under a fixed branch-and-bound node budget.
// Three stacks:
//
//   - legacy: the pre-overhaul solver — bounds spelled as dense constraint
//     rows in both the base model and the branching, no primal heuristic,
//     serial;
//   - new: native variable bounds, pooled tableaus, root heuristic, serial;
//   - parallel: new with the LP-relaxation worker pool.
//
// The node budget makes every stack explore the same number of nodes
// (bit-identical search on these budget-limited cases), so ns/op compares
// pure per-node solver throughput.
func BenchmarkILPOffline(b *testing.B) {
	const nodeBudget = 200
	for _, name := range []string{"Rnd10", "Rnd11", "Rnd12", "Rnd13"} {
		s := mustCaseSet(b, name)
		order, err := offline.EDFOrder(s, Deepest)
		if err != nil {
			b.Fatal(err)
		}
		stacks := []struct {
			name  string
			build func() *ilp.Problem
			opt   ilp.Options
		}{
			{"legacy", func() *ilp.Problem { return offline.BuildModeILPRowBounds(s, order) },
				ilp.Options{MaxNodes: nodeBudget, DenseRowBounds: true, DisableHeuristic: true}},
			{"new", func() *ilp.Problem { return offline.BuildModeILP(s, order) },
				ilp.Options{MaxNodes: nodeBudget}},
			{"parallel", func() *ilp.Problem { return offline.BuildModeILP(s, order) },
				ilp.Options{MaxNodes: nodeBudget, Workers: runtime.NumCPU()}},
		}
		for _, st := range stacks {
			b.Run(name+"/"+st.name, func(b *testing.B) {
				p := st.build()
				b.ResetTimer()
				var nodes, pivots int
				for i := 0; i < b.N; i++ {
					sol, err := ilp.Solve(p, st.opt)
					if err != nil {
						b.Fatal(err)
					}
					nodes, pivots = sol.Nodes, sol.Pivots
				}
				b.ReportMetric(float64(nodes), "nodes")
				b.ReportMetric(float64(pivots), "pivots/op")
			})
		}
	}
}

// BenchmarkOptimizeModes measures the exact offline optimizer on the
// largest case.
func BenchmarkOptimizeModes(b *testing.B) {
	s := mustCaseSet(b, "Rnd13")
	order, err := offline.EDFOrder(s, Imprecise)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := offline.OptimizeModes(s, order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1 measures the pseudo-polynomial schedulability test on
// the largest case.
func BenchmarkTheorem1(b *testing.B) {
	s := mustCaseSet(b, "Rnd13")
	for i := 0; i < b.N; i++ {
		CheckSchedulability(s, Imprecise)
	}
}
