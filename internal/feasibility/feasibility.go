// Package feasibility implements the non-preemptive schedulability theory
// the paper builds on: Theorem 1 of Jeffay, Stanat and Martel (RTSS 1991)
// for periodic tasks on a uniprocessor, the per-condition scaling factors γ
// of §III, and the individual slack ψ_{i,j} = (γ_min − 1)·x_i that EDF+ESR
// reclaims online.
//
// Condition (1): Σ w_i/p_i ≤ 1.
// Condition (2): for every task i > 1 (tasks sorted by non-decreasing
// period) and every integer L with p_1 < L < p_i,
//
//	w_i + Σ_{j<i} ⌊(L−1)/p_j⌋ · w_j ≤ L.
//
// The check is exact integer arithmetic. Condition 2 is evaluated once per
// distinct period on the step points of one shared demand curve (see
// classscan.go): O(S log S) for the S step points below p_n, plus one pass
// over them per row for the γ_i^L family.
package feasibility

import (
	"fmt"
	"math"

	"nprt/internal/task"
)

// Mode selects which WCET column the analysis uses.
func wcet(t *task.Task, m task.Mode) task.Time { return t.WCET(m) }

// Violation describes one failed Theorem-1 condition.
type Violation struct {
	Condition int       // 1 or 2
	TaskIndex int       // i (0-based, period-sorted) for condition 2; -1 for condition 1
	L         task.Time // interval length for condition 2; 0 for condition 1
	Demand    task.Time // left-hand side of condition 2, 0 for condition 1
	Util      float64   // utilization for condition 1
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	if v.Condition == 1 {
		return fmt.Sprintf("condition 1: utilization %.4f > 1", v.Util)
	}
	return fmt.Sprintf("condition 2: task %d, L=%d, demand %d > L", v.TaskIndex, v.L, v.Demand)
}

// Report is the full result of a Theorem-1 check.
type Report struct {
	Schedulable bool
	Utilization float64
	Violations  []Violation // empty when schedulable; first few when not

	// GammaUtil is γ from condition 1 (1/utilization); GammaMin is the
	// minimum over γ and every γ_i^L. When the set is schedulable in the
	// analyzed mode, GammaMin >= 1.
	GammaUtil float64
	GammaMin  float64

	// ArgMin records which condition produced GammaMin (diagnostics).
	ArgMinTask int
	ArgMinL    task.Time
}

// Summary is the part of a Report that admission screening reads: the
// verdict, condition 1's utilization and γ_min.
type Summary struct {
	Schedulable bool
	Utilization float64
	GammaMin    float64
}

// Summary returns the report's screening summary.
func (r Report) Summary() Summary {
	return Summary{Schedulable: r.Schedulable, Utilization: r.Utilization, GammaMin: r.GammaMin}
}

// maxViolationsKept bounds Report.Violations so a wildly infeasible set does
// not allocate one record per L.
const maxViolationsKept = 16

// Check runs Theorem 1 on the set with every job in the given mode and also
// computes the scaling factors γ of §III. Tasks in the set are already
// period-sorted by construction (task.New).
func Check(s *task.Set, m task.Mode) Report {
	var cv curve
	cv.load(s, m, m)
	return cv.report(s, m, 0)
}

// checkExhaustive is the original unit-stride Theorem-1 scan over every
// integer L in (p_1, p_i). It is retained solely as the oracle for the
// differential tests proving the step-point Check identical.
func checkExhaustive(s *task.Set, m task.Mode) Report {
	n := s.Len()
	rep := Report{Schedulable: true, ArgMinTask: -1}

	u := 0.0
	for i := 0; i < n; i++ {
		t := s.Task(i)
		u += float64(wcet(t, m)) / float64(t.Period)
	}
	rep.Utilization = u
	rep.GammaUtil = math.Inf(1)
	if u > 0 {
		rep.GammaUtil = 1 / u
	}
	rep.GammaMin = rep.GammaUtil
	if u > 1 {
		rep.Schedulable = false
		rep.Violations = append(rep.Violations, Violation{Condition: 1, TaskIndex: -1, Util: u})
	}

	p1 := s.Task(0).Period
	for i := 1; i < n; i++ {
		ti := s.Task(i)
		for L := p1 + 1; L < ti.Period; L++ {
			demand := wcet(ti, m)
			for j := 0; j < i; j++ {
				tj := s.Task(j)
				demand += (L - 1) / tj.Period * wcet(tj, m)
			}
			if demand > L {
				rep.Schedulable = false
				if len(rep.Violations) < maxViolationsKept {
					rep.Violations = append(rep.Violations,
						Violation{Condition: 2, TaskIndex: i, L: L, Demand: demand})
				}
			}
			if demand > 0 {
				if g := float64(L) / float64(demand); g < rep.GammaMin {
					rep.GammaMin = g
					rep.ArgMinTask = i
					rep.ArgMinL = L
				}
			}
		}
	}
	return rep
}

// Schedulable is a convenience wrapper returning only the verdict.
func Schedulable(s *task.Set, m task.Mode) bool {
	return Check(s, m).Schedulable
}

// Profiles runs Theorem 1 in both admission profiles: every job accurate,
// and every job at its deepest imprecise level — the profile whose pass
// underwrites the EDF+ESR zero-miss guarantee. The runtime admission
// controller (internal/runtime) screens every Add/Remove against this pair,
// read off its persistent curve through Incremental.Reports: accurate-pass
// means full admission, deepest-only-pass means admission in a degraded
// (imprecision-reliant) regime, deepest-fail means rejection.
func Profiles(s *task.Set) (accurate, deepest Report) {
	var cv curve
	cv.load(s, task.Accurate, task.Deepest)
	return cv.report(s, task.Accurate, 0), cv.report(s, task.Deepest, 1)
}

// FastSchedulable evaluates Theorem 1 for the verdict alone: condition 1,
// then condition 2 one period class at a time — every row of a class shares
// the demand curve's minimum slack, and the class's largest WCET decides
// it — with no per-row γ scan. Equivalence with Check is fuzzed in the
// package tests.
func FastSchedulable(s *task.Set, m task.Mode) bool {
	u := 0.0
	for i := 0; i < s.Len(); i++ {
		t := s.Task(i)
		u += float64(wcet(t, m)) / float64(t.Period)
	}
	if u > 1 {
		return false
	}
	var cv curve
	cv.load(s, m, m)
	for i := range cv.classes {
		if !cv.classes[i].pass(0) {
			return false
		}
	}
	return true
}

// IndividualSlacks returns ψ_i = (γ_min − 1)·x_i for every task, computed
// from the deepest-imprecision analysis: the slack every job intrinsically
// owns because the schedulability conditions hold with margin γ_min. For
// tasks with the paper's single imprecision level this is exactly the
// imprecise-mode analysis. When the set is not schedulable even at the
// deepest levels (γ_min < 1) all slacks are zero — EDF+ESR then has no
// offline guarantee and runs purely best-effort.
func IndividualSlacks(s *task.Set) []task.Time {
	rep := Check(s, task.Deepest)
	out := make([]task.Time, s.Len())
	if rep.GammaMin <= 1 {
		return out
	}
	margin := rep.GammaMin - 1
	for i := 0; i < s.Len(); i++ {
		out[i] = task.Time(margin * float64(s.Task(i).WCET(task.Deepest)))
	}
	return out
}

// DemandCurve returns, for diagnostic and test purposes, the condition-2
// demand of task i at each L in (p_1, p_i) as parallel slices. Task i must
// have index >= 1.
func DemandCurve(s *task.Set, i int, m task.Mode) (ls []task.Time, demands []task.Time) {
	if i <= 0 || i >= s.Len() {
		return nil, nil
	}
	var cv curve
	cv.load(s, m, m)
	ti := s.Task(i)
	wi := wcet(ti, m)
	var d task.Time // D(L): the demand of the shorter periods
	si := 0
	for L := s.Task(0).Period + 1; L < ti.Period; L++ {
		for ; si < len(cv.steps) && cv.steps[si].L <= L; si++ {
			d = cv.steps[si].d[0]
		}
		ls = append(ls, L)
		demands = append(demands, wi+d)
	}
	return ls, demands
}
