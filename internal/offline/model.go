package offline

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nprt/internal/ilp"
	"nprt/internal/lp"
	"nprt/internal/task"
)

// BuildModeILP builds the §IV-A integer program for a fixed execution
// order: binary y_k (1 = imprecise) and continuous start s_k per job,
//
//	minimize   Σ e_k · y_k
//	subject to s_k ≥ r_k
//	           f̂_k = s_k + w_k + (x_k − w_k)·y_k ≤ d_k
//	           s_{k+1} ≥ f̂_k                      (non-preemptive chain)
//	           y_k ∈ {0, 1}.
//
// Variable layout: y_0..y_{m-1}, then s_0..s_{m-1}.
func BuildModeILP(s *task.Set, order []task.Job) *ilp.Problem {
	m := len(order)
	p := ilp.NewProblem(2 * m)
	for k, j := range order {
		tk := s.Task(j.TaskID)
		e := tk.MeanError()
		p.LP.C[k] = e
		p.SetBinary(k)

		w := float64(tk.WCETAccurate)
		x := float64(tk.WCETImprecise)
		sVar := m + k

		// s_k >= r_k (native lower bound; no tableau row)
		p.LP.SetBounds(sVar, float64(j.Release), math.Inf(1))
		// s_k + w + (x-w) y_k <= d_k
		coef := make([]float64, 2*m)
		coef[sVar] = 1
		coef[k] = x - w
		p.LP.AddConstraint(coef, lp.LE, float64(j.Deadline)-w, fmt.Sprintf("dl%d", k))
		// chain: s_{k+1} - s_k - (x-w) y_k >= w
		if k+1 < m {
			chain := make([]float64, 2*m)
			chain[m+k+1] = 1
			chain[sVar] = -1
			chain[k] = -(x - w)
			p.LP.AddConstraint(chain, lp.GE, w, fmt.Sprintf("chain%d", k))
		}
	}
	return p
}

// SolveModeILP solves the order-fixed MILP and lays out the schedule at
// ASAP starts. It exists to honour the paper's ILP formulation end-to-end;
// OptimizeModes computes the same optimum faster and is the default in the
// experiment harness (results are cross-checked in tests). maxNodes and
// timeLimit bound the branch-and-bound (zero means solver defaults).
func SolveModeILP(s *task.Set, order []task.Job, maxNodes int, timeLimit time.Duration) (*Schedule, error) {
	return SolveModeILPOpt(s, order, ilp.Options{MaxNodes: maxNodes, TimeLimit: timeLimit})
}

// SolveModeILPOpt is SolveModeILP with full control over the
// branch-and-bound (worker pool, budgets, heuristic).
func SolveModeILPOpt(s *task.Set, order []task.Job, opt ilp.Options) (*Schedule, error) {
	p := BuildModeILP(s, order)
	sol, err := ilp.Solve(p, opt)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case ilp.Optimal, ilp.Feasible:
	case ilp.Infeasible:
		return nil, ErrInfeasible
	default:
		return nil, fmt.Errorf("offline: mode ILP terminated %v without incumbent", sol.Status)
	}
	modes := make([]task.Mode, len(order))
	for k := range order {
		if sol.X[k] > 0.5 {
			modes[k] = task.Imprecise
		} else {
			modes[k] = task.Accurate
		}
	}
	return ScheduleWithModes(s, order, modes)
}

// BuildFullILP builds the complete §IV-A program in which the execution
// order itself is decided by the solver: per ordered pair (a<b) a binary
// z_{ab} (1 when a precedes b) with big-M disjunctive non-overlap
// constraints. The model grows quadratically and is intended for small
// instances (micro-benchmarks and tests that confirm order-fixing loses
// nothing on them).
//
// Variable layout: y_0..y_{m-1}, s_0..s_{m-1}, then z for each pair in
// lexicographic (a,b) order, a < b.
func BuildFullILP(s *task.Set, jobs []task.Job) *ilp.Problem {
	m := len(jobs)
	nPairs := m * (m - 1) / 2
	p := ilp.NewProblem(2*m + nPairs)
	bigM := float64(s.Hyperperiod() * 2)

	// pairVar indexes z_{ab} for a < b in lexicographic enumeration.
	pairVar := func(a, b int) int {
		return 2*m + a*(2*m-a-1)/2 + (b - a - 1)
	}

	dur := func(k int) (w, x float64) {
		tk := s.Task(jobs[k].TaskID)
		return float64(tk.WCETAccurate), float64(tk.WCETImprecise)
	}

	for k, j := range jobs {
		tk := s.Task(j.TaskID)
		p.LP.C[k] = tk.MeanError()
		p.SetBinary(k)
		w, x := dur(k)
		sVar := m + k
		p.LP.SetBounds(sVar, float64(j.Release), math.Inf(1))
		coef := make([]float64, p.LP.NumVars)
		coef[sVar] = 1
		coef[k] = x - w
		p.LP.AddConstraint(coef, lp.LE, float64(j.Deadline)-w, fmt.Sprintf("dl%d", k))
	}

	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			z := pairVar(a, b)
			p.SetBinary(z)
			wa, xa := dur(a)
			wb, xb := dur(b)
			// a before b (z=1): s_b >= s_a + dur_a − M(1−z)
			//   s_b − s_a − (xa−wa) y_a + M·z <= ... rearranged:
			//   s_b − s_a − (xa−wa)·y_a ≥ wa − M(1−z)
			//   → s_b − s_a − (xa−wa)·y_a − M·z ≥ wa − M
			row := make([]float64, p.LP.NumVars)
			row[m+b] = 1
			row[m+a] = -1
			row[a] = -(xa - wa)
			row[z] = -bigM
			p.LP.AddConstraint(row, lp.GE, wa-bigM, fmt.Sprintf("ord%d<%d", a, b))
			// b before a (z=0): s_a − s_b − (xb−wb)·y_b + M·z ≥ wb
			row2 := make([]float64, p.LP.NumVars)
			row2[m+a] = 1
			row2[m+b] = -1
			row2[b] = -(xb - wb)
			row2[z] = bigM
			p.LP.AddConstraint(row2, lp.GE, wb, fmt.Sprintf("ord%d<%d", b, a))
		}
	}
	return p
}

// SolveFullILP solves the order-free model on small instances and returns
// the schedule in solver-chosen execution order.
func SolveFullILP(s *task.Set, jobs []task.Job, maxNodes int, timeLimit time.Duration) (*Schedule, error) {
	return SolveFullILPOpt(s, jobs, ilp.Options{MaxNodes: maxNodes, TimeLimit: timeLimit})
}

// SolveFullILPOpt is SolveFullILP with full branch-and-bound options.
func SolveFullILPOpt(s *task.Set, jobs []task.Job, opt ilp.Options) (*Schedule, error) {
	p := BuildFullILP(s, jobs)
	sol, err := ilp.Solve(p, opt)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case ilp.Optimal, ilp.Feasible:
	case ilp.Infeasible:
		return nil, ErrInfeasible
	default:
		return nil, fmt.Errorf("offline: full ILP terminated %v without incumbent", sol.Status)
	}
	m := len(jobs)
	type row struct {
		job   task.Job
		mode  task.Mode
		start task.Time
	}
	rows := make([]row, m)
	for k, j := range jobs {
		mode := task.Accurate
		if sol.X[k] > 0.5 {
			mode = task.Imprecise
		}
		rows[k] = row{job: j, mode: mode, start: task.Time(sol.X[m+k] + 0.5)}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].start < rows[b].start })
	order := make([]task.Job, m)
	modes := make([]task.Mode, m)
	for i, r := range rows {
		order[i] = r.job
		modes[i] = r.mode
	}
	return ScheduleWithModes(s, order, modes)
}
