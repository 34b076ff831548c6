package ilp_test

import (
	"errors"
	"math"
	"testing"

	"nprt/internal/ilp"
	"nprt/internal/offline"
	"nprt/internal/task"
	"nprt/internal/workload"
)

// perfbenchNodeBudget is the node budget the plan-paper benchmark solves
// every Table-I mode ILP at (one worker).
const perfbenchNodeBudget = 48

// tableIGolden is the cold two-phase solver's result on each Table-I mode
// ILP at perfbenchNodeBudget: status, objective, best bound and nodes.
// Terminated searches are pinned exactly; a budget-limited search may
// explore a different tree under a different LP engine, so only its status
// is pinned and its incumbent is checked against the exact DP instead.
var tableIGolden = []struct {
	name      string
	status    ilp.Status
	objective float64
	bestBound float64
	nodes     int
}{
	{"Rnd1", ilp.Optimal, 0.7155781249999993, 0.7155781249999993, 9},
	{"Rnd2", ilp.Infeasible, math.Inf(1), math.Inf(1), 1},
	{"Rnd3", ilp.Optimal, 9.10979687500001, 9.10979687500001, 41},
	{"Rnd4", ilp.Optimal, 1.6935312500000017, 1.6935312500000017, 11},
	{"Rnd5", ilp.Optimal, 0, 0, 1},
	{"Rnd6", ilp.Feasible, 26.942890624999993, 24.698570105328006, 48},
	{"Rnd7", ilp.Feasible, 77.80292187499998, 69.86494279645862, 48},
	{"Rnd8", ilp.Feasible, 89.04585937499996, 76.76334935291943, 48},
	{"Rnd9", ilp.Feasible, 79.87195312500003, 63.51173792372876, 48},
	{"Rnd10", ilp.Feasible, 181.32814062499918, 171.67529085517234, 48},
	{"Rnd11", ilp.Feasible, 286.6731250000004, 258.49428995557076, 48},
	{"Rnd12", ilp.Feasible, 304.1869218750002, 278.1334659929605, 48},
	{"Rnd13", ilp.Feasible, 585.0384687499999, 519.1722442603484, 48},
	{"IDCT", ilp.Infeasible, math.Inf(1), math.Inf(1), 1},
}

// relClose reports |a−b| ≤ tol·max(1,|b|), treating equal infinities as
// equal.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

// TestTableIGoldenAtPerfbenchBudget solves the 14 Table-I mode ILPs at the
// plan-paper budget and holds them to the golden table: terminated cases
// keep status and objective, budget-limited cases keep their status, and
// every result passes checkAgainstDP.
func TestTableIGoldenAtPerfbenchBudget(t *testing.T) {
	names, models := tableIModels(t)
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range models {
		g := tableIGolden[i]
		if names[i] != g.name {
			t.Fatalf("case %d is %s, golden row is %s", i, names[i], g.name)
		}
		sol, err := ilp.Solve(p, ilp.Options{MaxNodes: perfbenchNodeBudget, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if sol.Status != g.status {
			t.Errorf("%s: status %v, golden %v", g.name, sol.Status, g.status)
			continue
		}
		if (g.status == ilp.Optimal || g.status == ilp.Infeasible) && !relClose(sol.Objective, g.objective, 1e-9) {
			t.Errorf("%s: objective %.17g, golden %.17g", g.name, sol.Objective, g.objective)
		}
		checkAgainstDP(t, g.name, cases[i], p, sol)
	}
}

// checkAgainstDP holds one solve of a Table-I mode ILP to oracles that
// share no code with the branch and bound. The exact DP must agree on
// infeasibility; otherwise the incumbent must pass integralFeasible and
// the DP optimum must lie inside the reported [BestBound, incumbent]
// bracket.
func checkAgainstDP(t *testing.T, name string, c *workload.Case, p *ilp.Problem, sol *ilp.Solution) {
	t.Helper()
	s := c.MustSet()
	order, err := offline.EDFOrder(s, task.Deepest)
	if err != nil {
		t.Fatal(err)
	}
	_, dp, err := offline.OptimizeModes(s, order)
	switch sol.Status {
	case ilp.Infeasible:
		if !errors.Is(err, offline.ErrInfeasible) {
			t.Errorf("%s: search reports infeasible, exact DP: optimum %.9f, err %v", name, dp, err)
		}
		return
	case ilp.Optimal, ilp.Feasible:
	default:
		t.Errorf("%s: status %v, want an incumbent or a proof of infeasibility", name, sol.Status)
		return
	}
	if err != nil {
		t.Fatalf("%s: exact DP: %v", name, err)
	}
	if !integralFeasible(p, sol.X) {
		t.Errorf("%s: incumbent fails the independent feasibility check", name)
	}
	const tol = 1e-6
	if dp < sol.BestBound-tol*(1+math.Abs(dp)) || dp > sol.Objective+tol*(1+math.Abs(dp)) {
		t.Errorf("%s: exact DP optimum %.9f outside [BestBound %.9f, incumbent %.9f]",
			name, dp, sol.BestBound, sol.Objective)
	}
}

// TestTableIPivotCountsDeterministic pins the work counters: repeated
// serial solves report the same Pivots and ColdFallbacks, and so does a
// parallel solve, because only processed nodes are counted and every
// node's relaxation is a pure function of its bound chain.
func TestTableIPivotCountsDeterministic(t *testing.T) {
	names, models := tableIModels(t)
	for i, p := range models {
		first, err := ilp.Solve(p, ilp.Options{MaxNodes: perfbenchNodeBudget, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if first.Pivots <= 0 {
			t.Errorf("%s: Pivots = %d, want a positive count", names[i], first.Pivots)
		}
		for _, w := range []int{1, 1, 3} {
			again, err := ilp.Solve(p, ilp.Options{MaxNodes: perfbenchNodeBudget, Workers: w})
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			if again.Pivots != first.Pivots || again.ColdFallbacks != first.ColdFallbacks || again.Nodes != first.Nodes {
				t.Errorf("%s workers=%d: pivots=%d fallbacks=%d nodes=%d, first serial run %d/%d/%d",
					names[i], w, again.Pivots, again.ColdFallbacks, again.Nodes,
					first.Pivots, first.ColdFallbacks, first.Nodes)
			}
		}
	}
}
