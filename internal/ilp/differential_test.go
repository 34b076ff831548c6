// Differential and determinism tests of the branch and bound, each against
// an oracle that shares no search code with it:
//
//   - randomized mixed ILPs against exhaustive enumeration of the binaries;
//   - every Table-I offline model at 200 nodes against the exact DP
//     optimum and an independent feasibility check of the incumbent;
//   - parallel (Workers > 1) vs serial bit-identical output;
//   - a tight TimeLimit still returning Feasible with the root incumbent.
//
// This file lives in package ilp_test so it can import internal/offline and
// internal/workload (which themselves import ilp) without a cycle.
package ilp_test

import (
	"math"
	"testing"
	"time"

	"nprt/internal/ilp"
	"nprt/internal/lp"
	"nprt/internal/offline"
	"nprt/internal/rng"
	"nprt/internal/task"
	"nprt/internal/workload"
)

// tableINodeBudget caps the search on the Table-I models so the suite stays
// fast: small models reach Optimal/Infeasible well inside it, and the large
// Rnd10–Rnd13 instances (which no cuts-free branch-and-bound proves optimal
// in test time — the LP integrality gap is several per cent) stop here with
// a budget-limited incumbent.
const tableINodeBudget = 200

// tableIModels builds the §IV-A mode ILP for every Table-I case under the
// deepest-mode EDF order.
func tableIModels(t *testing.T) (names []string, models []*ilp.Problem) {
	t.Helper()
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		s := c.MustSet()
		order, err := offline.EDFOrder(s, task.Deepest)
		if err != nil {
			t.Fatalf("%s: EDF order: %v", c.Name, err)
		}
		names = append(names, c.Name)
		models = append(models, offline.BuildModeILP(s, order))
	}
	if len(models) != 14 {
		t.Fatalf("expected the 14 Table-I models, got %d", len(models))
	}
	return names, models
}

// integralFeasible verifies x against every row and native bound of p and
// that integral variables are integers — an incumbent check independent of
// the solver internals.
func integralFeasible(p *ilp.Problem, x []float64) bool {
	const tol = 1e-6
	for j := range x {
		lo, up := 0.0, math.Inf(1)
		if p.LP.Lo != nil {
			lo = p.LP.Lo[j]
		}
		if p.LP.Up != nil {
			up = p.LP.Up[j]
		}
		if x[j] < lo-tol || x[j] > up+tol {
			return false
		}
		if p.Integer[j] && math.Abs(x[j]-math.Round(x[j])) > tol {
			return false
		}
	}
	for _, r := range p.LP.Rows {
		dot := 0.0
		for j, c := range r.Coef {
			dot += c * x[j]
		}
		switch r.Sense {
		case lp.LE:
			if dot > r.RHS+tol {
				return false
			}
		case lp.GE:
			if dot < r.RHS-tol {
				return false
			}
		case lp.EQ:
			if math.Abs(dot-r.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// TestTableIParallelBitIdentical: for every Table-I model and several worker
// counts, the parallel search must reproduce the serial run bit for bit —
// status, objective, incumbent vector, node count, and best bound. This is
// the determinism contract that makes -ilpworkers safe to flip in the
// experiment harness. The serial run itself is held to checkAgainstDP: a
// feasible incumbent and the exact DP optimum inside its bracket.
func TestTableIParallelBitIdentical(t *testing.T) {
	names, models := tableIModels(t)
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range models {
		name := names[i]
		serial, err := ilp.Solve(p, ilp.Options{MaxNodes: tableINodeBudget})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		checkAgainstDP(t, name, cases[i], p, serial)
		for _, w := range []int{2, 4, 8} {
			par, err := ilp.Solve(p, ilp.Options{MaxNodes: tableINodeBudget, Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if par.Status != serial.Status || par.Objective != serial.Objective ||
				par.Nodes != serial.Nodes || par.BestBound != serial.BestBound {
				t.Errorf("%s workers=%d: {%v %.12f nodes=%d bound=%.12f} != serial {%v %.12f nodes=%d bound=%.12f}",
					name, w, par.Status, par.Objective, par.Nodes, par.BestBound,
					serial.Status, serial.Objective, serial.Nodes, serial.BestBound)
			}
			if len(par.X) != len(serial.X) {
				t.Errorf("%s workers=%d: incumbent length %d != %d", name, w, len(par.X), len(serial.X))
				continue
			}
			for j := range par.X {
				if par.X[j] != serial.X[j] {
					t.Errorf("%s workers=%d: X[%d]=%v != serial %v (must be bit-identical)", name, w, j, par.X[j], serial.X[j])
					break
				}
			}
		}
	}
}

// enumerateBinaries is the exhaustive oracle of a mixed ILP whose first nBin
// variables are its binaries and whose other variables are bounded: it
// fixes each of the 2^nBin assignments through native bounds, solves the
// continuous rest with a cold lp.Solve and keeps the minimum. It shares no
// branch-and-bound, warm-start, snapshot or tie-phase code with ilp.Solve.
// ok is false when no assignment is feasible.
func enumerateBinaries(t *testing.T, p *ilp.Problem, nBin int) (best float64, ok bool) {
	t.Helper()
	best = math.Inf(1)
	for mask := 0; mask < 1<<nBin; mask++ {
		sub := *p.LP
		sub.Lo = append([]float64(nil), p.LP.Lo...)
		sub.Up = append([]float64(nil), p.LP.Up...)
		for j := 0; j < nBin; j++ {
			v := float64(mask >> j & 1)
			sub.SetBounds(j, v, v)
		}
		rel, err := lp.Solve(&sub)
		if err != nil {
			t.Fatalf("enumeration, assignment %b: %v", mask, err)
		}
		switch rel.Status {
		case lp.Optimal:
			if rel.Objective < best {
				best, ok = rel.Objective, true
			}
		case lp.Unbounded:
			t.Fatalf("enumeration, assignment %b: unbounded over bounded variables", mask)
		}
	}
	return best, ok
}

// TestRandomILPDifferential solves 120 randomized mixed ILPs to completion
// and holds each to exhaustive enumeration of its binaries: the same status
// and optimal objective, and an incumbent that passes integralFeasible. The
// parallel search must additionally be bit-identical to the serial one.
// Seven trials in eight plant an integral point and build every row's
// right-hand side around it, so they are feasible and the objective is
// compared; the rest draw free right-hand sides, which are mostly
// infeasible and check that verdict.
func TestRandomILPDifferential(t *testing.T) {
	r := rng.New(0xD1FF2026)
	feasible := 0
	for trial := 0; trial < 120; trial++ {
		nBin := 3 + int(r.Uint64()%4)  // 3..6 binaries
		nCont := int(r.Uint64() % 3)   // 0..2 continuous
		nRows := 2 + int(r.Uint64()%4) // 2..5 rows
		planted := trial%8 != 7
		n := nBin + nCont
		p := ilp.NewProblem(n)
		x0 := make([]float64, n)
		for j := 0; j < nBin; j++ {
			p.SetBinary(j)
			p.LP.C[j] = float64(int(r.Uint64()%21)) - 10
			x0[j] = float64(r.Uint64() % 2)
		}
		for j := nBin; j < n; j++ {
			p.LP.C[j] = float64(int(r.Uint64()%11)) - 5
			up := 1 + r.Uint64()%9
			p.LP.SetBounds(j, 0, float64(up))
			x0[j] = float64(r.Uint64() % (up + 1))
		}
		for i := 0; i < nRows; i++ {
			coef := make([]float64, n)
			dot := 0.0
			for j := range coef {
				coef[j] = float64(int(r.Uint64()%9)) - 4
				dot += coef[j] * x0[j]
			}
			sense := lp.Sense(r.Uint64() % 3)
			rhs := float64(int(r.Uint64()%17)) - 4
			if planted {
				switch slack := float64(r.Uint64() % 3); sense {
				case lp.LE:
					rhs = dot + slack
				case lp.GE:
					rhs = dot - slack
				default:
					rhs = dot
				}
			}
			p.LP.AddConstraint(coef, sense, rhs, "")
		}

		nat, err := ilp.Solve(p, ilp.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		best, ok := enumerateBinaries(t, p, nBin)
		if planted && !ok {
			t.Fatalf("trial %d: enumeration finds no feasible assignment around the planted point", trial)
		}
		if !ok {
			if nat.Status != ilp.Infeasible {
				t.Fatalf("trial %d: status %v, enumeration finds no feasible assignment", trial, nat.Status)
			}
		} else {
			feasible++
			if nat.Status != ilp.Optimal {
				t.Fatalf("trial %d: status %v, enumeration optimum %.9f", trial, nat.Status, best)
			}
			if math.Abs(nat.Objective-best) > 1e-6 {
				t.Fatalf("trial %d: objective %.9f, enumeration %.9f", trial, nat.Objective, best)
			}
			if !integralFeasible(p, nat.X) {
				t.Fatalf("trial %d: optimal solution fails feasibility check", trial)
			}
		}
		par, err := ilp.Solve(p, ilp.Options{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if par.Status != nat.Status || par.Objective != nat.Objective ||
			par.Nodes != nat.Nodes || par.BestBound != nat.BestBound {
			t.Fatalf("trial %d: parallel not bit-identical: {%v %.12f %d} vs {%v %.12f %d}",
				trial, par.Status, par.Objective, par.Nodes, nat.Status, nat.Objective, nat.Nodes)
		}
	}
	t.Logf("%d of 120 trials feasible", feasible)
	if feasible < 100 || feasible == 120 {
		t.Fatalf("%d of 120 trials feasible: want at least 100 objective comparisons and some infeasible verdicts", feasible)
	}
}

// TestTightTimeLimitKeepsIncumbent (satellite of the TimeLimit batching
// change): even a time limit that expires before the first budget check —
// budgets are only probed every 64 nodes — must return Feasible with the
// root heuristic's incumbent on a large model, never Limit.
func TestTightTimeLimitKeepsIncumbent(t *testing.T) {
	names, models := tableIModels(t)
	for i, name := range names {
		if name != "Rnd10" {
			continue
		}
		p := models[i]
		sol, err := ilp.Solve(p, ilp.Options{TimeLimit: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != ilp.Feasible {
			t.Fatalf("status = %v, want feasible (incumbent from root heuristic)", sol.Status)
		}
		if math.IsInf(sol.Objective, 1) || !integralFeasible(p, sol.X) {
			t.Fatalf("incumbent invalid: obj=%v", sol.Objective)
		}
		return
	}
	t.Fatal("Rnd10 not found")
}
