package ilp

import (
	"math"

	"nprt/internal/lp"
)

// heurTol is the feasibility tolerance for the rounding check.
const heurTol = 1e-6

// heuristic runs the root-node primal heuristic: first plain rounding of
// the root relaxation (free), then — only if rounding is infeasible — a
// bounded dive that repeatedly fixes the most fractional integral variable
// to its nearest integer and re-solves. Any integral point found becomes
// the starting incumbent, which lets the best-first search prune
// aggressively from the first node. The heuristic is a pure function of the
// root relaxation and runs identically under every Workers setting,
// preserving the solver's determinism guarantee.
func (st *bbState) heuristic(root *node) error {
	xr := roundIntegral(st.p, root.sol.X)
	if st.roundingFeasible(xr) {
		obj := 0.0
		for j, c := range st.p.LP.C {
			obj += c * xr[j]
		}
		st.tryIncumbent(xr, obj)
		return nil
	}
	return st.dive(root)
}

// roundingFeasible reports whether x satisfies every constraint row and the
// base variable bounds within heurTol.
func (st *bbState) roundingFeasible(x []float64) bool {
	for j := range x {
		if x[j] < st.baseLo[j]-heurTol || x[j] > st.baseUp[j]+heurTol {
			return false
		}
	}
	for _, r := range st.p.LP.Rows {
		dot := 0.0
		for j, c := range r.Coef {
			dot += c * x[j]
		}
		switch r.Sense {
		case lp.LE:
			if dot > r.RHS+heurTol {
				return false
			}
		case lp.GE:
			if dot < r.RHS-heurTol {
				return false
			}
		case lp.EQ:
			if math.Abs(dot-r.RHS) > heurTol {
				return false
			}
		}
	}
	return true
}

// dive fixes one fractional variable per iteration (to its nearest integer,
// via a ≥/≤ pair chained onto temporary nodes that nodeProblem materializes
// like any search node) and re-solves. When the nearest integer cuts off
// every solution the dive retries the other side of the fraction before
// giving up — on the offline mode ILP that one-step backtrack is what turns
// an infeasible round-down (accurate mode misses a deadline) into the
// always-feasible round-up (imprecise mode), so the dive reliably produces
// a starting incumbent. Dive nodes never enter the open heap.
func (st *bbState) dive(root *node) error {
	numInt := 0
	for _, isInt := range st.p.Integer {
		if isInt {
			numInt++
		}
	}
	cur, curSol := root, root.sol
	for iter := 0; iter <= numInt+8; iter++ {
		j, _ := mostFractional(st.p, curSol.X)
		if j == -1 {
			st.tryIncumbent(roundIntegral(st.p, curSol.X), curSol.Objective)
			return nil
		}
		x := curSol.X[j]
		near := math.Round(x)
		far := math.Floor(x)
		if far == near {
			far = math.Ceil(x)
		}
		var s *lp.Solution
		for _, v := range [2]float64{near, far} {
			geNode := &node{parent: cur, j: j, v: v, upper: false}
			leNode := &node{parent: geNode, j: j, v: v, upper: true}
			fixed, err := st.diveSolve(leNode)
			if err != nil {
				return err
			}
			st.sol.Pivots += fixed.Pivots
			if !fixed.Warm {
				st.sol.ColdFallbacks++
			}
			if fixed.Status == lp.Optimal {
				s, cur = fixed, leNode
				break
			}
		}
		if s == nil {
			return nil // both directions cut off all solutions; abandon
		}
		curSol = s
	}
	return nil
}

// diveSolve solves a dive node on worker 0, warm from the solver's live
// tableau — the root's, or the previous fix's — since the dive is serial
// and runs before the search.
func (st *bbState) diveSolve(nd *node) (*lp.Solution, error) {
	return st.solvers[0].Resolve(st.nodeProblem(0, nd))
}
