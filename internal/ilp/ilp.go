// Package ilp is a branch-and-bound integer linear programming solver built
// on the internal/lp bounded-variable simplex. It is the engine behind the
// paper's offline ILP scheduling (§IV-A): best-first search on the LP
// relaxation bound, most-fractional branching, a root rounding/diving
// primal heuristic, and node/time budgets with incumbent return so a large
// hyper-period can still produce a usable (if not proven-optimal) schedule
// — mirroring the paper's "seconds to minutes" solver runs.
//
// Branching tightens a native variable bound (lb/ub) instead of appending a
// dense constraint row, so the simplex tableau does not grow with tree
// depth and every relaxation below the root is a bound change away from
// the root's. Only the root LP is solved cold: the dive re-solves each fix
// warm from the live tableau, and every node restores the root's optimal
// tableau and re-solves it with lp.Solver.Resolve's dual simplex. Tie
// weights on the integral variables make each relaxation's vertex
// independent of that pivot path. The package's differential tests check
// the search against exhaustive enumeration of the binaries. The search can
// fan LP relaxation solves over a bounded worker pool (Options.Workers);
// sequence-numbered tie-breaking keeps the explored node order — and
// therefore the incumbent, objective, node count, BestBound and Status —
// bit-identical to a serial run.
package ilp

import (
	"math"
	"sort"
	"sync"
	"time"

	"nprt/internal/lp"
	"nprt/internal/pq"
)

// Problem is an LP with integrality requirements on a subset of variables.
type Problem struct {
	LP      *lp.Problem
	Integer []bool // len == LP.NumVars; true = must be integral
}

// NewProblem returns an ILP over n variables, none integral yet.
func NewProblem(n int) *Problem {
	return &Problem{LP: lp.NewProblem(n), Integer: make([]bool, n)}
}

// SetInteger marks variable j integral.
func (p *Problem) SetInteger(j int) { p.Integer[j] = true }

// SetBinary marks variable j integral with native bounds [0, 1].
func (p *Problem) SetBinary(j int) {
	p.Integer[j] = true
	p.LP.SetBounds(j, 0, 1)
}

// Status is a solve outcome.
type Status int8

// Solve outcomes.
const (
	// Optimal: proven optimal integral solution.
	Optimal Status = iota
	// Feasible: an integral incumbent was found but the search hit a budget
	// before proving optimality.
	Feasible
	// Infeasible: no integral solution exists.
	Infeasible
	// Unbounded: the relaxation is unbounded below.
	Unbounded
	// Limit: a budget was hit before any incumbent was found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return "?"
}

// Options bounds and shapes the search.
type Options struct {
	MaxNodes  int           // 0 = default 100000
	TimeLimit time.Duration // 0 = none; checked every 64 nodes
	// Workers > 1 solves LP relaxations of frontier nodes concurrently.
	// The explored node sequence is decided by (bound, sequence number)
	// alone, so every output field is bit-identical to Workers == 1 —
	// the same Parallel==Serial discipline the experiment drivers use.
	// (A TimeLimit is the one wall-clock-dependent budget; runs that rely
	// on bit-identical output should bound MaxNodes instead.)
	Workers int
	// DisableHeuristic skips the root rounding/diving primal heuristic.
	DisableHeuristic bool
	// OnIncumbent, when non-nil, observes each improving integral solution.
	OnIncumbent func(x []float64, obj float64)
}

// Solution is the branch-and-bound result.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Nodes     int     // explored branch-and-bound nodes
	BestBound float64 // global lower bound at termination
	// Pivots sums the simplex pivots (bound flips included) of the root
	// relaxation, the root dive and every processed node. It is a count of
	// work, identical under every Workers setting.
	Pivots int
	// ColdFallbacks counts re-solves that could not be warm-started and
	// fell back to a cold two-phase solve.
	ColdFallbacks int
}

const intTol = 1e-6

// node is one branch-and-bound tree node. Its bound restrictions are the
// chain of (j, v, upper) records up the parent links; they are materialized
// into a bounds scratch buffer only when the node's relaxation is
// solved, so a node costs O(1) memory regardless of depth.
type node struct {
	parent *node
	j      int     // branched variable; -1 on the root
	v      float64 // bound value
	upper  bool    // true: x_j ≤ v, false: x_j ≥ v
	bound  float64 // parent relaxation objective (lower bound)
	seq    int64   // global insertion number; total-orders equal bounds
	sol    *lp.Solution
	err    error // deferred speculative-solve error
}

// nodeLess is the best-first order: smallest parent bound, then insertion
// sequence. It is a total order (seq is unique), which is what makes the
// explored sequence independent of heap layout and worker count.
func nodeLess(a, b *node) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.seq < b.seq
}

// bbState carries one Solve invocation's search state and scratch pools.
type bbState struct {
	p       *Problem
	opt     Options
	workers int

	open *pq.Heap[*node]
	seq  int64
	sol  *Solution

	solvers        []*lp.Solver
	rootSnap       *lp.Snapshot // the root's optimal tableau; nodes re-solve from it
	tie            []float64    // lp.Problem.Tie weights of every relaxation
	baseLo, baseUp []float64
	lo, up         [][]float64 // per-worker materialized bounds
	chains         [][]*node   // per-worker chain-collection scratch
}

// Solve runs best-first branch and bound.
func Solve(p *Problem, opt Options) (*Solution, error) {
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}

	n := p.LP.NumVars
	st := &bbState{
		p: p, opt: opt, workers: workers,
		open:   pq.New(nodeLess),
		sol:    &Solution{Status: Limit, Objective: math.Inf(1), BestBound: math.Inf(-1)},
		baseLo: make([]float64, n),
		baseUp: make([]float64, n),
		tie:    tieWeights(p),
	}
	for j := 0; j < n; j++ {
		st.baseLo[j], st.baseUp[j] = 0, math.Inf(1)
		if p.LP.Lo != nil {
			st.baseLo[j] = p.LP.Lo[j]
		}
		if p.LP.Up != nil {
			st.baseUp[j] = p.LP.Up[j]
		}
	}
	st.solvers = make([]*lp.Solver, workers)
	st.lo = make([][]float64, workers)
	st.up = make([][]float64, workers)
	st.chains = make([][]*node, workers)
	for w := 0; w < workers; w++ {
		st.solvers[w] = new(lp.Solver)
		st.lo[w] = make([]float64, n)
		st.up[w] = make([]float64, n)
	}
	sol := st.sol

	// Solve the root relaxation up front: the heuristic needs it, and the
	// cached result is reused when the root is processed below.
	root := &node{j: -1, bound: math.Inf(-1), seq: 0}
	st.seq = 1
	rootSol, err := st.solveNode(0, root)
	if err != nil {
		return nil, err
	}
	root.sol = rootSol
	st.rootSnap = st.solvers[0].Snapshot()
	if !opt.DisableHeuristic && rootSol.Status == lp.Optimal {
		if err := st.heuristic(root); err != nil {
			return nil, err
		}
	}
	st.open.Push(root)

	budgetHit := false
	batch := make([]*node, 0, workers)
	var wg sync.WaitGroup
	for st.open.Len() > 0 && !budgetHit {
		// Fill a batch of the best frontier nodes, in heap order.
		batch = batch[:0]
		for len(batch) < workers && st.open.Len() > 0 {
			nd, _ := st.open.Pop()
			batch = append(batch, nd)
		}

		// Speculatively solve the batch's relaxations concurrently. A
		// relaxation is a pure function of the node's bound chain, so
		// speculation can waste work (a node the serial order would have
		// pruned) but can never change any result. Errors are recorded on
		// the node and surfaced only if the node is actually processed.
		if workers > 1 && len(batch) > 1 {
			for i, nd := range batch {
				if nd.sol != nil || nd.err != nil {
					continue
				}
				wg.Add(1)
				go func(w int, nd *node) {
					defer wg.Done()
					nd.sol, nd.err = st.solveNode(w, nd)
				}(i, nd)
			}
			wg.Wait()
		}

		// Process strictly in (bound, seq) order; this loop is serial in
		// every mode and is the only place search state mutates.
		for bi, nd := range batch {
			if sol.Nodes >= maxNodes ||
				(!deadline.IsZero() && sol.Nodes&63 == 0 && time.Now().After(deadline)) {
				budgetHit = true
				st.pushBack(batch[bi:])
				break
			}
			// A child pushed by an earlier batch element may now precede
			// this node in the serial order: requeue the tail and refill.
			if minNd, ok := st.open.Peek(); ok && nodeLess(minNd, nd) {
				st.pushBack(batch[bi:])
				break
			}
			// Prune against the incumbent.
			if nd.bound >= sol.Objective-1e-9 {
				nd.sol, nd.err = nil, nil
				continue
			}
			if nd.err != nil {
				return nil, nd.err
			}
			if nd.sol == nil { // serial mode solves lazily, after the prune check
				if nd.sol, err = st.solveNode(0, nd); err != nil {
					return nil, err
				}
			}
			rel := nd.sol
			nd.sol = nil
			sol.Nodes++
			sol.Pivots += rel.Pivots
			if nd.parent != nil && !rel.Warm {
				sol.ColdFallbacks++
			}
			switch rel.Status {
			case lp.Infeasible:
				continue
			case lp.Unbounded:
				if nd.parent == nil {
					// An unbounded root relaxation means the ILP itself is
					// unbounded or pathological; scheduling models never are.
					sol.Status = Unbounded
					return sol, nil
				}
				continue
			}
			if rel.Objective >= sol.Objective-1e-9 {
				continue // bound prune
			}

			branchVar, _ := mostFractional(p, rel.X)
			if branchVar == -1 {
				// Integral solution: candidate incumbent.
				st.tryIncumbent(roundIntegral(p, rel.X), rel.Objective)
				continue
			}
			v := rel.X[branchVar]
			down := &node{parent: nd, j: branchVar, v: math.Floor(v), upper: true,
				bound: rel.Objective, seq: st.seq}
			up := &node{parent: nd, j: branchVar, v: math.Ceil(v), upper: false,
				bound: rel.Objective, seq: st.seq + 1}
			st.seq += 2
			st.open.Push(down)
			st.open.Push(up)
		}
	}

	// Compute the final global bound from the remaining open nodes.
	sol.BestBound = sol.Objective
	for _, nd := range st.open.Items() {
		if nd.bound < sol.BestBound {
			sol.BestBound = nd.bound
		}
	}

	if !budgetHit && st.open.Len() == 0 {
		if sol.Status == Feasible {
			sol.Status = Optimal
			sol.BestBound = sol.Objective
		} else {
			// The whole tree was explored without an integral incumbent.
			sol.Status = Infeasible
		}
	}
	return sol, nil
}

// pushBack returns unprocessed batch nodes to the open heap; their cached
// relaxation solutions ride along, so no work is repeated.
func (st *bbState) pushBack(nodes []*node) {
	for _, nd := range nodes {
		st.open.Push(nd)
	}
}

// tryIncumbent installs x (already integral-rounded) as the incumbent when
// it improves the objective.
func (st *bbState) tryIncumbent(x []float64, obj float64) {
	if obj < st.sol.Objective-1e-9 {
		st.sol.Objective = obj
		st.sol.X = x
		st.sol.Status = Feasible
		if st.opt.OnIncumbent != nil {
			st.opt.OnIncumbent(x, obj)
		}
	}
}

// solveNode solves nd's LP relaxation with worker w's pooled simplex. The
// root is solved cold; every other node restores the root's optimal
// tableau into the worker's solver and re-solves it warm under its own
// bound chain, so the result is a pure function of the chain whichever
// worker runs it and whatever that worker solved before.
func (st *bbState) solveNode(w int, nd *node) (*lp.Solution, error) {
	sub := st.nodeProblem(w, nd)
	sv := st.solvers[w]
	if nd.parent == nil {
		return sv.Solve(sub)
	}
	sv.Restore(st.rootSnap)
	return sv.Resolve(sub)
}

// nodeProblem materializes nd's bound chain into worker w's bounds
// scratch and returns the base model under those bounds.
func (st *bbState) nodeProblem(w int, nd *node) *lp.Problem {
	lo, up := st.lo[w], st.up[w]
	copy(lo, st.baseLo)
	copy(up, st.baseUp)
	ch := st.chains[w][:0]
	for x := nd; x != nil && x.j >= 0; x = x.parent {
		ch = append(ch, x)
	}
	st.chains[w] = ch
	for _, b := range ch {
		if b.upper {
			if b.v < up[b.j] {
				up[b.j] = b.v
			}
		} else {
			if b.v > lo[b.j] {
				lo[b.j] = b.v
			}
		}
	}
	return &lp.Problem{NumVars: st.p.LP.NumVars, C: st.p.LP.C, Rows: st.p.LP.Rows, Lo: lo, Up: up, Tie: st.tie}
}

// tieWeights gives each integral variable j the weight 1 + frac(j·φ), a
// low-discrepancy sequence, and continuous variables weight 0. A model
// with interchangeable variables (the mode ILP's jobs of one task) has
// many optimal relaxation vertices; minimizing these weights over the
// optimal face picks one whatever pivot path reached it, so a warm
// re-solve and a cold solve branch alike, on any worker.
func tieWeights(p *Problem) []float64 {
	w := make([]float64, p.LP.NumVars)
	for j, isInt := range p.Integer {
		if isInt {
			_, f := math.Modf(float64(j) * math.Phi)
			w[j] = 1 + f
		}
	}
	return w
}

// mostFractional returns the integral variable farthest from an integer in
// x (most-fractional branching), or -1 when x is integral.
func mostFractional(p *Problem, x []float64) (int, float64) {
	branchVar, frac := -1, 0.0
	for j := 0; j < p.LP.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		f := math.Abs(x[j] - math.Round(x[j]))
		if f > intTol && f > frac {
			branchVar, frac = j, f
		}
	}
	return branchVar, frac
}

// roundIntegral snaps integral variables to their nearest integers and
// returns a copy.
func roundIntegral(p *Problem, x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for j, isInt := range p.Integer {
		if isInt {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

// SortedFractionalVars is a test helper exposing branching order logic:
// indices of integral variables sorted by descending fractionality in x.
func SortedFractionalVars(p *Problem, x []float64) []int {
	var vars []int
	for j := range p.Integer {
		if p.Integer[j] {
			if f := math.Abs(x[j] - math.Round(x[j])); f > intTol {
				vars = append(vars, j)
			}
		}
	}
	sort.Slice(vars, func(a, b int) bool {
		fa := math.Abs(x[vars[a]] - math.Round(x[vars[a]]))
		fb := math.Abs(x[vars[b]] - math.Round(x[vars[b]]))
		return fa > fb
	})
	return vars
}
