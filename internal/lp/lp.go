// Package lp is a from-scratch dense linear-programming solver: a two-phase
// primal simplex with bounded variables and a Dantzig→Bland anti-cycling
// pricing fallback, plus a bounded-variable dual simplex that re-solves a
// problem warm from the basis of its last optimal solve when only the
// variable bounds changed. It is the substrate under internal/ilp, which the
// paper's offline ILP scheduling (§IV) runs on.
//
// Problems are stated over box-bounded variables:
//
//	minimize   c·x
//	subject to a_k·x (≤ | = | ≥) b_k,  lo ≤ x ≤ up,
//
// with lo = 0 and up = +∞ by default (the classic non-negative form).
// Variable bounds are handled natively by the simplex — a bound never
// becomes a tableau row — which is what lets the branch-and-bound in
// internal/ilp tighten bounds at every tree node without growing the
// tableau with tree depth, and re-solve a node from a held basis
// (Solver.Resolve) instead of from scratch.
//
// The tableau is dense: the scheduling models it solves have a few hundred
// rows and columns, where dense tableaus are adequate. A Solver is reused
// across solves to pool the tableau allocation (the branch-and-bound hot
// loop), and Snapshot/Restore carry one optimal basis to many re-solves.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint relation.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	EQ              // a·x = b
	GE              // a·x ≥ b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return "?"
}

// Constraint is one row a·x (sense) b. Coef must have the problem's variable
// count; missing trailing zeros are allowed.
type Constraint struct {
	Coef  []float64
	Sense Sense
	RHS   float64
	Name  string // optional, for diagnostics
}

// Problem is an LP over n box-bounded variables. Lo and Up are optional:
// nil means every variable ranges over [0, +∞). When set they must have
// length NumVars; Lo entries must be finite (Up may be +Inf).
type Problem struct {
	NumVars int
	C       []float64 // minimize C·x; len == NumVars
	Rows    []Constraint
	Lo, Up  []float64 // variable bounds; nil = default [0, +Inf)
	// Tie, when set (len NumVars), breaks ties among optimal solutions:
	// of the optimal vertices the solver returns one minimizing Tie·x.
	// With generic weights that vertex does not depend on the pivot path
	// (cold or warm, with or without redundant rows), which is what keeps
	// a degenerate LP's answer the same under every solve strategy.
	Tie []float64
}

// NewProblem returns an empty minimization problem over n variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, C: make([]float64, n)}
}

// AddConstraint appends a row; coef may be shorter than NumVars.
func (p *Problem) AddConstraint(coef []float64, s Sense, rhs float64, name string) {
	row := make([]float64, p.NumVars)
	copy(row, coef)
	p.Rows = append(p.Rows, Constraint{Coef: row, Sense: s, RHS: rhs, Name: name})
}

// AddBound appends the single-variable constraint x_j (sense) v as a dense
// row. Prefer SetBounds, which the simplex handles natively; AddBound is
// the row-encoded reference the native bounds are tested against, and a
// shorthand for small test models.
func (p *Problem) AddBound(j int, s Sense, v float64, name string) {
	row := make([]float64, p.NumVars)
	row[j] = 1
	p.Rows = append(p.Rows, Constraint{Coef: row, Sense: s, RHS: v, Name: name})
}

// ensureBounds materializes the Lo/Up arrays at their defaults.
func (p *Problem) ensureBounds() {
	if p.Lo == nil {
		p.Lo = make([]float64, p.NumVars)
	}
	if p.Up == nil {
		p.Up = make([]float64, p.NumVars)
		for j := range p.Up {
			p.Up[j] = math.Inf(1)
		}
	}
}

// SetBounds sets lo ≤ x_j ≤ up. Use math.Inf(1) for an unbounded top.
func (p *Problem) SetBounds(j int, lo, up float64) {
	p.ensureBounds()
	p.Lo[j], p.Up[j] = lo, up
}

// Status is a solve outcome.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "?"
}

// Solution is the result of Solve or Resolve.
type Solution struct {
	Status    Status
	X         []float64 // primal values (valid when Optimal)
	Objective float64   // c·x (valid when Optimal)
	Pivots    int       // simplex iterations used (bound flips included)
	// Warm reports that Resolve answered from the held basis. False means
	// a cold two-phase solve produced the result (Solve, or a Resolve
	// that fell back); the pivots of an abandoned warm attempt are still
	// counted in Pivots.
	Warm bool
}

const (
	eps       = 1e-9
	maxPivots = 200000
	// checkTol is the scaled tolerance a warm result's X must meet on
	// every original row and bound before Resolve returns it.
	checkTol = 1e-7
)

// ErrPivotLimit is returned when the simplex exceeds its iteration budget,
// which on these models indicates a modelling bug rather than a hard LP.
var ErrPivotLimit = errors.New("lp: pivot limit exceeded")

// Solve runs the two-phase simplex with a throwaway Solver. Callers with a
// hot loop (internal/ilp solves thousands of closely related LPs) should
// allocate one Solver and reuse it.
func Solve(p *Problem) (*Solution, error) {
	return new(Solver).Solve(p)
}

// Solver is a reusable dense simplex. The zero value is ready to use; all
// scratch state (tableau backing array, basis, bound bookkeeping) is pooled
// across solves, so a reused Solver allocates little beyond the returned
// Solution.
// A Solver is not safe for concurrent use; give each goroutine its own.
type Solver struct {
	m, n int // tableau constraint rows; columns (structural+slack, +artificial in phase 1)
	nv   int // structural variables of the held problem
	rows int // constraint rows of the held problem

	flat  []float64   // backing storage for the tableau
	a     [][]float64 // row views into flat; a[m] is the objective row, a[m+1] the tie row
	basis []int       // basis[i] = column basic in row i

	ub   []float64 // per-column upper bound in shifted space (slack/art: +Inf)
	flip []bool    // column j is expressed as u_j − x_j (at its upper bound when nonbasic)
	lo   []float64 // structural lower bounds (the shift)
	up   []float64 // structural upper bounds, as given

	rowRHS  []float64 // shifted right-hand sides, before sign normalization
	artCols []int
	rowsNZ  *sparseRows // the held problem's rows, for checking a warm X

	// held: the tableau is a dual-feasible basis of the held problem's
	// rows and objective under the bounds in lo/up — after an Optimal
	// solve, and after a warm re-solve that ended Optimal or proved
	// infeasibility. Resolve starts from it; anything else clears it.
	held bool
}

// boundsOf returns x_j's box in p.
func boundsOf(p *Problem, j int) (lo, up float64) {
	lo, up = 0, math.Inf(1)
	if p.Lo != nil {
		lo = p.Lo[j]
	}
	if p.Up != nil {
		up = p.Up[j]
	}
	return lo, up
}

// check validates p's shape and bounds. It reports empty=true when some
// box is empty, which makes the problem infeasible before any pivot.
func check(p *Problem) (empty bool, err error) {
	if len(p.C) != p.NumVars {
		return false, fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.C), p.NumVars)
	}
	if p.Lo != nil && len(p.Lo) != p.NumVars {
		return false, fmt.Errorf("lp: Lo has %d entries for %d variables", len(p.Lo), p.NumVars)
	}
	if p.Up != nil && len(p.Up) != p.NumVars {
		return false, fmt.Errorf("lp: Up has %d entries for %d variables", len(p.Up), p.NumVars)
	}
	if p.Tie != nil && len(p.Tie) != p.NumVars {
		return false, fmt.Errorf("lp: Tie has %d entries for %d variables", len(p.Tie), p.NumVars)
	}
	for j := 0; j < p.NumVars; j++ {
		lo, up := boundsOf(p, j)
		if math.IsInf(lo, -1) || math.IsNaN(lo) {
			return false, fmt.Errorf("lp: variable %d has non-finite lower bound %g", j, lo)
		}
		if up < lo-eps {
			empty = true
		}
	}
	return empty, nil
}

// Solve runs the two-phase bounded-variable simplex.
//
// Internally every structural variable is shifted by its lower bound
// (x = lo + x̃, 0 ≤ x̃ ≤ up−lo) and nonbasic variables rest at either end of
// their range; a variable sitting at its upper bound is represented by the
// substitution x̃ → u − x̃ (the column and its reduced cost are negated), so
// the textbook "all nonbasic at zero" pivot rules apply unchanged. The
// ratio test gains two cases: a basic variable may leave at its *upper*
// bound, and the entering variable may hit its own opposite bound first —
// a bound flip that re-substitutes the column without any pivot.
//
// After an Optimal solve the Solver holds the final tableau, so Resolve
// can re-solve the same rows and objective under new bounds.
func (sv *Solver) Solve(p *Problem) (*Solution, error) {
	sv.held = false
	empty, err := check(p)
	if err != nil {
		return nil, err
	}
	sol := &Solution{}
	if empty {
		sol.Status = Infeasible
		return sol, nil
	}
	m := len(p.Rows)
	n := p.NumVars

	// Shift structural variables to lower bound zero.
	sv.lo = resize(sv.lo, n)
	sv.up = resize(sv.up, n)
	for j := 0; j < n; j++ {
		sv.lo[j], sv.up[j] = boundsOf(p, j)
	}

	// Substitute the shift into each RHS. A row whose shifted RHS is
	// negative is negated below (b ≥ 0, its sense mirrored) so phase 1 can
	// start from the slack/artificial basis; the sense decides whether
	// the row takes a slack, an artificial or both.
	sv.rowRHS = resize(sv.rowRHS, m)
	nz := &sparseRows{at: make([]int, 1, m+1)}
	nSlack, nArt := 0, 0
	for i, r := range p.Rows {
		rhs := r.RHS
		for j, c := range r.Coef[:min(len(r.Coef), n)] {
			if c != 0 {
				rhs -= c * sv.lo[j]
				nz.idx = append(nz.idx, j)
				nz.val = append(nz.val, c)
			}
		}
		nz.at = append(nz.at, len(nz.idx))
		sv.rowRHS[i] = rhs
		sense := normSense(r.Sense, rhs)
		if sense != EQ {
			nSlack++
		}
		if sense != LE {
			nArt++
		}
	}

	// Column layout: [structural | slacks/surplus | artificials | RHS].
	total := n + nSlack + nArt
	sv.m, sv.n, sv.nv, sv.rows = m, total, n, m
	sv.rowsNZ = nz
	sv.layout(m, total)
	for i := range sv.flat {
		sv.flat[i] = 0
	}
	sv.basis = resizeInt(sv.basis, m)
	sv.ub = resize(sv.ub, total)
	if cap(sv.flip) < total {
		sv.flip = make([]bool, total)
	}
	sv.flip = sv.flip[:total]
	for j := 0; j < total; j++ {
		sv.flip[j] = false
		sv.ub[j] = math.Inf(1)
		if j < n {
			sv.ub[j] = math.Max(sv.up[j]-sv.lo[j], 0)
		}
	}

	// Normalize each row straight into its tableau row.
	slackAt, artAt := n, n+nSlack
	sv.artCols = sv.artCols[:0]
	for i, r := range p.Rows {
		row := sv.a[i]
		rhs := sv.rowRHS[i]
		copy(row, r.Coef[:min(len(r.Coef), n)])
		if rhs < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		row[total] = rhs
		switch normSense(r.Sense, sv.rowRHS[i]) {
		case LE:
			row[slackAt] = 1
			sv.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			sv.basis[i] = artAt
			sv.artCols = append(sv.artCols, artAt)
			artAt++
		case EQ:
			row[artAt] = 1
			sv.basis[i] = artAt
			sv.artCols = append(sv.artCols, artAt)
			artAt++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := sv.a[m]
		for _, c := range sv.artCols {
			phase1[c] = 1
		}
		// Price out the basic artificials.
		for i := 0; i < m; i++ {
			if sv.a[m][sv.basis[i]] != 0 {
				sv.subtractRow(m, i, sv.a[m][sv.basis[i]])
			}
		}
		status, err := sv.primal(&sol.Pivots, sv.m)
		if err != nil {
			return nil, err
		}
		if status == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded means a bug.
			return nil, errors.New("lp: phase-1 reported unbounded")
		}
		if -sv.a[m][total] > 1e-7 {
			sol.Status = Infeasible
			return sol, nil
		}
		// Drive any lingering artificials out of the basis.
		for i := 0; i < m; i++ {
			if sv.basis[i] < n+nSlack {
				continue
			}
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(sv.a[i][j]) > eps {
					sv.pivot(i, j)
					break
				}
			}
		}
		sv.dropArtificials(n + nSlack)
	}

	// Phase 2: restore the real objective in shifted/flipped space and price
	// out the basis. The objective row's RHS cell tracks only the varying
	// part; the true objective is recomputed as c·x on extraction.
	objRow := sv.a[sv.m]
	for j := range objRow {
		objRow[j] = 0
	}
	for j := 0; j < n; j++ {
		if sv.flip[j] {
			objRow[j] = -p.C[j]
		} else {
			objRow[j] = p.C[j]
		}
	}
	for i := 0; i < sv.m; i++ {
		if c := objRow[sv.basis[i]]; c != 0 {
			sv.subtractRow(sv.m, i, c)
		}
	}
	status, err := sv.primal(&sol.Pivots, sv.m)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		sol.Status = Unbounded
		return sol, nil
	}
	if err := sv.breakTies(p, &sol.Pivots); err != nil {
		return nil, err
	}
	sv.extract(p, sol)
	sv.held = true
	return sol, nil
}

// breakTies moves an optimal tableau, along its optimal face, to the
// vertex minimizing p.Tie·x: the tie row is priced out against the basis,
// then the primal simplex runs on it with entry limited to columns whose
// objective reduced cost is zero. A face unbounded in the tie direction
// leaves the vertex where it stopped.
func (sv *Solver) breakTies(p *Problem, pivots *int) error {
	if p.Tie == nil {
		return nil
	}
	tr := sv.a[sv.m+1]
	for j := range tr {
		tr[j] = 0
	}
	for j := 0; j < sv.nv; j++ {
		if sv.flip[j] {
			tr[j] = -p.Tie[j]
		} else {
			tr[j] = p.Tie[j]
		}
	}
	for i := 0; i < sv.m; i++ {
		if c := tr[sv.basis[i]]; c != 0 {
			sv.subtractRow(sv.m+1, i, c)
		}
	}
	_, err := sv.primal(pivots, sv.m+1)
	return err
}

// normSense is a row's sense after the row is negated to make its shifted
// RHS non-negative.
func normSense(s Sense, rhs float64) Sense {
	if rhs < 0 {
		switch s {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return s
}

// layout sizes the tableau for m constraint rows, the objective row and
// the tie row, over total columns plus the RHS column, and re-slices the
// row views.
func (sv *Solver) layout(m, total int) {
	sv.flat = resize(sv.flat, (m+2)*(total+1))
	if cap(sv.a) < m+2 {
		sv.a = make([][]float64, m+2)
	}
	sv.a = sv.a[:m+2]
	for i := range sv.a {
		sv.a[i] = sv.flat[i*(total+1) : (i+1)*(total+1)]
	}
}

// dropArtificials compacts the tableau after phase 1 to its first keep
// columns plus the RHS. Artificial columns can never re-enter, and a row
// whose artificial is still basic after the drive-out has no nonzero left
// outside the artificials: it is a combination of the other rows, so it
// is dropped with them. Rows and columns only move toward the front of
// flat, so the copy runs in place.
func (sv *Solver) dropArtificials(keep int) {
	oldW := sv.n + 1
	m := 0
	for i := range sv.a {
		if i < sv.m && sv.basis[i] >= keep {
			continue // redundant row
		}
		src := sv.flat[i*oldW : (i+1)*oldW]
		dst := sv.flat[m*(keep+1) : (m+1)*(keep+1)]
		copy(dst, src[:keep])
		dst[keep] = src[sv.n]
		if i < sv.m {
			sv.basis[m] = sv.basis[i]
		}
		m++
	}
	m -= 2 // the objective and tie rows were counted
	sv.basis = sv.basis[:m]
	sv.ub = sv.ub[:keep]
	sv.flip = sv.flip[:keep]
	sv.m, sv.n = m, keep
	sv.flat = sv.flat[:(m+2)*(keep+1)]
	sv.a = sv.a[:m+2]
	for i := range sv.a {
		sv.a[i] = sv.flat[i*(keep+1) : (i+1)*(keep+1)]
	}
}

// extract reads the primal point off the tableau: basic variables read
// the RHS column, nonbasic ones sit at zero; flips are un-substituted and
// lower bounds un-shifted.
func (sv *Solver) extract(p *Problem, sol *Solution) {
	n := sv.nv
	sol.Status = Optimal
	sol.X = make([]float64, n)
	for j := 0; j < n; j++ {
		v := 0.0
		if sv.flip[j] {
			v = sv.ub[j]
		}
		sol.X[j] = sv.lo[j] + v
	}
	for i := 0; i < sv.m; i++ {
		if j := sv.basis[i]; j < n {
			v := sv.a[i][sv.n]
			if sv.flip[j] {
				v = sv.ub[j] - v
			}
			sol.X[j] = sv.lo[j] + v
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * sol.X[j]
	}
	sol.Objective = obj
}

// Resolve re-solves the problem this Solver last held — the same Rows and
// C, which the caller must not have changed — under p's Lo and Up. It is
// the warm start of branch and bound: the held optimal basis stays dual
// feasible when only bounds move, so a bounded dual simplex restores
// primal feasibility in a few pivots where a cold solve starts over.
//
//  1. Every column whose bound changed is re-shifted: the RHS column
//     absorbs the move of its lower (or, when flipped, upper) bound.
//  2. Each nonbasic column rests at the bound that makes its reduced cost
//     dual feasible; a negative reduced cost flips it to a finite upper
//     bound.
//  3. The dual simplex pivots out the basic variables that violate their
//     bounds until the basis is primal feasible (Optimal), or a violated
//     row admits no entering column — a dual ray, so Infeasible.
//  4. A primal pass mops up reduced costs that drifted negative, and
//     with Tie set the tie phase moves to the tie-broken vertex, as a
//     cold Solve does.
//
// Resolve falls back to a cold Solve (Warm false) when no basis is held,
// when step 2 meets a negative reduced cost with an infinite upper bound,
// when the dual simplex exceeds its pivot cap or stalls on a violation
// too small to prove infeasible, or when the optimal X fails a check
// against the original rows and bounds.
func (sv *Solver) Resolve(p *Problem) (*Solution, error) {
	if !sv.held || p.NumVars != sv.nv || len(p.Rows) != sv.rows {
		return sv.Solve(p)
	}
	empty, err := check(p)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Warm: true}
	if empty {
		sol.Status = Infeasible // the held basis is untouched and stays held
		return sol, nil
	}
	sv.rebound(p)
	if sv.placeDualFeasible() {
		status, ok := sv.dual(&sol.Pivots)
		if ok && status == Infeasible {
			sol.Status = Infeasible
			return sol, nil
		}
		if ok {
			status, err = sv.primal(&sol.Pivots, sv.m)
			if err == nil && status == Optimal {
				err = sv.breakTies(p, &sol.Pivots)
			}
			if err == nil && status == Optimal {
				sv.extract(p, sol)
				if sv.rowsNZ.satisfies(p, sol.X) {
					return sol, nil
				}
			}
		}
	}
	cold, err := sv.Solve(p) // Solve clears held before touching the tableau
	if err != nil {
		return nil, err
	}
	cold.Pivots += sol.Pivots
	return cold, nil
}

// rebound moves the held tableau to p's bounds. A column's tableau
// variable is x−lo, or up−x when flipped; moving that bound by δ shifts
// the RHS column by ∓δ·(column). A basic column is a unit vector, so the
// same update moves only its own row's value. A flipped column whose
// upper bound becomes infinite is first un-flipped.
func (sv *Solver) rebound(p *Problem) {
	rhs := sv.n
	for j := 0; j < sv.nv; j++ {
		lo, up := boundsOf(p, j)
		if lo == sv.lo[j] && up == sv.up[j] {
			continue
		}
		if sv.flip[j] && math.IsInf(up, 1) {
			sv.unflip(j)
		}
		d := lo - sv.lo[j]
		if sv.flip[j] {
			d = sv.up[j] - up
		}
		if d != 0 {
			for i := 0; i <= sv.m; i++ {
				if c := sv.a[i][j]; c != 0 {
					sv.a[i][rhs] -= c * d
				}
			}
		}
		sv.lo[j], sv.up[j] = lo, up
		sv.ub[j] = math.Max(up-lo, 0)
	}
}

// unflip returns flipped column j to the x−lo form: a basic column takes
// the complement of its row, a nonbasic one flips back to its lower bound.
func (sv *Solver) unflip(j int) {
	for i, b := range sv.basis {
		if b == j {
			sv.flipLeavingRow(i)
			return
		}
	}
	sv.flipColumn(j)
}

// placeDualFeasible rests every movable nonbasic column at the bound its
// reduced cost prefers: a negative reduced cost flips the column to its
// upper bound. It returns false when that bound is infinite.
func (sv *Solver) placeDualFeasible() bool {
	obj := sv.a[sv.m]
	for j := 0; j < sv.n; j++ {
		if obj[j] < -eps && sv.ub[j] > eps {
			if math.IsInf(sv.ub[j], 1) {
				return false
			}
			sv.flipColumn(j)
		}
	}
	return true
}

// dual runs the bounded-variable dual simplex from a dual-feasible
// basis. The leaving row is the basic variable farthest outside its box
// (ties to the lowest row); one above its upper bound first takes its
// complement (flipLeavingRow), so it always leaves at zero. The entering
// column minimizes d_j / −a_rj over the movable columns with a_rj < 0,
// which keeps every reduced cost non-negative; near-ties go to the larger
// pivot element. It returns Optimal once every basic variable is inside
// its box (feasibility tolerance 1e-9, scaled) and Infeasible when a row
// violated by more than checkTol admits no entering column. ok is false —
// give up and solve cold — at the pivot cap 2(m+n), and when only a
// smaller violation is left without an entering column.
func (sv *Solver) dual(pivots *int) (status Status, ok bool) {
	limit := *pivots + 2*(sv.m+sv.n)
	obj := sv.a[sv.m]
	for {
		r, worst, scale := -1, 0.0, 0.0
		for i := 0; i < sv.m; i++ {
			v := sv.a[i][sv.n]
			u := sv.ub[sv.basis[i]]
			viol := -v
			if v > u {
				viol = v - u
			}
			s := 1 + math.Abs(v)
			if viol > eps*s && viol > worst {
				r, worst, scale = i, viol, s
			}
		}
		if r == -1 {
			return Optimal, true
		}
		if *pivots >= limit {
			return Optimal, false
		}
		if sv.a[r][sv.n] > 0 {
			sv.flipLeavingRow(r)
		}
		row := sv.a[r]
		col, best, bestPiv := -1, math.Inf(1), 0.0
		for j := 0; j < sv.n; j++ {
			arj := row[j]
			if arj >= -eps || sv.ub[j] <= eps {
				continue
			}
			ratio := math.Max(obj[j], 0) / -arj
			if ratio < best-eps || (ratio < best+eps && -arj > bestPiv) {
				col, best, bestPiv = j, ratio, -arj
			}
		}
		if col == -1 {
			return Infeasible, worst > checkTol*scale
		}
		sv.pivot(r, col)
		*pivots++
	}
}

// sparseRows is a problem's constraint matrix in compressed row form:
// row i's nonzeros are idx/val[at[i]:at[i+1]]. Solve builds a new one for
// every problem it holds, so snapshots share it read-only.
type sparseRows struct {
	at  []int
	idx []int
	val []float64
}

// satisfies checks x against every row (the coefficients in z, the sense
// and RHS in p) and every bound of p within checkTol, scaled by the
// magnitude of the terms involved.
func (z *sparseRows) satisfies(p *Problem, x []float64) bool {
	for j := range x {
		lo, up := boundsOf(p, j)
		if x[j] < lo-checkTol*(1+math.Abs(lo)) || x[j] > up+checkTol*(1+math.Abs(up)) {
			return false
		}
	}
	for i, r := range p.Rows {
		dot, mag := 0.0, math.Abs(r.RHS)
		for k := z.at[i]; k < z.at[i+1]; k++ {
			t := z.val[k] * x[z.idx[k]]
			dot += t
			mag += math.Abs(t)
		}
		tol := checkTol * (1 + mag)
		switch r.Sense {
		case LE:
			if dot > r.RHS+tol {
				return false
			}
		case GE:
			if dot < r.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(dot-r.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// Snapshot is a saved copy of a Solver's held tableau, taken after an
// optimal solve. Restoring it into any Solver (one per worker) makes that
// Solver's next Resolve a pure function of the snapshot and the new
// bounds, whatever the Solver solved before.
type Snapshot struct {
	m, n, nv, rows int
	rowsNZ         *sparseRows
	flat           []float64
	basis          []int
	ub, lo, up     []float64
	flip           []bool
}

// Snapshot copies the held tableau, or returns nil when none is held.
// The tableau carries no artificial columns (phase 1 drops them), so the
// copy is (rows+1)×(structural+slack+1) floats.
func (sv *Solver) Snapshot() *Snapshot {
	if !sv.held {
		return nil
	}
	return &Snapshot{
		m: sv.m, n: sv.n, nv: sv.nv, rows: sv.rows, rowsNZ: sv.rowsNZ,
		flat:  append([]float64(nil), sv.flat...),
		basis: append([]int(nil), sv.basis...),
		ub:    append([]float64(nil), sv.ub...),
		lo:    append([]float64(nil), sv.lo...),
		up:    append([]float64(nil), sv.up...),
		flip:  append([]bool(nil), sv.flip...),
	}
}

// Restore makes s the Solver's held tableau, reusing its buffers.
func (sv *Solver) Restore(s *Snapshot) {
	sv.m, sv.n, sv.nv, sv.rows, sv.rowsNZ = s.m, s.n, s.nv, s.rows, s.rowsNZ
	sv.layout(s.m, s.n)
	copy(sv.flat, s.flat)
	sv.basis = append(sv.basis[:0], s.basis...)
	sv.ub = append(sv.ub[:0], s.ub...)
	sv.lo = append(sv.lo[:0], s.lo...)
	sv.up = append(sv.up[:0], s.up...)
	sv.flip = append(sv.flip[:0], s.flip...)
	sv.held = true
}

// subtractRow does a[target] -= factor * a[row], including the RHS.
func (sv *Solver) subtractRow(target, row int, factor float64) {
	tr, sr := sv.a[target], sv.a[row]
	for j := 0; j <= sv.n; j++ {
		tr[j] -= factor * sr[j]
	}
}

// pivot makes column col basic in row row.
func (sv *Solver) pivot(row, col int) {
	pr := sv.a[row]
	pv := pr[col]
	for j := 0; j <= sv.n; j++ {
		pr[j] /= pv
	}
	pr[col] = 1 // exact
	for i := range sv.a {
		if i == row {
			continue
		}
		if f := sv.a[i][col]; math.Abs(f) > 0 {
			sv.subtractRow(i, row, f)
			sv.a[i][col] = 0 // exact
		}
	}
	sv.basis[row] = col
}

// flipColumn re-substitutes column col between x̃ and u−x̃: the RHS column
// absorbs u·a[i][col] and the column negates, moving the nonbasic variable
// from one bound to the other without a pivot.
func (sv *Solver) flipColumn(col int) {
	u := sv.ub[col]
	for i := range sv.a {
		if c := sv.a[i][col]; c != 0 {
			sv.a[i][sv.n] -= c * u
			sv.a[i][col] = -c
		}
	}
	sv.flip[col] = !sv.flip[col]
}

// flipLeavingRow substitutes the basic variable of row r by its
// upper-bound complement before a pivot in which it leaves at its upper
// bound: the whole row negates (its own unit coefficient restored to +1)
// and the RHS becomes u − rhs, so the standard pivot arithmetic applies.
func (sv *Solver) flipLeavingRow(r int) {
	l := sv.basis[r]
	u := sv.ub[l]
	row := sv.a[r]
	for j := 0; j <= sv.n; j++ {
		row[j] = -row[j]
	}
	row[l] = 1
	row[sv.n] += u
	sv.flip[l] = !sv.flip[l]
}

// primal runs the primal simplex, priced on tableau row price, to
// optimality, unboundedness or the pivot cap. The price row is the
// objective row, or the tie row; then only columns with a zero objective
// reduced cost may enter, so every pivot stays on the optimal face.
//
// Anti-cycling: Dantzig pricing (most negative reduced cost) is used while
// the objective makes progress; after 2(m+n) stalled iterations the pricing
// falls back to Bland's rule (first eligible column, smallest basis index on
// ratio-test ties), which provably terminates on degenerate tableaus. Bound
// flips move a variable by its full range u > 0 and are therefore never
// degenerate, so Bland's argument carries over to the bounded simplex.
func (sv *Solver) primal(pivots *int, price int) (Status, error) {
	obj := sv.a[sv.m]
	stall := 0
	lastObj := math.Inf(1)
	for {
		if *pivots >= maxPivots {
			return Optimal, ErrPivotLimit
		}
		bland := stall > 2*(sv.m+sv.n)

		// Entering column: most negative reduced cost (Dantzig) or first
		// negative (Bland). Columns with an empty range (fixed variables,
		// blanked artificials) can never move and are skipped.
		col := -1
		best := -eps
		for j := 0; j < sv.n; j++ {
			rc := sv.a[price][j]
			if rc < -eps && sv.ub[j] > eps && (price == sv.m || obj[j] <= eps) {
				if bland {
					col = j
					break
				}
				if rc < best {
					best, col = rc, j
				}
			}
		}
		if col == -1 {
			return Optimal, nil
		}

		// Ratio test over three limits: a basic variable reaching its lower
		// bound (a>0), a basic variable reaching its finite upper bound
		// (a<0), or the entering variable reaching its own upper bound.
		// Bland tie-break on basis index among rows; the entering variable's
		// own bound wins near-ties (a flip is cheaper than a pivot and
		// strictly advances).
		row := -1
		leaveAtUpper := false
		bestRatio := sv.ub[col]
		for i := 0; i < sv.m; i++ {
			aij := sv.a[i][col]
			if aij > eps {
				ratio := sv.a[i][sv.n] / aij
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && row != -1 && sv.basis[i] < sv.basis[row]) {
					bestRatio, row, leaveAtUpper = ratio, i, false
				}
			} else if aij < -eps {
				ubB := sv.ub[sv.basis[i]]
				if math.IsInf(ubB, 1) {
					continue
				}
				ratio := (ubB - sv.a[i][sv.n]) / -aij
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && row != -1 && sv.basis[i] < sv.basis[row]) {
					bestRatio, row, leaveAtUpper = ratio, i, true
				}
			}
		}
		if row == -1 {
			if math.IsInf(bestRatio, 1) {
				return Unbounded, nil
			}
			sv.flipColumn(col)
		} else {
			if leaveAtUpper {
				sv.flipLeavingRow(row)
			}
			sv.pivot(row, col)
		}
		*pivots++

		if v := -sv.a[price][sv.n]; v < lastObj-eps {
			stall = 0
			lastObj = v
		} else {
			stall++
		}
	}
}

// resize returns s with length n, reusing capacity.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
