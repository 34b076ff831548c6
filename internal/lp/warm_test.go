package lp

import (
	"math"
	"testing"

	"nprt/internal/rng"
)

// warmChain builds a random box LP from draw around a planted feasible
// point, sometimes with Tie weights, solves it cold to hold a basis, then
// walks a chain of random bound tightenings, relaxations, fixes and empty
// boxes. At every step Resolve (warm, on the same Solver) and a fresh cold
// Solve must agree on status and, when Optimal, on the objective within
// 1e-7 scaled; a warm optimum must satisfy every row and bound, and with
// Tie weights (which make the optimal vertex unique) it must be the cold
// solve's X. It returns how many steps were answered warm and how many
// were taken.
func warmChain(t testing.TB, draw func(n int) int) (warm, steps int) {
	t.Helper()
	n := 1 + draw(6)
	p := NewProblem(n)
	lo := make([]float64, n)
	up := make([]float64, n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = float64(draw(25)-12) / 2
		lo[j] = float64(draw(5) - 2)
		w := draw(6)
		up[j] = lo[j] + float64(w)
		if draw(4) == 0 {
			up[j] = math.Inf(1)
		}
		x0[j] = lo[j] + float64(draw(w+1))
	}
	for i, rows := 0, draw(6); i < rows; i++ {
		coef := make([]float64, n)
		dot := 0.0
		for j := range coef {
			coef[j] = float64(draw(7) - 3)
			dot += coef[j] * x0[j]
		}
		sense := Sense(draw(3))
		switch sense {
		case LE:
			dot += float64(draw(3))
		case GE:
			dot -= float64(draw(3))
		}
		p.AddConstraint(coef, sense, dot, "")
	}
	p.Lo, p.Up = lo, up
	if draw(2) == 0 {
		p.Tie = make([]float64, n)
		for j := range p.Tie {
			_, f := math.Modf(float64(j) * math.Phi)
			p.Tie[j] = 1 + f
		}
	}

	sv := new(Solver)
	if _, err := sv.Solve(p); err != nil {
		t.Fatalf("initial solve: %v", err)
	}
	for step, chain := 0, 1+draw(12); step < chain; step++ {
		j := draw(n)
		switch draw(6) {
		case 0: // tighten the lower bound
			lo[j]++
		case 1: // tighten the upper bound
			if math.IsInf(up[j], 1) {
				up[j] = lo[j] + float64(draw(4))
			} else {
				up[j]--
			}
		case 2: // relax the lower bound
			lo[j] -= float64(1 + draw(2))
		case 3: // relax the upper bound, sometimes to +Inf
			if draw(3) == 0 {
				up[j] = math.Inf(1)
			} else {
				up[j] += float64(1 + draw(2))
			}
		case 4: // fix inside the old box
			v := lo[j] + float64(draw(3))
			if v > up[j] {
				v = up[j]
			}
			lo[j], up[j] = v, v
		case 5: // fix a binary-like variable to 0 or 1
			v := float64(draw(2))
			lo[j], up[j] = v, v
		}
		w, err := sv.Resolve(p)
		if err != nil {
			t.Fatalf("step %d: Resolve: %v", step, err)
		}
		c, err := Solve(p)
		if err != nil {
			t.Fatalf("step %d: Solve: %v", step, err)
		}
		steps++
		if w.Warm {
			warm++
		}
		if w.Status != c.Status {
			t.Fatalf("step %d (warm=%v): status warm=%v cold=%v (lo=%v up=%v)", step, w.Warm, w.Status, c.Status, lo, up)
		}
		if c.Status != Optimal {
			continue
		}
		if math.Abs(w.Objective-c.Objective) > 1e-7*(1+math.Abs(c.Objective)) {
			t.Fatalf("step %d (warm=%v): objective warm=%.12g cold=%.12g", step, w.Warm, w.Objective, c.Objective)
		}
		if !sv.rowsNZ.satisfies(p, w.X) {
			t.Fatalf("step %d (warm=%v): warm X %v violates the problem", step, w.Warm, w.X)
		}
		if p.Tie != nil {
			for j := range w.X {
				if math.Abs(w.X[j]-c.X[j]) > 1e-7*(1+math.Abs(c.X[j])) {
					t.Fatalf("step %d (warm=%v): tie-broken X warm=%v cold=%v", step, w.Warm, w.X, c.X)
				}
			}
		}
	}
	return warm, steps
}

// TestWarmResolveMatchesCold runs warmChain on 600 seeded random box LPs.
// The warm path must carry most of the steps: a Resolve that always fell
// back would pass the comparison while testing nothing.
func TestWarmResolveMatchesCold(t *testing.T) {
	r := rng.New(0x5A12_2026)
	warm, steps := 0, 0
	for trial := 0; trial < 600; trial++ {
		w, s := warmChain(t, r.Intn)
		warm += w
		steps += s
	}
	if warm*10 < steps*7 {
		t.Fatalf("only %d of %d re-solves stayed warm", warm, steps)
	}
	t.Logf("%d of %d re-solves warm", warm, steps)
}

// FuzzWarmResolve drives warmChain from fuzzer bytes: each draw consumes
// one byte (zero once the input runs out).
func FuzzWarmResolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 7, 0, 4, 2, 5, 1, 3, 9, 2, 1, 0, 5, 4, 3, 2, 1, 8, 6})
	f.Add([]byte{5, 24, 4, 5, 3, 0, 4, 2, 5, 1, 5, 6, 3, 3, 2, 1, 0, 6, 2, 14, 11, 3, 1, 4, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		warmChain(t, draw)
	})
}
