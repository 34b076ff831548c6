package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.StdDev() != 0 || a.N() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Error("zero-value accumulator should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", a.Mean())
	}
	if math.Abs(a.StdDev()-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2 (classic Wikipedia example)", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %g/%g", a.Min(), a.Max())
	}
	if s := a.String(); !strings.Contains(s, "n=8") {
		t.Errorf("String = %q", s)
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 || a.Mean() != 3.5 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Errorf("single sample stats wrong: %+v", a)
	}
}

func TestRate(t *testing.T) {
	var r Rate
	if r.Fraction() != 0 {
		t.Error("empty rate should be 0")
	}
	r.Hit()
	r.Miss()
	r.Miss()
	r.Record(true)
	if r.Events != 2 || r.Trials != 4 {
		t.Errorf("rate = %d/%d", r.Events, r.Trials)
	}
	if math.Abs(r.Fraction()-0.5) > 1e-12 || math.Abs(r.Percent()-50) > 1e-12 {
		t.Errorf("fraction/percent = %g/%g", r.Fraction(), r.Percent())
	}
	if s := r.String(); !strings.Contains(s, "2/4") {
		t.Errorf("String = %q", s)
	}
}

// Property: streaming accumulator matches the direct two-pass formulas.
func TestAccumulatorMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var a Accumulator
		for i, v := range raw {
			xs[i] = float64(v) / 7
			a.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return math.Abs(a.Mean()-mean) < 1e-6 &&
			math.Abs(a.StdDev()-math.Sqrt(ss/float64(len(xs)))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
