package rng

import (
	"math"
	"testing"
	"testing/quick"

	"nprt/internal/task"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split(1)
	c2 := root.Split(2)
	c1again := New(7).Split(1)
	for i := 0; i < 100; i++ {
		v1, v2, v1a := c1.Uint64(), c2.Uint64(), c1again.Uint64()
		if v1 != v1a {
			t.Fatalf("Split(1) not reproducible at step %d", i)
		}
		if v1 == v2 {
			t.Fatalf("Split(1) and Split(2) collided at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values in 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestGaussianMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Gaussian()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Gaussian mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Gaussian variance = %g, want ~1", variance)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal(10,2) mean = %g", mean)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(5, 10, 2, 8)
		if v < 2 || v > 8 {
			t.Fatalf("TruncNormal escaped bounds: %g", v)
		}
	}
	// Only lower bound when max <= min.
	for i := 0; i < 1000; i++ {
		if v := r.TruncNormal(0, 3, 1, 0); v < 1 {
			t.Fatalf("lower-only truncation violated: %g", v)
		}
	}
}

func TestTruncNormalDegenerateSigma(t *testing.T) {
	r := New(19)
	if v := r.TruncNormal(5, 0, 0, 10); v != 5 {
		t.Errorf("sigma=0 should return mean, got %g", v)
	}
	if v := r.TruncNormal(-3, 0, 0, 10); v != 0 {
		t.Errorf("sigma=0 below min should clamp to min, got %g", v)
	}
	if v := r.TruncNormal(30, 0, 0, 10); v != 10 {
		t.Errorf("sigma=0 above max should clamp to max, got %g", v)
	}
}

func TestTruncNormalImpossibleWindowFallsBack(t *testing.T) {
	// Mean far outside a narrow window: rejection will exhaust and clamp.
	r := New(23)
	v := r.TruncNormal(1000, 0.001, 0, 1)
	if v < 0 || v > 1 {
		t.Errorf("fallback clamp failed: %g", v)
	}
}

func TestSampleDuration(t *testing.T) {
	r := New(29)
	d := task.Dist{Mean: 50, Sigma: 10, Min: 5, Max: 100}
	for i := 0; i < 5000; i++ {
		v := r.SampleDuration(d, 60)
		if v < 1 || v > 60 {
			t.Fatalf("SampleDuration out of [1,60]: %d", v)
		}
	}
	// Zero dist: deterministic at cap.
	if v := r.SampleDuration(task.Dist{}, 42); v != 42 {
		t.Errorf("zero dist should yield cap, got %d", v)
	}
	if v := r.SampleDuration(task.Dist{}, 0); v != 1 {
		t.Errorf("zero dist with no cap should yield 1, got %d", v)
	}
}

func TestSampleErrorNonNegative(t *testing.T) {
	r := New(31)
	d := task.Dist{Mean: 0, Sigma: 3}
	for i := 0; i < 5000; i++ {
		if v := r.SampleError(d); v < 0 {
			t.Fatalf("SampleError negative: %g", v)
		}
	}
}

func TestSampleErrorMeanTracksParameter(t *testing.T) {
	r := New(37)
	d := task.Dist{Mean: 8, Sigma: 1}
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.SampleError(d)
	}
	if mean := sum / n; math.Abs(mean-8) > 0.05 {
		t.Errorf("SampleError mean = %g, want ~8", mean)
	}
}

// Property: any seed yields a usable stream whose Float64 stays in range.
func TestAnySeedUsable(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 10; i++ {
			if v := r.Float64(); v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Snapshot/restore must resume the stream bit-identically, including across
// a cached Box–Muller half (the Gaussian pair state).
func TestStateRoundTrip(t *testing.T) {
	r := New(99)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	r.Gaussian() // leave a cached second half in the state
	st := r.State()
	clone, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := r.Gaussian(), clone.Gaussian(); a != b {
			t.Fatalf("restored stream diverged at Gaussian %d: %v vs %v", i, a, b)
		}
		if a, b := r.Uint64(), clone.Uint64(); a != b {
			t.Fatalf("restored stream diverged at Uint64 %d: %d vs %d", i, a, b)
		}
	}
}

func TestStateIsValue(t *testing.T) {
	r := New(7)
	st := r.State()
	r.Uint64() // must not retroactively change the snapshot
	clone, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(7)
	if clone.Uint64() != r2.Uint64() {
		t.Fatal("snapshot taken before a draw must replay that draw")
	}
}

func TestFromStateRejectsZero(t *testing.T) {
	if _, err := FromState(State{}); err != ErrZeroState {
		t.Fatalf("all-zero state: got err=%v, want ErrZeroState", err)
	}
}

// TestGaussianMatchesSeparateSinCos holds Gaussian to the Box–Muller
// formula written with separate math.Sin and math.Cos calls, bit for bit,
// over many draws and over angles at the quadrant boundaries, where an
// argument reduction would first differ.
func TestGaussianMatchesSeparateSinCos(t *testing.T) {
	ref := func(u, v float64) (float64, float64) {
		m := math.Sqrt(-2 * math.Log(u))
		return m * math.Cos(2*math.Pi*v), m * math.Sin(2*math.Pi*v)
	}
	r, src := New(2027), New(2027)
	for i := 0; i < 1_000_000; i++ {
		var u float64
		for u == 0 {
			u = src.Float64()
		}
		first, second := ref(u, src.Float64())
		if got := r.Gaussian(); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("pair %d first member: %v, separate Sin/Cos gives %v", i, got, first)
		}
		if got := r.Gaussian(); math.Float64bits(got) != math.Float64bits(second) {
			t.Fatalf("pair %d second member: %v, separate Sin/Cos gives %v", i, got, second)
		}
	}
	for q := 0; q <= 4; q++ {
		for _, d := range []float64{-1e-12, 0, 1e-12} {
			x := float64(q)*math.Pi/2 + d
			sin, cos := math.Sincos(x)
			if math.Float64bits(sin) != math.Float64bits(math.Sin(x)) ||
				math.Float64bits(cos) != math.Float64bits(math.Cos(x)) {
				t.Fatalf("Sincos(%v) = %v, %v; Sin, Cos = %v, %v", x, sin, cos, math.Sin(x), math.Cos(x))
			}
		}
	}
}
