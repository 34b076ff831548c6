package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogram(t *testing.T) {
	var h LatencyHistogram
	for _, d := range []time.Duration{5, 100, 1000, time.Millisecond, 3 * time.Millisecond} {
		h.Record(d)
	}
	h.Record(-7) // counts as zero
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Max() != 3*time.Millisecond {
		t.Errorf("Max = %v, want 3ms", h.Max())
	}
	if want := (5 + 100 + 1000 + 4*time.Millisecond) / 6; h.Mean() != want {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
	if got := h.Quantile(0.01); got != 0 {
		t.Errorf("Quantile(0.01) = %v, want the clamped negative sample 0", got)
	}
	if got := h.Quantile(0.4); got != 100 {
		t.Errorf("Quantile(0.4) = %v, want the exact sub-128ns sample 100", got)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.7, time.Millisecond}, {1, 3 * time.Millisecond}} {
		if got := h.Quantile(c.q); math.Abs(float64(got-c.want)) > float64(c.want)/64 {
			t.Errorf("Quantile(%g) = %v, want %v within 2^-6", c.q, got, c.want)
		}
	}
	// The top bucket holds the largest duration.
	var top LatencyHistogram
	top.Record(math.MaxInt64)
	if got := top.Quantile(0.5); math.MaxInt64-got > math.MaxInt64/64 {
		t.Errorf("Quantile of MaxInt64 = %v", got)
	}
	// Record, Merge and Quantile never allocate.
	var o LatencyHistogram
	if n := testing.AllocsPerRun(100, func() {
		o.Record(time.Microsecond)
		h.Merge(&o)
		_ = h.Quantile(0.99)
	}); n != 0 {
		t.Errorf("allocs per record+merge+quantile = %v, want 0", n)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h LatencyHistogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestMerge(t *testing.T) {
	var a, b, whole LatencyHistogram
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * 777 * time.Microsecond
		whole.Record(d)
		if i < 4 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Errorf("merged histogram differs from the whole: count %d max %v, want %d %v",
			a.Count(), a.Max(), whole.Count(), whole.Max())
	}
	// Merging empty is a no-op; merging into empty copies.
	var empty, c LatencyHistogram
	a.Merge(&empty)
	c.Merge(&whole)
	if a != whole || c != whole {
		t.Error("merge with an empty histogram changed the result")
	}
}

// Property: merge of a random split equals the whole.
func TestMergeEqualsWholeProperty(t *testing.T) {
	f := func(raw []int64, cut uint8) bool {
		xs := make([]time.Duration, len(raw))
		for i, v := range raw {
			xs[i] = time.Duration(v)
		}
		k := 0
		if len(xs) > 0 {
			k = int(cut) % len(xs)
		}
		return checkLatencyOracle(t, xs[:k], xs[k:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLatencyHistogramOracle is the seeded twin of FuzzLatencyHistogram:
// log-uniform samples from 0 to 2^62 ns, with ties, held to a sorted copy.
// Reset clears only the used range of buckets, so a histogram reset and
// reused must equal a fresh one that saw only the later samples, whichever
// end of the old range the new samples fall on.
func TestLatencyHistogramReset(t *testing.T) {
	sets := [][]time.Duration{
		{3, 90, 4000, time.Second},
		{time.Millisecond},
		{0, 70, 70, 1 << 40},
		{},
		{5 * time.Microsecond, 2},
	}
	var h LatencyHistogram
	for i, set := range sets {
		h.Reset()
		var fresh LatencyHistogram
		for _, d := range set {
			h.Record(d)
			fresh.Record(d)
		}
		if h != fresh {
			t.Fatalf("set %d: reused histogram differs from a fresh one", i)
		}
	}
	h.Reset()
	if h != (LatencyHistogram{}) {
		t.Fatal("Reset left samples behind")
	}
}

func TestLatencyHistogramOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		xs := make([]time.Duration, n)
		for i := range xs {
			if i > 0 && rng.Intn(8) == 0 {
				xs[i] = xs[rng.Intn(i)] // a tie
				continue
			}
			xs[i] = time.Duration(rng.Int63() >> rng.Intn(63))
		}
		if !checkLatencyOracle(t, xs[:n/3], xs[n/3:]) {
			t.Fatalf("trial %d: %v", trial, xs)
		}
	}
}

// FuzzLatencyHistogram decodes the input as little-endian 8-byte words,
// each a sample shifted right by a count taken from its own low bits so
// the samples spread over every octave, and holds the histogram to a
// sorted copy.
func FuzzLatencyHistogram(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 63, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x7f0123456789abcdef\x00\x00\x10\x00\x00\x00\x00\x00"), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		var xs []time.Duration
		for ; len(data) >= 8; data = data[8:] {
			w := binary.LittleEndian.Uint64(data)
			xs = append(xs, time.Duration(w>>(1+w%63)))
		}
		k := 0
		if len(xs) > 0 {
			k = int(cut) % (len(xs) + 1)
		}
		checkLatencyOracle(t, xs[:k], xs[k:])
	})
}

// checkLatencyOracle records a and b into two histograms and both into a
// third, and checks that the merged pair equals the third and that every
// quantile is within 2^-6 of the exact order statistic of the sorted
// samples, exact below 64 ns and never above the max.
func checkLatencyOracle(t *testing.T, a, b []time.Duration) bool {
	t.Helper()
	var ha, hb, whole LatencyHistogram
	sorted := make([]time.Duration, 0, len(a)+len(b))
	for i, xs := range [][]time.Duration{a, b} {
		for _, x := range xs {
			[]*LatencyHistogram{&ha, &hb}[i].Record(x)
			whole.Record(x)
			sorted = append(sorted, max(x, 0))
		}
	}
	ha.Merge(&hb)
	if ha != whole {
		t.Errorf("merge of %d+%d samples differs from recording them into one", len(a), len(b))
		return false
	}
	n := len(sorted)
	if whole.Count() != uint64(n) {
		t.Errorf("Count = %d, want %d", whole.Count(), n)
		return false
	}
	if n == 0 {
		return whole.Quantile(0.5) == 0 && whole.Max() == 0
	}
	slices.Sort(sorted)
	if whole.Max() != sorted[n-1] {
		t.Errorf("Max = %v, want %v", whole.Max(), sorted[n-1])
		return false
	}
	for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		exact := sorted[min(int(q*float64(n)), n-1)]
		got := whole.Quantile(q)
		diff := got - exact
		if diff < 0 {
			diff = -diff
		}
		switch {
		case got > whole.Max():
			t.Errorf("Quantile(%g) = %v above the max %v", q, got, whole.Max())
		case exact < 64 && got != exact:
			t.Errorf("Quantile(%g) = %v, want exactly %v", q, got, exact)
		case float64(diff) > float64(exact)/64:
			t.Errorf("Quantile(%g) = %v, exact %v: error over 2^-6", q, got, exact)
		default:
			continue
		}
		return false
	}
	return true
}
