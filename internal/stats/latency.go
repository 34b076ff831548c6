package stats

import (
	"math/bits"
	"time"
)

// The HdrHistogram layout at 6 bits of sub-bucket precision: every power
// of two (octave) from 64 ns up is split into latencySub equal buckets.
// Durations below 128 ns get a bucket each and are exact; a larger
// duration shares its bucket only with values within 2^-6 of it.
const (
	latencySubBits = 6
	latencySub     = 1 << latencySubBits
	// latencyBuckets covers every non-negative time.Duration (< 2^63).
	latencyBuckets = (64 - latencySubBits) * latencySub
)

// LatencyHistogram is a log-bucketed histogram of durations. Record is
// O(1); Merge, Quantile and Reset touch only the used range of buckets,
// from the lowest (lo) to the one holding the max, and none allocates. The
// zero value is ready to use. Two histograms that saw the same samples are
// equal (==) whatever order the samples came in and however they were
// merged.
type LatencyHistogram struct {
	counts [latencyBuckets]uint64
	lo     int // lowest used bucket; 0 while empty
	total  uint64
	sum    uint64
	max    uint64
}

// latencyIdx maps a non-negative duration to its bucket.
func latencyIdx(v uint64) int {
	if v < latencySub {
		return int(v)
	}
	exp := bits.Len64(v) - latencySubBits - 1 // halvings that bring v into [64,128)
	return exp*latencySub + int(v>>uint(exp))
}

// latencyMid is the midpoint of bucket i, the inverse of latencyIdx.
func latencyMid(i int) uint64 {
	if i < latencySub {
		return uint64(i)
	}
	exp := uint(i/latencySub - 1)
	sub := uint64(i%latencySub + latencySub)
	return sub<<exp + 1<<exp/2
}

// used returns the used range of buckets, [lo, hi); empty while empty.
func (h *LatencyHistogram) used() (lo, hi int) {
	if h.total == 0 {
		return 0, 0
	}
	return h.lo, latencyIdx(h.max) + 1
}

// Record adds one sample. Negative durations count as zero.
func (h *LatencyHistogram) Record(d time.Duration) {
	v := uint64(max(d, 0))
	i := latencyIdx(v)
	if h.total == 0 || i < h.lo {
		h.lo = i
	}
	h.counts[i]++
	h.total++
	h.sum += v
	h.max = max(h.max, v)
}

// Merge folds o's samples into h.
func (h *LatencyHistogram) Merge(o *LatencyHistogram) {
	if o.total == 0 {
		return
	}
	if h.total == 0 || o.lo < h.lo {
		h.lo = o.lo
	}
	lo, hi := o.used()
	for i := lo; i < hi; i++ {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// Reset empties the histogram, clearing only the used buckets.
func (h *LatencyHistogram) Reset() {
	lo, hi := h.used()
	clear(h.counts[lo:hi])
	h.lo, h.total, h.sum, h.max = 0, 0, 0, 0
}

// Count returns the number of samples.
func (h *LatencyHistogram) Count() uint64 { return h.total }

// Max returns the largest sample, exactly (0 when empty).
func (h *LatencyHistogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the mean sample (0 when empty).
func (h *LatencyHistogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / h.total)
}

// Quantile returns the q-quantile (0 < q <= 1): the midpoint of the
// bucket holding the sample of 0-based rank ⌊q·n⌋, capped at Max. Zero
// when empty.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := min(uint64(q*float64(h.total)), h.total-1)
	var seen uint64
	lo, hi := h.used()
	for i := lo; i < hi; i++ {
		seen += h.counts[i]
		if seen > rank {
			return time.Duration(min(latencyMid(i), h.max))
		}
	}
	return h.Max()
}
