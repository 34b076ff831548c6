package cluster

import (
	"sync"
	"time"

	"nprt/internal/stats"
)

// LatencyTracker aggregates per-op WAL sojourn samples into a sliding
// window of per-epoch histograms and answers quantile queries over the
// window. Samples land in a stats.LatencyHistogram (within 2^-6 of the
// true value), so Record is O(1) and the tracker never allocates after
// construction. The window advances on epoch boundaries: Advance(e)
// clears the histograms that fall out of the window. A query merges the
// window into one scratch histogram. Clears and merges touch only each
// histogram's used buckets, a few octaves for WAL sojourns. Evaluate quantiles BEFORE advancing
// past the epoch whose samples you want included.
//
// Safe for concurrent use: Record fires from the journal Observe hook on
// whatever goroutine drives the shard's WAL, while Advance/Quantile run
// under the cluster lock.
type LatencyTracker struct {
	mu     sync.Mutex
	epoch  int64
	ring   []stats.LatencyHistogram // one per epoch in the window
	head   int                      // ring slot holding the current epoch
	merged stats.LatencyHistogram   // scratch: the ring merged by Quantile
}

// NewLatencyTracker builds a tracker retaining `window` epochs of samples
// (minimum 1; window 1 means "the current epoch only" — per-tick p99).
func NewLatencyTracker(window int) *LatencyTracker {
	return &LatencyTracker{ring: make([]stats.LatencyHistogram, max(window, 1))}
}

// Record adds one sample to the current epoch's histogram.
func (t *LatencyTracker) Record(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.head].Record(d)
}

// Advance moves the tracker to epoch e, clearing the histograms that fall
// out of the window. A no-op when e is not past the current epoch. A jump
// of `window` or more epochs clears everything.
func (t *LatencyTracker) Advance(e int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e <= t.epoch {
		return
	}
	steps := min(e-t.epoch, int64(len(t.ring)))
	for s := int64(0); s < steps; s++ {
		t.head = (t.head + 1) % len(t.ring)
		t.ring[t.head].Reset()
	}
	t.epoch = e
}

// Quantile returns the q-quantile (0 < q <= 1) over the window, never
// above the window's largest sample. Zero when no samples.
func (t *LatencyTracker) Quantile(q float64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.merged.Reset()
	for i := range t.ring {
		t.merged.Merge(&t.ring[i])
	}
	return t.merged.Quantile(q)
}

// Count returns the number of samples currently in the window.
func (t *LatencyTracker) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for i := range t.ring {
		n += t.ring[i].Count()
	}
	return n
}

// Reset drops all samples but keeps the epoch position — used after a
// promotion replaces the device the samples described.
func (t *LatencyTracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.ring {
		t.ring[i].Reset()
	}
}
