package serve

import (
	"math"
	"net/http"
	"testing"
	"time"
)

// TestCoDelDrainRateAndPredictWait pins the drain-rate estimator through
// the exported QueueCtl surface: per-ticket EWMA (α=0.2), linear wait
// prediction, and the tickets/s conversion the serve layers expose.
func TestCoDelDrainRateAndPredictWait(t *testing.T) {
	c := NewQueueCtl(0, 0) // target 0: shedding off, estimation on
	now := time.Now()
	if got := c.PredictWait(10); got != 0 {
		t.Fatalf("predictWait before any observation = %v, want 0", got)
	}
	if got := c.DrainPerSec(); got != 0 {
		t.Fatalf("drainPerSec before any observation = %v, want 0", got)
	}

	// First batch: 2 tickets in 20ms → 10ms/ticket seeds the EWMA.
	c.Observe(2, 20*time.Millisecond, 3*time.Millisecond, now)
	if got := c.PredictWait(3); got != 30*time.Millisecond {
		t.Fatalf("predictWait(3) after seed = %v, want 30ms", got)
	}
	if got := c.LastSojourn(); got != 3*time.Millisecond {
		t.Fatalf("lastSojourn = %v, want 3ms", got)
	}

	// Second batch: 20ms/ticket → EWMA (10*4+20)/5 = 12ms.
	c.Observe(1, 20*time.Millisecond, 0, now)
	if got := c.PredictWait(3); got != 36*time.Millisecond {
		t.Fatalf("predictWait(3) after EWMA step = %v, want 36ms", got)
	}
	want := float64(time.Second) / float64(12*time.Millisecond)
	if got := c.DrainPerSec(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("drainPerSec = %v, want %v", got, want)
	}
	if got := c.PredictWait(0); got != 0 {
		t.Fatalf("predictWait(0) = %v, want 0", got)
	}
}

// TestCoDelDeadlineAdmit: the enqueue gate sheds exactly when the
// predicted wait at the arrival's own depth exceeds the client deadline,
// and the retry hint is the predicted drain of the standing queue.
func TestCoDelDeadlineAdmit(t *testing.T) {
	c := NewQueueCtl(0, 0)
	now := time.Now()
	// No estimate yet: nothing can be predicted, nothing is shed.
	if reason, _ := c.Admit(now, 100, time.Millisecond); reason != "" {
		t.Fatalf("shed %q with no drain estimate", reason)
	}
	c.Observe(1, 10*time.Millisecond, 0, now) // 10ms/ticket

	if reason, retry := c.Admit(now, 4, 20*time.Millisecond); reason != "deadline" || retry != 40*time.Millisecond {
		t.Fatalf("admit(depth 4, deadline 20ms) = %q/%v, want deadline/40ms", reason, retry)
	}
	if reason, _ := c.Admit(now, 4, 60*time.Millisecond); reason != "" {
		t.Fatalf("admit(depth 4, deadline 60ms) shed %q, want accept (wait 50ms)", reason)
	}
	if reason, _ := c.Admit(now, 4, 0); reason != "" {
		t.Fatalf("admit with no deadline shed %q", reason)
	}
}

// TestCoDelDroppingEpisode drives the standing-queue state machine:
// sojourn above target for a full interval starts a dropping episode,
// sheds are sqrt-paced within it, and one below-target observation ends
// it immediately.
func TestCoDelDroppingEpisode(t *testing.T) {
	const (
		target   = 5 * time.Millisecond
		interval = 100 * time.Millisecond
	)
	c := NewQueueCtl(target, interval)
	t0 := time.Now()

	// Above target, but not yet for a full interval: no shedding.
	c.Observe(1, time.Millisecond, 10*time.Millisecond, t0)
	if reason, _ := c.Admit(t0, 1, 0); reason != "" {
		t.Fatalf("shed %q before the interval elapsed", reason)
	}

	// Still above target past the grace interval: episode starts.
	t1 := t0.Add(interval + 50*time.Millisecond)
	c.Observe(1, time.Millisecond, 10*time.Millisecond, t1)
	if reason, _ := c.Admit(t1, 1, 0); reason != "codel" {
		t.Fatalf("standing queue not shed: %q", reason)
	}
	// The next shed is sqrt-paced: interval/sqrt(2) ≈ 70.7ms out. An
	// arrival well inside that window passes, one after it is shed.
	if reason, _ := c.Admit(t1.Add(10*time.Millisecond), 1, 0); reason != "" {
		t.Fatalf("paced window violated: shed %q 10ms into a ~70ms gap", reason)
	}
	if reason, _ := c.Admit(t1.Add(75*time.Millisecond), 1, 0); reason != "codel" {
		t.Fatalf("second paced shed missing: %q", reason)
	}

	// One below-target drain ends the episode and clears the mark.
	t2 := t1.Add(80 * time.Millisecond)
	c.Observe(1, time.Millisecond, time.Millisecond, t2)
	if reason, _ := c.Admit(t2, 1, 0); reason != "" {
		t.Fatalf("shed %q after sojourn recovered", reason)
	}
}

// TestRetryAfterCeilingAndMs pins the 503 hint encoding: Retry-After is
// the hint in whole seconds, ceiled, never below 1 (a sub-second hint
// must not round to "retry immediately"), while Retry-After-Ms carries
// the real value for clients that can honor milliseconds.
func TestRetryAfterCeilingAndMs(t *testing.T) {
	cases := []struct {
		hint     time.Duration
		secs, ms string
	}{
		{1500 * time.Millisecond, "2", "1500"},
		{200 * time.Millisecond, "1", "200"},
		{2 * time.Second, "2", "2000"},
		{500 * time.Microsecond, "1", "1"},
		{3 * time.Second, "3", "3000"},
	}
	for _, tc := range cases {
		h := http.Header{}
		SetRetryAfter(h, tc.hint)
		if got := h.Get("Retry-After"); got != tc.secs {
			t.Errorf("hint %v: Retry-After %q, want %q", tc.hint, got, tc.secs)
		}
		if got := h.Get("Retry-After-Ms"); got != tc.ms {
			t.Errorf("hint %v: Retry-After-Ms %q, want %q", tc.hint, got, tc.ms)
		}
	}
}
