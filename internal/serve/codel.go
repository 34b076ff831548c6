// Adaptive queue control for the admission path: a CoDel-style controller
// over queue sojourn plus deadline-aware admission. Classic CoDel drops at
// dequeue; here every accepted ticket MUST be applied (accepted ⇒ applied
// is the serving invariant), so all control is exerted at enqueue — the
// controller observes the sojourn of batches leaving the queue and, while
// the queue has been standing above target for a full interval, sheds new
// arrivals with sqrt-spaced pacing until sojourn dips back under target.
package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// queueCtl is the per-queue adaptive controller. Callers hold their own
// lock or confine it to one goroutine per queue; the serve layers guard it
// with a small mutex alongside the queue itself.
type queueCtl struct {
	codel    bool          // CoDel shedding armed (drain-rate tracking is always on)
	target   time.Duration // sojourn ceiling (CoDel target)
	interval time.Duration // how long above target before shedding starts

	svcEWMA time.Duration // smoothed per-ticket service time (drain rate⁻¹)

	dropping   bool
	firstAbove time.Time // when sojourn first exceeded target (zero: not above)
	dropNext   time.Time // next scheduled shed while dropping
	dropCount  int       // sheds in the current dropping episode

	lastSojourn time.Duration // most recent observed queue sojourn
}

func newQueueCtl(target, interval time.Duration) *queueCtl {
	codel := target > 0
	if target <= 0 {
		target = 5 * time.Millisecond
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &queueCtl{codel: codel, target: target, interval: interval}
}

// observe records a drained batch: n tickets left the queue after waiting
// `sojourn` (head-of-batch wait) and took `svc` to serve. Updates the
// drain-rate estimate and advances the CoDel state machine.
func (q *queueCtl) observe(n int, svc, sojourn time.Duration, now time.Time) {
	if n > 0 && svc > 0 {
		per := svc / time.Duration(n)
		if q.svcEWMA == 0 {
			q.svcEWMA = per
		} else {
			q.svcEWMA = (q.svcEWMA*4 + per) / 5 // EWMA α=0.2
		}
	}
	q.lastSojourn = sojourn
	if !q.codel {
		return
	}
	if sojourn < q.target {
		// Below target: leave any dropping episode and forget the above-
		// target mark.
		q.firstAbove = time.Time{}
		q.dropping = false
		return
	}
	if q.firstAbove.IsZero() {
		q.firstAbove = now.Add(q.interval)
		return
	}
	if !q.dropping && now.After(q.firstAbove) {
		// Standing queue: sojourn has been above target for a full
		// interval. Start shedding, sqrt-paced from the last episode's
		// intensity (classic CoDel re-entry).
		q.dropping = true
		if q.dropCount > 2 {
			q.dropCount -= 2
		} else {
			q.dropCount = 1
		}
		q.dropNext = now
	}
}

// predictWait estimates the queue wait a new arrival at depth `depth`
// would see: measured drain rate × depth. Zero until the first batch has
// been observed.
func (q *queueCtl) predictWait(depth int) time.Duration {
	if depth <= 0 {
		return 0
	}
	return q.svcEWMA * time.Duration(depth)
}

// QueueCtl is the concurrency-safe exported handle over queueCtl (the
// cluster server keeps one per shard queue).
type QueueCtl struct {
	mu sync.Mutex
	q  *queueCtl
}

// NewQueueCtl builds a controller; target <= 0 leaves CoDel shedding off
// (drain-rate tracking and deadline prediction still work).
func NewQueueCtl(target, interval time.Duration) *QueueCtl {
	return &QueueCtl{q: newQueueCtl(target, interval)}
}

// Observe records a drained batch of n tickets: svc is how long serving it
// took, sojourn the head ticket's queue wait.
func (c *QueueCtl) Observe(n int, svc, sojourn time.Duration, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.q.observe(n, svc, sojourn, now)
}

// PredictWait estimates the queue wait at the given depth.
func (c *QueueCtl) PredictWait(depth int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.predictWait(depth)
}

// Admit runs the enqueue gate; see queueCtl.admit.
func (c *QueueCtl) Admit(now time.Time, depth int, deadline time.Duration) (reason string, retry time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.admit(now, depth, deadline)
}

// DrainPerSec reports the measured drain rate (tickets/s; 0 until the
// first observation).
func (c *QueueCtl) DrainPerSec() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.q.svcEWMA <= 0 {
		return 0
	}
	return float64(time.Second) / float64(c.q.svcEWMA)
}

// LastSojourn reports the most recent observed queue sojourn.
func (c *QueueCtl) LastSojourn() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.lastSojourn
}

// admit decides whether a new arrival may enqueue at the current depth.
// reason is "" to accept, "deadline" when the predicted wait already
// exceeds the caller's deadline, "codel" when the controller is in a
// dropping episode and this arrival is the paced shed. retry is the
// suggested client backoff (predicted drain of the standing queue).
func (q *queueCtl) admit(now time.Time, depth int, deadline time.Duration) (reason string, retry time.Duration) {
	if deadline > 0 {
		if wait := q.predictWait(depth + 1); wait > deadline {
			return "deadline", q.predictWait(depth)
		}
	}
	if q.dropping && !now.Before(q.dropNext) {
		q.dropCount++
		q.dropNext = now.Add(time.Duration(float64(q.interval) / math.Sqrt(float64(q.dropCount))))
		return "codel", q.predictWait(depth)
	}
	return "", 0
}

// SetRetryAfter sets a shed response's backoff headers from hint:
// Retry-After in whole seconds (ceiling, minimum 1 — a sub-second hint
// must never round to "retry immediately") and Retry-After-Ms with the
// real value (minimum 1) for clients that can honor milliseconds.
func SetRetryAfter(h http.Header, hint time.Duration) {
	secs := int64((hint + time.Second - 1) / time.Second)
	ms := hint.Milliseconds()
	h.Set("Retry-After", strconv.FormatInt(max(secs, 1), 10))
	h.Set("Retry-After-Ms", strconv.FormatInt(max(ms, 1), 10))
}
