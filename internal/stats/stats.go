// Package stats provides the streaming statistics used by the experiment
// harness and the service: Welford mean/variance accumulators, simple rate
// counters and a log-bucketed latency histogram. Everything is
// allocation-free after construction so accumulators can sit on the
// simulator's hot path and histograms on the WAL write path.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes running mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the population variance (0 when fewer than 2 samples).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min and Max return observed extremes (0 when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// String renders "mean±σ (n=N)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4g±%.4g (n=%d)", a.Mean(), a.StdDev(), a.n)
}

// Rate counts events against trials, e.g. deadline violations per job.
// The zero value is ready to use.
type Rate struct {
	Events int64
	Trials int64
}

// Hit records a trial that was an event.
func (r *Rate) Hit() { r.Events++; r.Trials++ }

// Miss records a trial that was not an event.
func (r *Rate) Miss() { r.Trials++ }

// Record records a trial whose event-ness is given.
func (r *Rate) Record(event bool) {
	if event {
		r.Hit()
	} else {
		r.Miss()
	}
}

// Fraction returns Events/Trials (0 when no trials).
func (r *Rate) Fraction() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Events) / float64(r.Trials)
}

// Percent returns the fraction scaled to percent.
func (r *Rate) Percent() float64 { return 100 * r.Fraction() }

// String renders "12.3% (41/333)".
func (r *Rate) String() string {
	return fmt.Sprintf("%.1f%% (%d/%d)", r.Percent(), r.Events, r.Trials)
}
