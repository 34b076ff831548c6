// Package rng is nprt's deterministic random substrate. Simulation results
// must be bit-reproducible across runs and Go releases, so instead of
// math/rand (whose stream changed across versions and whose global state is
// shared) this package implements SplitMix64 for seeding and xoshiro256**
// for generation, plus Gaussian and truncated-Gaussian samplers.
//
// Each task in a simulation draws from its own Stream, split off a root seed
// by task ID, so adding a task or reordering dispatches never perturbs
// another task's samples.
//
// # Panic contract
//
// This package panics only on programmer error — arguments that no valid
// caller can produce (Intn with n <= 0) or use of a zero-value Stream.
// It never panics on the statistical content of a distribution: degenerate
// or mis-parameterized task.Dist values are clamped or rejected with a
// bounded fallback (see TruncNormal) so that fault-injection campaigns and
// fuzzed task sets cannot stall or crash a simulation through this layer.
// Callers validating external input should do so before sampling; by the
// time a Dist reaches this package it is taken as trusted.
package rng

import (
	"errors"
	"math"

	"nprt/internal/task"
)

// splitMix64 advances the seed-expansion state and returns the next value.
// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
// generators", OOPSLA 2014.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a xoshiro256** generator. The zero value is not usable;
// construct with New or Split.
type Stream struct {
	s [4]uint64
	// cached second Gaussian from the Box–Muller pair
	gauss    float64
	hasGauss bool
}

// New returns a Stream seeded from the given seed via SplitMix64.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// xoshiro must not be seeded all-zero; SplitMix64 of any seed never
	// produces four zeros, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 1
	}
	return st
}

// Split derives an independent child stream keyed by id. Children with
// distinct ids (or from streams with distinct seeds) are statistically
// independent for simulation purposes.
func (r *Stream) Split(id uint64) *Stream {
	// Mix the parent's state with the id through SplitMix64.
	sm := r.s[0] ^ (r.s[2] << 1) ^ (id * 0x9e3779b97f4a7c15)
	return New(splitMix64(&sm))
}

// State is a serializable snapshot of a Stream: the four xoshiro256** words
// plus the cached Box–Muller half. Restoring it with FromState resumes the
// stream bit-identically — the hook the long-running runtime's
// checkpoint/restore (internal/runtime) builds on.
type State struct {
	S        [4]uint64 `json:"s"`
	Gauss    float64   `json:"gauss"`
	HasGauss bool      `json:"has_gauss"`
}

// ErrZeroState rejects the all-zero xoshiro state, which the generator can
// never reach from a valid seed and would emit only zeros.
var ErrZeroState = errors.New("rng: all-zero stream state")

// State snapshots the stream. The snapshot is a value; mutating the stream
// afterwards does not affect it.
func (r *Stream) State() State {
	return State{S: r.s, Gauss: r.gauss, HasGauss: r.hasGauss}
}

// FromState reconstructs a Stream that continues exactly where the
// snapshotted one left off. The all-zero state is rejected: it is not
// reachable from New/Split and would lock the generator at zero.
func FromState(st State) (*Stream, error) {
	if st.S[0]|st.S[1]|st.S[2]|st.S[3] == 0 {
		return nil, ErrZeroState
	}
	return &Stream{s: st.S, gauss: st.Gauss, hasGauss: st.HasGauss}, nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Float64 returns a uniform sample in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). Panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Gaussian returns a standard-normal sample via Box–Muller, caching the
// second member of each generated pair.
func (r *Stream) Gaussian() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	m := math.Sqrt(-2 * math.Log(u))
	// One argument reduction for both members; math.Sincos returns the same
	// bits as separate math.Sin and math.Cos calls.
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.gauss = m * sin
	r.hasGauss = true
	return m * cos
}

// Normal returns a Gaussian sample with the given mean and sigma.
func (r *Stream) Normal(mean, sigma float64) float64 {
	return mean + sigma*r.Gaussian()
}

// TruncNormal samples N(mean, sigma) truncated to [min, max] by rejection,
// falling back to clamping after a bounded number of rejections so a
// mis-parameterized distribution cannot stall a simulation. If max <= min
// only the lower bound is applied.
func (r *Stream) TruncNormal(mean, sigma, min, max float64) float64 {
	if sigma <= 0 {
		v := mean
		if v < min {
			v = min
		}
		if max > min && v > max {
			v = max
		}
		return v
	}
	for i := 0; i < 64; i++ {
		v := r.Normal(mean, sigma)
		if v < min {
			continue
		}
		if max > min && v > max {
			continue
		}
		return v
	}
	v := mean
	if v < min {
		v = min
	}
	if max > min && v > max {
		v = max
	}
	return v
}

// SampleDist draws from a task.Dist (truncated Gaussian parameters).
func (r *Stream) SampleDist(d task.Dist) float64 {
	return r.TruncNormal(d.Mean, d.Sigma, d.Min, d.Max)
}

// SampleDuration draws a task.Dist sample rounded to a positive virtual
// duration of at least 1 and, when cap > 0, at most cap. Execution-time
// sampling uses this with cap = the mode's WCET so an "actual" execution can
// never exceed its declared worst case.
func (r *Stream) SampleDuration(d task.Dist, cap task.Time) task.Time {
	if d.IsZero() {
		if cap > 0 {
			return cap
		}
		return 1
	}
	v := task.Time(math.Round(r.SampleDist(d)))
	if v < 1 {
		v = 1
	}
	if cap > 0 && v > cap {
		v = cap
	}
	return v
}

// SampleError draws the single-valued error of one imprecise execution:
// |N(mean, sigma)| truncated by the Dist bounds when present. Errors are
// magnitudes, hence non-negative.
func (r *Stream) SampleError(d task.Dist) float64 {
	v := r.SampleDist(d)
	return math.Abs(v)
}
