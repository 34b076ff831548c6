// Package serve holds the parts of the crash-only network service that do
// not depend on how the state is partitioned (the HTTP control plane
// itself is cluster.Server): a supervisor that restarts the serving loop
// after panics or errors (exponential backoff, jitter, a restart budget),
// the zero-allocation /admit decoder, and adaptive admission-queue control
// (drain-rate estimation, deadline shedding, CoDel, Retry-After hints).
// The design premise is the crash-only one — the service has no special
// shutdown state to protect, because recovery *is* the startup path
// (cluster.Open), so the supervisor's only job is to re-enter it without
// melting the machine in a crash loop.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"
)

// ErrRestartBudget reports that the supervised function failed more times
// than the budget allows; the last failure is wrapped.
var ErrRestartBudget = errors.New("serve: restart budget exhausted")

// Supervisor re-runs a function until it succeeds, the context ends, or
// the restart budget runs out. Panics inside the function are recovered
// and treated as failures (with the stack captured in the error), so a
// bug in one serving incarnation costs a restart, not the process.
type Supervisor struct {
	// MaxRestarts is how many times Run will restart after a failure
	// (0 means the first failure is final). The first run is free.
	MaxRestarts int
	// BackoffBase is the delay before the first restart; each subsequent
	// restart doubles it, capped at BackoffCap. Defaults: 100ms, 30s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Jitter scales each delay by a random factor in [0.5, 1.5) so a
	// fleet of restarting replicas does not thundering-herd a shared
	// dependency. Tests inject a deterministic source; nil seeds from
	// the clock.
	Jitter *rand.Rand
	// Sleep is the delay function (injectable for tests; default
	// context-aware sleep).
	Sleep func(ctx context.Context, d time.Duration)
	// OnRestart, when set, observes each failure before the backoff:
	// attempt number (1-based), the error, and the delay chosen.
	OnRestart func(attempt int, err error, delay time.Duration)
	// ResetAfter, when positive, forgives past failures once an incarnation
	// stays up at least this long: its crash counts as the first failure
	// again (and backoff restarts from BackoffBase). Without it a service
	// that crashes once a week eventually exhausts any fixed budget.
	ResetAfter time.Duration
	// Now is the clock used for ResetAfter (injectable; default time.Now).
	Now func() time.Time
}

// Run invokes f, restarting it on error or panic per the budget. It
// returns nil when f does, ctx.Err() when the context ends first, and
// ErrRestartBudget (wrapping the final failure) when the budget is gone.
func (s *Supervisor) Run(ctx context.Context, f func(context.Context) error) error {
	base := s.BackoffBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	cap := s.BackoffCap
	if cap <= 0 {
		cap = 30 * time.Second
	}
	jitter := s.Jitter
	if jitter == nil {
		jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	sleep := s.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}

	now := s.Now
	if now == nil {
		now = time.Now
	}

	attempt := 0
	for {
		started := now()
		err := runRecovered(ctx, f)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if s.ResetAfter > 0 && now().Sub(started) >= s.ResetAfter {
			attempt = 0 // stable-uptime window: this failure is a fresh first
		}
		if attempt >= s.MaxRestarts {
			return fmt.Errorf("%w after %d attempt(s): %v", ErrRestartBudget, attempt+1, err)
		}
		delay := base << attempt
		if delay > cap || delay <= 0 { // <<-overflow guard
			delay = cap
		}
		delay = delay/2 + time.Duration(jitter.Int63n(int64(delay)))
		if s.OnRestart != nil {
			s.OnRestart(attempt+1, err, delay)
		}
		sleep(ctx, delay)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		attempt++
	}
}

// runRecovered converts a panic in f into an error carrying the stack.
func runRecovered(ctx context.Context, f func(context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f(ctx)
}
