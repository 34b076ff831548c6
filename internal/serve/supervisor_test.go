package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSupervisorRestartsThenSucceeds(t *testing.T) {
	var delays []time.Duration
	fails := 0
	sup := &Supervisor{
		MaxRestarts: 5,
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  400 * time.Millisecond,
		Sleep:       func(ctx context.Context, d time.Duration) { delays = append(delays, d) },
	}
	err := sup.Run(context.Background(), func(ctx context.Context) error {
		fails++
		switch fails {
		case 1:
			panic("incarnation 1 dies")
		case 2:
			return fmt.Errorf("incarnation 2 fails")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("supervisor gave up: %v", err)
	}
	if fails != 3 || len(delays) != 2 {
		t.Fatalf("%d runs, %d backoffs; want 3 and 2", fails, len(delays))
	}
	// Jittered exponential backoff: delay n lands in [base<<n / 2, base<<n * 1.5).
	for i, d := range delays {
		lo := (100 * time.Millisecond << i) / 2
		hi := 3 * lo
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, d, lo, hi)
		}
	}
}

func TestSupervisorBudgetExhausted(t *testing.T) {
	runs := 0
	sup := &Supervisor{
		MaxRestarts: 2,
		Sleep:       func(ctx context.Context, d time.Duration) {},
	}
	err := sup.Run(context.Background(), func(ctx context.Context) error {
		runs++
		return fmt.Errorf("always broken")
	})
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("err %v, want restart-budget error", err)
	}
	if runs != 3 { // first run + 2 restarts
		t.Fatalf("%d runs, want 3", runs)
	}
}

func TestSupervisorResetAfterForgivesStableUptime(t *testing.T) {
	// A fake clock advanced by the supervised function itself: every third
	// incarnation "stays up" past the reset window before crashing, which
	// must zero the attempt counter — so the run survives far more total
	// failures than MaxRestarts before the budget finally bites.
	var clock time.Time
	runs := 0
	sup := &Supervisor{
		MaxRestarts: 2,
		ResetAfter:  time.Minute,
		Now:         func() time.Time { return clock },
		Sleep:       func(ctx context.Context, d time.Duration) {},
	}
	err := sup.Run(context.Background(), func(ctx context.Context) error {
		runs++
		if runs%3 == 0 {
			clock = clock.Add(2 * time.Minute) // stable incarnation, then crash
		} else {
			clock = clock.Add(time.Second) // quick crash
		}
		return fmt.Errorf("incarnation %d dies", runs)
	})
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("err %v, want restart-budget error", err)
	}
	// A strict budget of 2 allows 3 runs. Here run 3 is stable and resets
	// the counter, buying a fresh budget: runs 4 and 5 are attempts 1 and
	// 2 of the new window, and run 5 exhausts it — two more total failures
	// than the strict budget would have survived.
	if runs != 5 {
		t.Fatalf("budget bit after %d runs, want 5 (one stable-uptime reset)", runs)
	}

	// Same shape without ResetAfter: the budget is strict.
	clock = time.Time{}
	runs = 0
	strict := &Supervisor{
		MaxRestarts: 2,
		Now:         func() time.Time { return clock },
		Sleep:       func(ctx context.Context, d time.Duration) {},
	}
	err = strict.Run(context.Background(), func(ctx context.Context) error {
		runs++
		clock = clock.Add(2 * time.Minute)
		return fmt.Errorf("incarnation %d dies", runs)
	})
	if err == nil || runs != 3 {
		t.Fatalf("strict budget: %d runs, err %v; want 3 runs and budget error", runs, err)
	}
}

func TestSupervisorHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &Supervisor{
		MaxRestarts: 100,
		Sleep:       func(ctx context.Context, d time.Duration) { cancel() },
	}
	err := sup.Run(ctx, func(ctx context.Context) error {
		return fmt.Errorf("fails until cancelled")
	})
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}
