package sim

import (
	"reflect"
	"strings"
	"testing"

	"nprt/internal/task"
	"nprt/internal/trace"
)

// loadedSet is a near-fully-utilized schedulable set (U_acc = 0.9): a single
// overrun eats the slack and cascades, which is what the containment
// policies are measured against.
func loadedSet(t *testing.T) *task.Set {
	return mkSet(t,
		task.Task{Name: "a", Period: 10, WCETAccurate: 5, WCETImprecise: 2, Error: task.Dist{Mean: 2}},
		task.Task{Name: "b", Period: 20, WCETAccurate: 8, WCETImprecise: 3, Error: task.Dist{Mean: 5}},
	)
}

func TestFaultRatesValidate(t *testing.T) {
	bad := []FaultRates{
		{OverrunProb: -0.1},
		{AbortProb: 1.5},
		{DropProb: 2},
		{OverrunProb: 0.6, AbortProb: 0.3, DropProb: 0.2}, // sum > 1
		{OverrunProb: 0.1, OverrunFactor: -1},
		{AbortProb: 0.1, AbortPoint: 1.5},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("rates %+v validated", r)
		}
	}
	if err := (FaultRates{OverrunProb: 0.3, AbortProb: 0.3, DropProb: 0.3}).Validate(); err != nil {
		t.Errorf("valid rates rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewFaultPlan accepted invalid rates without panicking")
		}
	}()
	NewFaultPlan(1, FaultRates{DropProb: 2})
}

func TestFaultPlanDeterministicAndOrderIndependent(t *testing.T) {
	s := loadedSet(t)
	fp := NewFaultPlan(42, FaultRates{OverrunProb: 0.1, AbortProb: 0.05, DropProb: 0.05})
	fp2 := NewFaultPlan(42, FaultRates{OverrunProb: 0.1, AbortProb: 0.05, DropProb: 0.05})
	tk := s.Task(0)
	// Query fp forward and fp2 backward: verdicts must agree per identity.
	const n = 2000
	fwd := make([]Fault, n)
	for i := 0; i < n; i++ {
		fwd[i] = fp.JobFault(tk, s.Job(0, i))
	}
	counts := map[FaultKind]int{}
	for i := n - 1; i >= 0; i-- {
		got := fp2.JobFault(tk, s.Job(0, i))
		if got != fwd[i] {
			t.Fatalf("verdict for job %d depends on query order: %+v vs %+v", i, fwd[i], got)
		}
		counts[got.Kind]++
		if fp.DropRelease(tk, i) != fp2.DropRelease(tk, i) {
			t.Fatalf("DropRelease for %d not deterministic", i)
		}
	}
	// Rates should land near their nominal probabilities (loose 2x bands).
	if o := counts[FaultOverrun]; o < n/20 || o > n/5 {
		t.Errorf("overrun count %d far from nominal %d", o, n/10)
	}
	if a := counts[FaultAbort]; a < n/40 || a > n/10 {
		t.Errorf("abort count %d far from nominal %d", a, n/20)
	}
	// A different seed must produce a different scenario.
	diff := 0
	other := NewFaultPlan(43, FaultRates{OverrunProb: 0.1, AbortProb: 0.05, DropProb: 0.05})
	for i := 0; i < n; i++ {
		if other.JobFault(tk, s.Job(0, i)).Kind != fwd[i].Kind {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed has no effect on fault scenario")
	}
}

// TestNoFaultBitIdentical is the acceptance differential: with injection
// disabled — Faults nil, or a plan whose rates are all zero — every Result
// field except the Faults accounting block is bit-identical.
func TestNoFaultBitIdentical(t *testing.T) {
	s := loadedSet(t)
	base := Config{
		Hyperperiods: 25, Sampler: NewRandomSampler(s, 7),
		TraceLimit: -1, DropLate: true,
	}
	clean, err := Run(s, &edfPolicy{mode: task.Imprecise}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Containments() {
		cfg := base
		cfg.Sampler = NewRandomSampler(s, 7)
		cfg.Faults = NewFaultPlan(11, FaultRates{})
		cfg.Containment = c
		faulted, err := Run(s, &edfPolicy{mode: task.Imprecise}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if faulted.Faults == nil {
			t.Fatal("zero-rate plan should still produce a Faults block")
		}
		if faulted.Faults.Total != (TaskFaultStats{}) {
			t.Errorf("zero-rate plan injected faults: %+v", faulted.Faults.Total)
		}
		cp := *faulted
		cp.Faults = nil
		if !reflect.DeepEqual(clean, &cp) {
			t.Errorf("containment %v: zero-rate run differs from fault-free run\nclean:   %v\nfaulted: %v",
				c, clean, &cp)
		}
	}
}

// TestContainmentReducesCascades is the acceptance sweep in miniature: at
// overrun probability ≥ 0.05 both containment policies must strictly reduce
// cascaded (collateral) deadline misses versus the uncontained baseline.
func TestContainmentReducesCascades(t *testing.T) {
	s := loadedSet(t)
	run := func(c Containment) *Result {
		res, err := Run(s, &edfPolicy{mode: task.Accurate}, Config{
			Hyperperiods: 400,
			Faults:       NewFaultPlan(3, FaultRates{OverrunProb: 0.1, OverrunFactor: 2.0}),
			Containment:  c,
		})
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		return res
	}
	rtc := run(RunToCompletion)
	abort := run(AbortAtBudget)
	down := run(DowngradeOnOverrun)

	if rtc.Faults.Total.CascadedMisses == 0 {
		t.Fatal("baseline produced no cascaded misses; the scenario is too lax to measure containment")
	}
	if got, base := abort.Faults.Total.CascadedMisses, rtc.Faults.Total.CascadedMisses; got >= base {
		t.Errorf("AbortAtBudget cascaded misses %d not strictly below baseline %d", got, base)
	}
	if got, base := down.Faults.Total.CascadedMisses, rtc.Faults.Total.CascadedMisses; got >= base {
		t.Errorf("DowngradeOnOverrun cascaded misses %d not strictly below baseline %d", got, base)
	}

	// The watchdog never lets overrun time reach the processor and kills
	// exactly the overrunning jobs.
	if abort.Faults.OverrunTime != 0 {
		t.Errorf("AbortAtBudget leaked %d overrun time units", abort.Faults.OverrunTime)
	}
	if abort.Faults.Total.WatchdogKills != abort.Faults.Total.Overruns {
		t.Errorf("kills %d != overruns %d", abort.Faults.Total.WatchdogKills, abort.Faults.Total.Overruns)
	}
	if rtc.Faults.OverrunTime == 0 {
		t.Error("RunToCompletion recorded no overrun time")
	}
	// Downgrading actually fired and forced jobs imprecise.
	if down.Faults.Total.Downgrades == 0 {
		t.Error("DowngradeOnOverrun never downgraded a job")
	}
	if down.Imprecise == 0 {
		t.Error("DowngradeOnOverrun ran no imprecise jobs")
	}
	// Watchdog kills are failures and count as (faulted) misses.
	if abort.Faults.Total.FaultedMisses < abort.Faults.Total.WatchdogKills {
		t.Errorf("faulted misses %d below watchdog kills %d",
			abort.Faults.Total.FaultedMisses, abort.Faults.Total.WatchdogKills)
	}
}

func TestDroppedReleasesAccounting(t *testing.T) {
	s := loadedSet(t)
	cfg := Config{Hyperperiods: 200}
	clean, err := Run(s, &edfPolicy{mode: task.Accurate}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = NewFaultPlan(9, FaultRates{DropProb: 0.1})
	res, err := Run(s, &edfPolicy{mode: task.Accurate}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drops := res.Faults.Total.DroppedReleases
	if drops == 0 {
		t.Fatal("no releases dropped at DropProb=0.1")
	}
	// Every release is accounted: executed or dropped, the job total holds.
	if res.Jobs != clean.Jobs {
		t.Errorf("job total %d != clean total %d", res.Jobs, clean.Jobs)
	}
	// Drops are faulted misses charging the deepest-level mean error.
	if res.Faults.Total.FaultedMisses != drops {
		t.Errorf("faulted misses %d != drops %d", res.Faults.Total.FaultedMisses, drops)
	}
	if res.Misses.Events < drops {
		t.Errorf("miss count %d below drop count %d", res.Misses.Events, drops)
	}
	if res.MeanError() <= 0 {
		t.Error("dropped releases charged no fallback error")
	}
}

func TestAbortsShortenAndChargeFallback(t *testing.T) {
	s := loadedSet(t)
	res, err := Run(s, &edfPolicy{mode: task.Accurate}, Config{
		Hyperperiods: 200, TraceLimit: -1,
		Faults: NewFaultPlan(5, FaultRates{AbortProb: 0.1, AbortPoint: 0.5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Total.Aborts == 0 {
		t.Fatal("no aborts at AbortProb=0.1")
	}
	if res.Faults.Total.FaultedMisses < res.Faults.Total.Aborts {
		t.Errorf("aborted jobs must all miss: %d misses < %d aborts",
			res.Faults.Total.FaultedMisses, res.Faults.Total.Aborts)
	}
	died := 0
	for _, e := range res.Trace.Entries {
		if e.Fault == trace.FaultDied {
			died++
			w := s.Task(e.Job.TaskID).WCET(e.Mode)
			if d := e.Duration(); d < 1 || d > w {
				t.Fatalf("died entry duration %d outside [1,%d]", d, w)
			}
			if e.Error != s.Task(e.Job.TaskID).ErrorDist(task.Deepest).Mean {
				t.Fatalf("died entry charged %g, want deepest mean", e.Error)
			}
		}
	}
	if int64(died) != res.Faults.Total.Aborts {
		t.Errorf("trace has %d died entries, stats say %d", died, res.Faults.Total.Aborts)
	}
}

// TestFaultedTraceValidates: the validator accepts-and-checks faulted traces
// under AllowFaults and rejects the same trace under the strict oracle.
func TestFaultedTraceValidates(t *testing.T) {
	s := loadedSet(t)
	for _, c := range Containments() {
		res, err := Run(s, &edfPolicy{mode: task.Accurate}, Config{
			Hyperperiods: 100, TraceLimit: -1,
			Sampler:     NewRandomSampler(s, 21),
			Faults:      NewFaultPlan(13, FaultRates{OverrunProb: 0.08, AbortProb: 0.04, DropProb: 0.03}),
			Containment: c,
		})
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		vs := trace.Validate(res.Trace, trace.Options{
			WCETBounds: true, Set: s, AllowFaults: true,
		})
		if len(vs) != 0 {
			t.Errorf("%v: faulted trace rejected under AllowFaults: %v", c, vs[:min(3, len(vs))])
		}
		strict := trace.Validate(res.Trace, trace.Options{WCETBounds: true, Set: s})
		if len(strict) == 0 {
			t.Errorf("%v: strict oracle accepted a faulted trace", c)
		}
	}
}

func TestDowngradeRecovery(t *testing.T) {
	s := loadedSet(t)
	res, err := Run(s, &edfPolicy{mode: task.Accurate}, Config{
		Hyperperiods: 300, TraceLimit: -1,
		Faults:      NewFaultPlan(17, FaultRates{OverrunProb: 0.05, OverrunFactor: 1.8}),
		Containment: DowngradeOnOverrun,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery means downgrading is bounded: with in-budget completions
	// clearing the flag, downgraded jobs cannot dominate the run at 5%
	// overrun probability.
	if d := res.Faults.Total.Downgrades; d == 0 || d > res.Jobs/2 {
		t.Errorf("downgrades %d out of expected band (0, %d]", res.Faults.Total.Downgrades, res.Jobs/2)
	}
	// After an overrun of a task, the next executed job of that task must be
	// imprecise (the forced downgrade) — check the first occurrence.
	entries := res.Trace.Entries
	for i, e := range entries {
		if e.Fault == trace.FaultOverrun {
			for _, f := range entries[i+1:] {
				if f.Job.TaskID != e.Job.TaskID {
					continue
				}
				if f.Mode == task.Accurate && f.Fault != trace.FaultOverrun {
					t.Fatalf("job after overrun of task %d ran accurate: %+v", e.Job.TaskID, f)
				}
				break
			}
			break
		}
	}
}

func TestFaultStringers(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultNone: "none", FaultOverrun: "overrun", FaultAbort: "abort",
		FaultDroppedRelease: "dropped-release",
	} {
		if k.String() != want {
			t.Errorf("FaultKind %d = %q", k, k.String())
		}
	}
	for c, want := range map[Containment]string{
		RunToCompletion: "run-to-completion", AbortAtBudget: "abort-at-budget",
		DowngradeOnOverrun: "downgrade-on-overrun",
	} {
		if c.String() != want {
			t.Errorf("Containment %d = %q", c, c.String())
		}
	}
	fs := newFaultStats(1)
	fs.count(0, func(s *TaskFaultStats) { s.Overruns++ })
	if out := fs.String(); !strings.Contains(out, "overruns=1") {
		t.Errorf("FaultStats.String = %q", out)
	}
}
