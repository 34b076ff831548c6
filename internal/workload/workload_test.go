package workload

import (
	"reflect"
	"strings"
	"testing"

	"nprt/internal/feasibility"
	"nprt/internal/rng"
	"nprt/internal/task"
)

// TestTableICharacteristics locks every reconstructed Table I column: task
// count, accurate utilization, jobs per hyper-period, and both Theorem-1
// verdicts.
func TestTableICharacteristics(t *testing.T) {
	cases, err := CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 14 {
		t.Fatalf("suite has %d cases, want 14 (Rnd1–Rnd13 + IDCT)", len(cases))
	}
	wantOrder := []string{"Rnd1", "Rnd2", "Rnd3", "Rnd4", "Rnd5", "Rnd6", "Rnd7",
		"Rnd8", "Rnd9", "Rnd10", "Rnd11", "Rnd12", "Rnd13", "IDCT"}
	for i, c := range cases {
		if c.Name != wantOrder[i] {
			t.Errorf("case %d is %s, want %s", i, c.Name, wantOrder[i])
		}
		s, err := c.Set()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if s.Len() != c.WantTasks {
			t.Errorf("%s: %d tasks, want %d", c.Name, s.Len(), c.WantTasks)
		}
		if got := s.JobsPerHyperperiod(); got != c.WantJobsPerHyper {
			t.Errorf("%s: %d jobs/P, want %d", c.Name, got, c.WantJobsPerHyper)
		}
		u := s.UtilizationAccurate()
		if u < c.WantUtilAccurate-c.UtilTolerance || u > c.WantUtilAccurate+c.UtilTolerance {
			t.Errorf("%s: U_acc = %.3f, want %.3f±%.2f", c.Name, u, c.WantUtilAccurate, c.UtilTolerance)
		}
		if feasibility.Schedulable(s, task.Accurate) {
			t.Errorf("%s: schedulable accurate — Table I says No for every case", c.Name)
		}
		if got := feasibility.Schedulable(s, task.Imprecise); got != c.WantImpreciseOK {
			t.Errorf("%s: imprecise schedulable = %v, want %v", c.Name, got, c.WantImpreciseOK)
		}
	}
}

func TestCasesDeterministic(t *testing.T) {
	a, err := Cases()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cases()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		sa, sb := a[i].MustSet(), b[i].MustSet()
		for j := 0; j < sa.Len(); j++ {
			ta, tb := sa.Task(j), sb.Task(j)
			if ta.Period != tb.Period || ta.WCETAccurate != tb.WCETAccurate ||
				ta.WCETImprecise != tb.WCETImprecise || ta.Error != tb.Error {
				t.Fatalf("%s task %d differs between constructions", a[i].Name, j)
			}
		}
	}
}

func TestTaskModelDetails(t *testing.T) {
	cases, err := CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		s := c.MustSet()
		for i := 0; i < s.Len(); i++ {
			tk := s.Task(i)
			if tk.Error.Mean <= 0 {
				t.Errorf("%s/%s: non-positive mean error", c.Name, tk.Name)
			}
			if tk.ExecAccurate.IsZero() || tk.ExecImprecise.IsZero() {
				t.Errorf("%s/%s: missing execution-time distribution", c.Name, tk.Name)
			}
			// WCET/BCET ≈ 10 (the distribution's lower truncation).
			if ratio := float64(tk.WCETAccurate) / tk.ExecAccurate.Min; ratio < 8 || ratio > 12 {
				t.Errorf("%s/%s: WCET/BCET = %.1f, want ≈10", c.Name, tk.Name, ratio)
			}
			// μ + 6σ within WCET (the margin).
			if tk.ExecAccurate.Mean+6*tk.ExecAccurate.Sigma > float64(tk.WCETAccurate)+1e-9 {
				t.Errorf("%s/%s: μ+6σ exceeds WCET", c.Name, tk.Name)
			}
			if tk.MaxConsecutiveImprecise < 1 || tk.MaxConsecutiveImprecise > 6 {
				t.Errorf("%s/%s: B = %d outside Table III's [1,6]", c.Name, tk.Name, tk.MaxConsecutiveImprecise)
			}
		}
	}
}

func TestCaseByName(t *testing.T) {
	c, err := CaseByName("Rnd7")
	if err != nil || c.Name != "Rnd7" {
		t.Fatalf("CaseByName(Rnd7) = %v, %v", c, err)
	}
	if _, err := CaseByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown case error = %v", err)
	}
}

// CaseByName builds only the named case, and it must be the very case the
// whole suite builds: same seed, same tasks, same expectations.
func TestCaseByNameMatchesCases(t *testing.T) {
	cases, err := Cases()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range cases {
		got, err := CaseByName(want.Name)
		if err != nil {
			t.Fatalf("CaseByName(%s): %v", want.Name, err)
		}
		if got == want {
			t.Fatalf("CaseByName(%s) shares the suite's *Case", want.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("CaseByName(%s) differs from Cases()[%d]", want.Name, i)
		}
	}
}

func TestIDCTCaseStructure(t *testing.T) {
	c, err := IDCTCase()
	if err != nil {
		t.Fatal(err)
	}
	s := c.MustSet()
	// The imprecise/accurate cost ratio must reflect the 6/8 truncation.
	for i := 0; i < s.Len(); i++ {
		tk := s.Task(i)
		ratio := float64(tk.WCETImprecise) / float64(tk.WCETAccurate)
		if ratio < 0.70 || ratio > 0.80 {
			t.Errorf("%s: x/w = %.2f, want ≈0.75 (6 of 8 rows kept)", tk.Name, ratio)
		}
	}
	// Imprecise mode must fail Theorem 1 (Table I's IDCT row).
	if feasibility.Schedulable(s, task.Imprecise) {
		t.Error("IDCT case schedulable imprecise; Table I says No")
	}
}

func TestNewtonCaseTableIV(t *testing.T) {
	c, infos, err := NewtonCase()
	if err != nil {
		t.Fatal(err)
	}
	s := c.MustSet()
	if s.Len() != 3 || len(infos) != 3 {
		t.Fatalf("Newton case has %d tasks / %d infos", s.Len(), len(infos))
	}
	// Accurate WCETs reproduce Table IV (0.96 s, 1.21 s, 2.01 s).
	want := []task.Time{960000, 1210000, 2010000}
	for i, info := range infos {
		if info.AccurateWCET != want[i] {
			t.Errorf("%s: accurate WCET %d, want %d", info.Name, info.AccurateWCET, want[i])
		}
		if info.ImpreciseWCET >= info.AccurateWCET || info.ImpreciseWCET < 1 {
			t.Errorf("%s: imprecise WCET %d out of range", info.Name, info.ImpreciseWCET)
		}
		if info.MeanError <= 0 {
			t.Errorf("%s: zero mean error", info.Name)
		}
	}
	// τ2 is the well-behaved equation: its imprecise/accurate ratio must be
	// the smallest of the three (the paper calls out exactly this).
	ratio := func(i int) float64 {
		return float64(infos[i].ImpreciseWCET) / float64(infos[i].AccurateWCET)
	}
	if !(ratio(1) < ratio(0) && ratio(1) < ratio(2)) {
		t.Errorf("τ2 ratio %.2f not the smallest (τ1 %.2f, τ3 %.2f)", ratio(1), ratio(0), ratio(2))
	}
}

func TestUtilizationSweep(t *testing.T) {
	c, err := CaseByName("Rnd7")
	if err != nil {
		t.Fatal(err)
	}
	s := c.MustSet()
	targets := []float64{1.1, 1.5, 2.0, 3.0}
	sets, err := UtilizationSweep(s, targets)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range sets {
		got := sc.UtilizationAccurate()
		if got < targets[i]*0.93 || got > targets[i]*1.07 {
			t.Errorf("sweep[%d]: U = %.3f, want ≈%.2f", i, got, targets[i])
		}
		if sc.Hyperperiod() != s.Hyperperiod() {
			t.Errorf("sweep[%d]: hyper-period changed", i)
		}
		// The imprecise/accurate structure must be preserved.
		for j := 0; j < sc.Len(); j++ {
			if sc.Task(j).WCETImprecise >= sc.Task(j).WCETAccurate {
				t.Errorf("sweep[%d] task %d: WCET ordering broken", i, j)
			}
		}
	}
}

func TestPickJobCountsInvariants(t *testing.T) {
	r := newTestStream()
	for _, tc := range []struct{ n, total int }{{2, 13}, {5, 15}, {8, 38}, {25, 163}} {
		counts, err := pickJobCounts(tc.n, tc.total, r)
		if err != nil {
			t.Fatalf("pickJobCounts(%d,%d): %v", tc.n, tc.total, err)
		}
		sum := task.Time(0)
		hasOne := false
		for _, c := range counts {
			sum += c
			if baseHyper%c != 0 {
				t.Errorf("count %d does not divide the base hyper-period", c)
			}
			if c == 1 {
				hasOne = true
			}
		}
		if int(sum) != tc.total {
			t.Errorf("counts sum to %d, want %d", sum, tc.total)
		}
		if !hasOne {
			t.Error("no task pins the hyper-period")
		}
	}
	if _, err := pickJobCounts(5, 3, r); err == nil {
		t.Error("total below task count accepted")
	}
}

// newTestStream gives tests deterministic randomness without reaching into
// the rng package's internals.
func newTestStream() *rng.Stream { return rng.New(424242) }

func TestGenerateErrors(t *testing.T) {
	// Impossible: fewer jobs than tasks.
	if _, err := Generate(RandomSpec{Tasks: 5, JobsPerHyperperiod: 3,
		UtilizationAccurate: 1.5, ImpreciseFeasible: true, Seed: 1}); err == nil {
		t.Error("jobs < tasks accepted")
	}
	// Unreachable utilization: far above what n tasks can carry.
	if _, err := Generate(RandomSpec{Tasks: 2, JobsPerHyperperiod: 4,
		UtilizationAccurate: 50, ImpreciseFeasible: true, Seed: 1}); err == nil {
		t.Error("absurd utilization accepted")
	}
	// Default name applies.
	s, err := Generate(RandomSpec{Tasks: 2, JobsPerHyperperiod: 6,
		UtilizationAccurate: 1.3, ImpreciseFeasible: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Task(0).Name; len(got) < 3 || got[:3] != "gen" {
		t.Errorf("default name prefix missing: %q", got)
	}
}
