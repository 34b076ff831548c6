package cumulative

import (
	"testing"

	"nprt/internal/rng"
	"nprt/internal/task"
)

// simulateAssignment executes EDF over the super period with a fixed
// job→mode assignment (indexed in dispatch order discovery) and reports
// whether deadlines and consecutive-imprecision budgets hold. It is the
// oracle behind Proposition 1's completeness claim.
//
// Modes are consumed positionally: the k-th dispatched job takes mode
// bit k of mask. Because the dispatch order itself depends on execution
// times, enumerating masks over dispatch positions covers exactly the
// decision tree DP(C) searches.
func simulateAssignment(s *task.Set, totalJobs []int32, mask uint64, m int) bool {
	nextIdx := make([]int32, s.Len())
	consec := make([]int, s.Len())
	var t task.Time
	for k := 0; k < m; k++ {
		job, ok := edfNext(s, t, nextIdx, totalJobs)
		if !ok {
			return false
		}
		tk := s.Task(job.TaskID)
		start := t
		if job.Release > start {
			start = job.Release
		}
		var dur task.Time
		if mask>>uint(k)&1 == 1 {
			b := tk.MaxConsecutiveImprecise
			if b > 0 && consec[job.TaskID]+1 > b {
				return false
			}
			consec[job.TaskID]++
			dur = tk.WCETImprecise
		} else {
			consec[job.TaskID] = 0
			dur = tk.WCETAccurate
		}
		f := start + dur
		if f > job.Deadline {
			return false
		}
		t = f
		nextIdx[job.TaskID]++
	}
	return true
}

// bruteForceFeasible reports whether any of the 2^m assignments survives.
func bruteForceFeasible(s *task.Set, sp task.Time) bool {
	totalJobs := make([]int32, s.Len())
	m := 0
	for l := 0; l < s.Len(); l++ {
		totalJobs[l] = int32(sp / s.Task(l).Period)
		m += int(totalJobs[l])
	}
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		if simulateAssignment(s, totalJobs, mask, m) {
			return true
		}
	}
	return false
}

func randomCumulativeSet(r *rng.Stream) *task.Set {
	periods := [][]task.Time{
		{6, 12}, {8, 16}, {10, 20}, {10, 10}, {6, 12, 12},
	}
	ps := periods[r.Intn(len(periods))]
	tasks := make([]task.Task, len(ps))
	for i, p := range ps {
		w := task.Time(2 + r.Intn(int(p)-2))
		x := task.Time(1 + r.Intn(int(w)-1))
		if x >= w {
			x = w - 1
		}
		tasks[i] = task.Task{
			Name: "t", Period: p, WCETAccurate: w, WCETImprecise: x,
			Error:                   task.Dist{Mean: 1},
			MaxConsecutiveImprecise: 1 + r.Intn(2),
		}
	}
	s, err := task.New(tasks)
	if err != nil {
		return nil
	}
	return s
}

// TestDPCompletenessProposition1 fuzzes DP(C) against exhaustive
// enumeration: the DP must report feasible exactly when some precision
// assignment satisfies both the deadline and error constraints.
func TestDPCompletenessProposition1(t *testing.T) {
	r := rng.New(31337)
	tested := 0
	for trial := 0; trial < 300; trial++ {
		s := randomCumulativeSet(r)
		if s == nil {
			continue
		}
		sp, _, capped := s.SuperPeriod(8)
		if capped {
			continue
		}
		m := 0
		for l := 0; l < s.Len(); l++ {
			m += int(sp / s.Task(l).Period)
		}
		if m > 14 {
			continue // keep 2^m bounded
		}
		want := bruteForceFeasible(s, sp)
		asg, stats, err := Solve(s, Options{SuperPeriodFactorCap: 8})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, s)
		}
		if stats.Truncated {
			continue
		}
		if stats.Feasible != want {
			t.Fatalf("trial %d: DP=%v brute=%v (m=%d, sp=%d)\n%s",
				trial, stats.Feasible, want, m, sp, s)
		}
		if stats.Feasible {
			// The returned plan must replay within budgets and deadlines.
			if got := len(asg.Jobs); got != m {
				t.Fatalf("trial %d: plan has %d jobs, super period has %d", trial, got, m)
			}
			validatePlan(t, trial, s, asg)
		}
		tested++
	}
	if tested < 80 {
		t.Fatalf("only %d instances exercised", tested)
	}
}

// validatePlan re-executes the assignment and checks every constraint.
func validatePlan(t *testing.T, trial int, s *task.Set, asg *Assignment) {
	t.Helper()
	consec := make([]int, s.Len())
	var clock task.Time
	for k, j := range asg.Jobs {
		tk := s.Task(j.TaskID)
		start := clock
		if j.Release > start {
			start = j.Release
		}
		var dur task.Time
		if asg.Modes[k] == task.Imprecise {
			consec[j.TaskID]++
			if b := tk.MaxConsecutiveImprecise; b > 0 && consec[j.TaskID] > b {
				t.Fatalf("trial %d: plan violates budget at job %d", trial, k)
			}
			dur = tk.WCETImprecise
		} else {
			consec[j.TaskID] = 0
			dur = tk.WCETAccurate
		}
		f := start + dur
		if f > j.Deadline {
			t.Fatalf("trial %d: plan misses deadline at job %d (%v)", trial, k, j)
		}
		clock = f
	}
}
