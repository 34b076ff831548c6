// Package workload constructs the paper's testcases. The authors published
// only the characteristics of their random task sets (Table I: task count,
// accurate-mode utilization, jobs per hyper-period, Theorem-1 verdicts),
// so this package *constructs* deterministic task sets that match those
// characteristics exactly where legible and plausibly where the scan is
// garbled — the substitution recorded in DESIGN.md. Every case is verified
// against its targets by the package tests.
//
// Error statistics come from the accuracy-configurable approximate adder
// characterization (internal/imprecise), mirroring the paper's use of
// accuracy-configurable circuit data; execution-time distributions follow
// the paper's recipe: Gaussian with WCET = μ + 6σ plus a margin and
// WCET/BCET ≈ 10.
package workload

import (
	"fmt"
	"sort"

	"nprt/internal/feasibility"
	"nprt/internal/imprecise"
	"nprt/internal/rng"
	"nprt/internal/task"
)

// Case is one benchmark testcase with its published target characteristics.
type Case struct {
	Name string
	// Targets from Table I.
	WantTasks        int
	WantUtilAccurate float64
	WantJobsPerHyper int
	WantImpreciseOK  bool // Theorem-1 verdict with imprecise WCETs
	UtilTolerance    float64
	tasks            []task.Task
}

// Set materializes the task set.
func (c *Case) Set() (*task.Set, error) { return task.New(c.tasks) }

// MustSet materializes or panics (the constructions are verified by tests).
func (c *Case) MustSet() *task.Set { return task.MustNew(c.tasks) }

// baseHyper is the base hyper-period of the random cases: highly composite
// so job-count targets can be met with divisor periods.
const baseHyper = task.Time(2520)

// divisors of baseHyper in ascending order, capped at 64 so periods stay
// ≥ baseHyper/64 and condition-2 scans stay cheap.
var divisors = func() []task.Time {
	var ds []task.Time
	for d := task.Time(1); d <= 64; d++ {
		if baseHyper%d == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}()

// pickJobCounts selects n job counts (each a divisor of baseHyper, at least
// one equal to 1 so the hyper-period is exactly baseHyper) summing to total.
func pickJobCounts(n, total int, r *rng.Stream) ([]task.Time, error) {
	if total < n {
		return nil, fmt.Errorf("workload: %d jobs cannot cover %d tasks", total, n)
	}
	counts := make([]task.Time, n)
	counts[n-1] = 1 // period = baseHyper, pins the hyper-period
	remaining := total - 1
	for i := n - 2; i >= 0; i-- {
		tasksLeft := i // tasks still to fill after this one
		maxHere := remaining - tasksLeft
		// Candidate divisors ≤ maxHere.
		hi := 0
		for hi < len(divisors) && int(divisors[hi]) <= maxHere {
			hi++
		}
		if hi == 0 {
			return nil, fmt.Errorf("workload: cannot split %d jobs over %d tasks", remaining, tasksLeft+1)
		}
		// Bias toward larger counts early so the spread is wide.
		pick := divisors[r.Intn(hi)]
		if i == 0 {
			// Last slot must absorb the exact remainder — and it must be a
			// divisor.
			pick = task.Time(remaining)
			ok := false
			for _, d := range divisors {
				if d == pick {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf("workload: remainder %d is not a divisor", remaining)
			}
		}
		counts[i] = pick
		remaining -= int(pick)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("workload: counts leave %d jobs unassigned", remaining)
	}
	// Descending counts → ascending periods.
	sort.Slice(counts, func(a, b int) bool { return counts[a] > counts[b] })
	return counts, nil
}

// adderErrorDist derives a task's error statistics from the approximate
// adder with the given low-bit configuration, scaled into the error
// magnitudes of Table II.
func adderErrorDist(bits int, seed uint64) task.Dist {
	ch := imprecise.CharacterizeAdder(imprecise.ApproxAdder{Width: 16, ApproxBits: bits}, 4000, seed)
	const scale = 1.0 / 16
	return task.Dist{Mean: ch.MeanError * scale, Sigma: ch.ErrStdDev * scale}
}

// execDist builds the paper's execution-time model for a WCET: Gaussian
// with WCET = μ + 6σ plus a 10% margin, and best case ≈ WCET/10. The mean
// sits low (≈0.2·WCET), which is what makes the WCET model pessimistic and
// gives the online methods their slack — exactly the effect the paper
// exploits.
func execDist(w task.Time) task.Dist {
	fw := float64(w)
	return task.Dist{
		Mean:  fw * 0.45,
		Sigma: fw * 0.075, // 0.45 + 6·0.075 = 0.9, leaving a 10% margin
		Min:   fw * 0.1,
		Max:   fw,
	}
}

// buildRandomCase constructs one RndN case matching the targets. It retries
// deterministic seeds until the verified characteristics hold.
func buildRandomCase(name string, n, jobsPerP int, utilAcc float64, impOK bool, baseSeed uint64) (*Case, error) {
	for attempt := uint64(0); attempt < 64; attempt++ {
		c, err := tryBuildRandomCase(name, n, jobsPerP, utilAcc, impOK, baseSeed+attempt)
		if err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("workload: %s: no attempt satisfied the targets", name)
}

func tryBuildRandomCase(name string, n, jobsPerP int, utilAcc float64, impOK bool, seed uint64) (*Case, error) {
	r := rng.New(seed)
	counts, err := pickJobCounts(n, jobsPerP, r)
	if err != nil {
		return nil, err
	}
	periods := make([]task.Time, n)
	for i, cnt := range counts {
		periods[i] = baseHyper / cnt
	}
	p1 := periods[0]

	// Imprecise utilization target.
	uImp := utilAcc * 0.30
	if !impOK {
		uImp = 1.15 // overload: condition 1 fails outright
	} else {
		if uImp > 0.80 {
			uImp = 0.80
		}
		if uImp < 0.10 {
			uImp = 0.10
		}
	}

	// Distribute U_imp with random weights; cap x_i to avoid accidental
	// condition-2 blocking when the case must be imprecise-feasible.
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = 0.4 + r.Float64()
		sum += weights[i]
	}
	xs := make([]task.Time, n)
	for i := range xs {
		x := task.Time(uImp * weights[i] / sum * float64(periods[i]))
		if x < 1 {
			x = 1
		}
		if impOK {
			if lim := p1 * 2 / 5; x > lim && i > 0 {
				x = lim
			}
		}
		if x >= periods[i] {
			x = periods[i] - 1
		}
		xs[i] = x
	}

	// Accurate WCETs scale the imprecise ones up to the utilization target.
	curImp := 0.0
	for i := range xs {
		curImp += float64(xs[i]) / float64(periods[i])
	}
	ratio := utilAcc / curImp
	if ratio <= 1.05 {
		return nil, fmt.Errorf("workload: %s: accurate/imprecise ratio %.2f too tight", name, ratio)
	}
	ws := make([]task.Time, n)
	for i := range ws {
		w := task.Time(ratio * float64(xs[i]))
		if w > periods[i] {
			w = periods[i] // clamp; the shortfall is redistributed below
		}
		if w <= xs[i] {
			w = xs[i] + 1
		}
		ws[i] = w
	}
	// Redistribute clamped utilization onto unclamped tasks.
	for pass := 0; pass < 8; pass++ {
		cur := 0.0
		for i := range ws {
			cur += float64(ws[i]) / float64(periods[i])
		}
		deficit := utilAcc - cur
		if deficit < 0.01 {
			break
		}
		for i := range ws {
			if deficit <= 0 {
				break
			}
			room := periods[i] - ws[i]
			if room <= 0 {
				continue
			}
			add := task.Time(deficit * float64(periods[i]))
			if add > room {
				add = room
			}
			ws[i] += add
			deficit -= float64(add) / float64(periods[i])
		}
	}

	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{
			Name:                    fmt.Sprintf("%s-t%d", name, i),
			Period:                  periods[i],
			WCETAccurate:            ws[i],
			WCETImprecise:           xs[i],
			ExecAccurate:            execDist(ws[i]),
			ExecImprecise:           execDist(xs[i]),
			Error:                   adderErrorDist(4+i%8, seed+uint64(i)),
			MaxConsecutiveImprecise: 1 + i%6, // B_i ∈ [1,6] per Table III
		}
	}
	c := &Case{
		Name: name, WantTasks: n, WantUtilAccurate: utilAcc,
		WantJobsPerHyper: jobsPerP, WantImpreciseOK: impOK,
		UtilTolerance: 0.05, tasks: tasks,
	}
	return c, c.verify()
}

// verify checks the constructed set against every target characteristic.
func (c *Case) verify() error {
	s, err := task.New(c.tasks)
	if err != nil {
		return err
	}
	if s.Len() != c.WantTasks {
		return fmt.Errorf("workload: %s: %d tasks, want %d", c.Name, s.Len(), c.WantTasks)
	}
	if got := s.JobsPerHyperperiod(); got != c.WantJobsPerHyper {
		return fmt.Errorf("workload: %s: %d jobs/P, want %d", c.Name, got, c.WantJobsPerHyper)
	}
	if got := s.UtilizationAccurate(); got < c.WantUtilAccurate-c.UtilTolerance ||
		got > c.WantUtilAccurate+c.UtilTolerance {
		return fmt.Errorf("workload: %s: U_acc %.3f, want %.3f±%.2f",
			c.Name, got, c.WantUtilAccurate, c.UtilTolerance)
	}
	if feasibility.Schedulable(s, task.Accurate) {
		return fmt.Errorf("workload: %s: unexpectedly schedulable in accurate mode", c.Name)
	}
	if got := feasibility.Schedulable(s, task.Imprecise); got != c.WantImpreciseOK {
		return fmt.Errorf("workload: %s: imprecise schedulability %v, want %v",
			c.Name, got, c.WantImpreciseOK)
	}
	return nil
}

// rnd5 is the special low-utilization case: U_acc ≈ 0.45 yet accurate mode
// fails Theorem 1 because the long-period task's accurate WCET blocks the
// short-period task (condition 2) — the classic non-preemptive pathology.
func rnd5() (*Case, error) {
	// Jobs/P: 2520/252 + 2520/420 + 2520/2520 = 10 + 6 + 1 = 17.
	// U_acc = 40/252 + 70/420 + 300/2520 ≈ 0.444. The blocker's accurate
	// WCET (300) exceeds the smallest period (252), so condition 2 fails at
	// L = 253 (demand 300 + 40 = 340 > 253) despite the low utilization.
	// Imprecise WCETs are small everywhere, so imprecise mode passes.
	tasks := []task.Task{
		{Name: "rnd5-t0", Period: 252, WCETAccurate: 40, WCETImprecise: 14},
		{Name: "rnd5-t1", Period: 420, WCETAccurate: 70, WCETImprecise: 24},
		{Name: "rnd5-t2", Period: 2520, WCETAccurate: 300, WCETImprecise: 60},
	}
	for i := range tasks {
		tasks[i].ExecAccurate = execDist(tasks[i].WCETAccurate)
		tasks[i].ExecImprecise = execDist(tasks[i].WCETImprecise)
		tasks[i].Error = adderErrorDist(5+2*i, 5000+uint64(i))
		tasks[i].MaxConsecutiveImprecise = 1 + i%6
	}
	c := &Case{
		Name: "Rnd5", WantTasks: 3, WantUtilAccurate: 0.45,
		WantJobsPerHyper: 17, WantImpreciseOK: true,
		UtilTolerance: 0.05, tasks: tasks,
	}
	return c, c.verify()
}

// randomSpecs are the generated Table I cases in order; a case's build
// seed is 1000·(its index here + 1).
var randomSpecs = []struct {
	name    string
	n       int
	utilAcc float64
	jobs    int
	impOK   bool
}{
	{"Rnd1", 2, 1.13, 13, true},
	{"Rnd2", 3, 1.88, 3, false},
	{"Rnd3", 5, 1.93, 15, true},
	{"Rnd4", 3, 1.20, 16, true},
	// Rnd5 is built by rnd5 and follows Rnd4.
	{"Rnd6", 6, 2.20, 38, true},
	{"Rnd7", 8, 4.43, 38, true},
	{"Rnd8", 12, 2.91, 60, true},
	{"Rnd9", 15, 1.93, 24, true},
	{"Rnd10", 17, 4.99, 126, true},
	{"Rnd11", 20, 3.57, 105, true},
	{"Rnd12", 22, 5.47, 130, true},
	{"Rnd13", 25, 7.12, 163, true},
}

func buildRandomSpec(i int) (*Case, error) {
	sp := randomSpecs[i]
	return buildRandomCase(sp.name, sp.n, sp.jobs, sp.utilAcc, sp.impOK, uint64(1000*(i+1)))
}

// Cases returns the full benchmark suite: Rnd1–Rnd13 plus the IDCT case,
// in Table I order. Construction is deterministic; errors indicate a bug
// (the tests lock the characteristics).
func Cases() ([]*Case, error) {
	var out []*Case
	for i, sp := range randomSpecs {
		c, err := buildRandomSpec(i)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if sp.name == "Rnd4" {
			c5, err := rnd5()
			if err != nil {
				return nil, err
			}
			out = append(out, c5)
		}
	}
	idct, err := IDCTCase()
	if err != nil {
		return nil, err
	}
	out = append(out, idct)
	return out, nil
}

// CaseByName builds one case of the suite, and only that one.
func CaseByName(name string) (*Case, error) {
	switch name {
	case "Rnd5":
		return rnd5()
	case "IDCT":
		return IDCTCase()
	}
	for i, sp := range randomSpecs {
		if sp.name == name {
			return buildRandomSpec(i)
		}
	}
	return nil, fmt.Errorf("workload: unknown case %q", name)
}
