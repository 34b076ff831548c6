package feasibility_test

import (
	"math"
	"math/rand"
	"testing"

	"nprt/internal/feasibility"
	"nprt/internal/task"
	"nprt/internal/workload"
)

// reportsEqual compares every field of two Reports, including the full
// violation lists.
func reportsEqual(a, b feasibility.Report) bool {
	if a.Schedulable != b.Schedulable || a.Utilization != b.Utilization ||
		a.GammaUtil != b.GammaUtil || a.GammaMin != b.GammaMin ||
		a.ArgMinTask != b.ArgMinTask || a.ArgMinL != b.ArgMinL ||
		len(a.Violations) != len(b.Violations) {
		return false
	}
	for i := range a.Violations {
		if a.Violations[i] != b.Violations[i] {
			return false
		}
	}
	return true
}

// The step-point Check must reproduce the unit-stride oracle bit for bit on
// every Table-I set in every mode.
func TestCheckStepPointMatchesExhaustiveTableI(t *testing.T) {
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatalf("CachedCases: %v", err)
	}
	modes := []task.Mode{task.Accurate, task.Imprecise, task.Deepest}
	for _, c := range cases {
		s, err := c.Set()
		if err != nil {
			t.Fatalf("case %s: %v", c.Name, err)
		}
		for _, m := range modes {
			got := feasibility.Check(s, m)
			want := feasibility.CheckExhaustive(s, m)
			if !reportsEqual(got, want) {
				t.Errorf("case %s mode %d: step-point Check diverges:\n got %+v\nwant %+v",
					c.Name, m, got, want)
			}
		}
	}
}

// Random sets, including infeasible ones with long violation runs and
// equal-period ties.
func TestCheckStepPointMatchesExhaustiveRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rnd.Intn(4)
		tasks := make([]task.Task, n)
		for i := range tasks {
			p := task.Time(3 + rnd.Intn(120))
			if i > 0 && rnd.Intn(4) == 0 {
				p = tasks[i-1].Period // force period ties
			}
			w := task.Time(1 + rnd.Intn(int(p)+4)) // may exceed p: infeasible draws
			x := w / 2
			if x < 1 {
				x = 1
			}
			if x >= w {
				w = x + 1
			}
			tasks[i] = task.Task{Name: "r", Period: p, WCETAccurate: w, WCETImprecise: x}
		}
		s, err := task.New(tasks)
		if err != nil {
			continue
		}
		for _, m := range []task.Mode{task.Accurate, task.Deepest} {
			got := feasibility.Check(s, m)
			want := feasibility.CheckExhaustive(s, m)
			if !reportsEqual(got, want) {
				t.Fatalf("trial %d mode %d: diverges for %v:\n got %+v\nwant %+v",
					trial, m, tasks, got, want)
			}
		}
	}
}

// probeOracle is what Incremental.Probe promises to match: the verdicts of
// a full Profiles run over task.New(existing specs in insertion order, then
// the candidate appended) — exactly how runtime.Add builds its candidate
// set. The bool reports whether the oracle is defined (task.New succeeded).
func probeOracle(t *testing.T, specs []task.Task, c task.Task) (accOK, deepOK, ok bool) {
	t.Helper()
	cand := append(append([]task.Task(nil), specs...), c)
	s, err := task.New(cand)
	if err != nil {
		return false, false, false
	}
	acc, deep := feasibility.Profiles(s)
	return acc.Schedulable, deep.Schedulable, true
}

func checkProbe(t *testing.T, inc *feasibility.Incremental, specs []task.Task, c task.Task, ctx string) {
	t.Helper()
	wantA, wantD, ok := probeOracle(t, specs, c)
	if !ok {
		return
	}
	gotA, gotD := inc.Probe(&c)
	if gotA != wantA || gotD != wantD {
		t.Fatalf("%s: Probe(%+v) = (%v,%v), Profiles oracle = (%v,%v); resident %v",
			ctx, c, gotA, gotD, wantA, wantD, specs)
	}
}

// Every Table-I set, admitted one task at a time: each probe must match the
// full-recomputation oracle, both for the task about to be admitted and for
// a few synthetic rejectable candidates.
func TestIncrementalProbeMatchesProfilesTableI(t *testing.T) {
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatalf("CachedCases: %v", err)
	}
	for _, c := range cases {
		s, err := c.Set()
		if err != nil {
			t.Fatalf("case %s: %v", c.Name, err)
		}
		inc := feasibility.NewIncremental(nil)
		var specs []task.Task
		for i := 0; i < s.Len(); i++ {
			tk := *s.Task(i)
			checkProbe(t, inc, specs, tk, c.Name)
			// A hog candidate that should usually fail, and a short-period
			// candidate exercising the new-first-task fallback.
			hog := task.Task{Name: "hog", Period: tk.Period,
				WCETAccurate: tk.Period, WCETImprecise: tk.Period / 2}
			if hog.WCETImprecise < 1 {
				hog.WCETImprecise = 1
			}
			checkProbe(t, inc, specs, hog, c.Name+"/hog")
			tiny := task.Task{Name: "tiny", Period: 2, WCETAccurate: 1, WCETImprecise: 1}
			checkProbe(t, inc, specs, tiny, c.Name+"/tiny")

			inc.Add(&tk)
			specs = append(specs, tk)
		}
		if inc.Len() != s.Len() {
			t.Fatalf("case %s: cache holds %d tasks, want %d", c.Name, inc.Len(), s.Len())
		}
	}
}

// Seeded churn: adds (committed or not, feasible or not) and removes in
// random order, with period ties, degraded residents (accurate-infeasible
// but deepest-feasible sets), and utilization checks along the way. Every
// intermediate set's full Check Report must also match the exhaustive
// oracle, violation lists included.
func TestIncrementalProbeMatchesProfilesRandomChurn(t *testing.T) {
	rnd := rand.New(rand.NewSource(929))
	for trial := 0; trial < 60; trial++ {
		inc := feasibility.NewIncremental(nil)
		var specs []task.Task
		id := 0
		for step := 0; step < 40; step++ {
			if len(specs) > 0 && rnd.Intn(3) == 0 {
				victim := rnd.Intn(len(specs))
				name := specs[victim].Name
				if !inc.Remove(name) {
					t.Fatalf("trial %d: Remove(%q) reported absent", trial, name)
				}
				specs = append(specs[:victim], specs[victim+1:]...)
				continue
			}
			p := task.Time(3 + rnd.Intn(90))
			if len(specs) > 0 && rnd.Intn(4) == 0 {
				p = specs[rnd.Intn(len(specs))].Period // tie with a resident
			}
			w := task.Time(2 + rnd.Intn(int(p)-1))
			x := w / 2
			if x < 1 {
				x = 1
			}
			id++
			c := task.Task{Name: name(id), Period: p, WCETAccurate: w, WCETImprecise: x}
			checkProbe(t, inc, specs, c, "churn")
			if rnd.Intn(2) == 0 {
				inc.Add(&c)
				specs = append(specs, c)
			}
			if len(specs) > 0 {
				assertMatchesExhaustive(t, specs, "churn")
			}
			if len(specs) > 0 && step%7 == 0 {
				s, err := task.New(specs)
				if err != nil {
					t.Fatalf("trial %d: task.New: %v", trial, err)
				}
				for _, m := range []task.Mode{task.Accurate, task.Deepest} {
					if got, want := inc.Utilization(m), feasibility.Check(s, m).Utilization; got != want {
						t.Fatalf("trial %d: Utilization(%d) = %v, want %v", trial, m, got, want)
					}
				}
			}
		}
	}
}

func name(id int) string {
	return "t" + string(rune('a'+id%26)) + string(rune('a'+(id/26)%26)) + string(rune('a'+(id/676)%26))
}

// An empty cache must reduce to the single-task condition-1 check.
func TestIncrementalProbeEmpty(t *testing.T) {
	inc := feasibility.NewIncremental(nil)
	ok := task.Task{Name: "x", Period: 10, WCETAccurate: 10, WCETImprecise: 5}
	if a, d := inc.Probe(&ok); !a || !d {
		t.Errorf("U=1 singleton rejected: (%v,%v)", a, d)
	}
	bad := task.Task{Name: "x", Period: 10, WCETAccurate: 11, WCETImprecise: 5}
	if a, d := inc.Probe(&bad); a || !d {
		t.Errorf("U=1.1 singleton: got (%v,%v), want (false,true)", a, d)
	}
}

// A candidate opening a new period class between two resident periods is
// decided by its own row against the demand below it, even when every
// longer class passes by the bound alone: here p_c = 29 adds no job below
// 30, so only the candidate's own WCET can fail.
func TestIncrementalProbeNewClassBetweenPeriods(t *testing.T) {
	specs := []task.Task{
		{Name: "short", Period: 10, WCETAccurate: 2, WCETImprecise: 1},
		{Name: "long", Period: 30, WCETAccurate: 2, WCETImprecise: 1},
	}
	inc := feasibility.NewIncremental(specs)
	// Own row, accurate: w + 2 ≤ 11 at L = 11; deepest: w/2 + 1 ≤ 11.
	for _, w := range []task.Time{9, 10, 21, 24} {
		c := task.Task{Name: "gap", Period: 29, WCETAccurate: w, WCETImprecise: w / 2}
		checkProbe(t, inc, specs, c, "gap")
	}
}

func benchmarkSet(b *testing.B, n int) *task.Set {
	b.Helper()
	rnd := rand.New(rand.NewSource(5))
	// Periods from a divisor-friendly menu so the hyper-period stays small.
	menu := []task.Time{200, 300, 400, 600, 800, 1200, 2400, 4800}
	tasks := make([]task.Task, n)
	for i := range tasks {
		p := menu[rnd.Intn(len(menu))]
		w := task.Time(2 + rnd.Intn(int(p)/(2*n)+1))
		tasks[i] = task.Task{Name: name(i + 1), Period: p, WCETAccurate: w, WCETImprecise: w / 2}
	}
	s, err := task.New(tasks)
	if err != nil {
		b.Fatalf("task.New: %v", err)
	}
	return s
}

// denseShard0 packs the dense pool first-fit onto two shards in the dense
// admission workload's warm-up order (shapes permuted by seed 1), the way
// the cluster places it: the first shard where the accurate profile passes,
// else the first where the deepest one does. It returns shard 0's 113
// tasks in admission order.
func denseShard0(b *testing.B) []task.Task {
	b.Helper()
	pool := densePool(1)
	shards := [2]*feasibility.Incremental{feasibility.NewIncremental(nil), feasibility.NewIncremental(nil)}
	var shard0 []task.Task
	for _, k := range rand.New(rand.NewSource(1)).Perm(len(pool)) {
		c := pool[k]
		at := -1
		for i, sh := range shards {
			acc, deep := sh.Probe(&c)
			if acc {
				at = i
				break
			}
			if deep && at < 0 {
				at = i
			}
		}
		if at < 0 {
			b.Fatalf("dense shape %d fits no shard", k)
		}
		shards[at].Add(&c)
		if at == 0 {
			shard0 = append(shard0, c)
		}
	}
	if len(shard0) != 113 {
		b.Fatalf("shard 0 holds %d dense tasks, want 113", len(shard0))
	}
	return shard0
}

// BenchmarkProfiles measures the admission screen itself: the step-point
// Check in both profiles on a Table-I-scale set, on larger long-period
// sets where the old unit-stride scan was O(p_n) per row, and on the dense
// workload's harmonic 113-task shard.
func BenchmarkProfiles(b *testing.B) {
	cases, err := workload.CachedCases()
	if err != nil {
		b.Fatalf("CachedCases: %v", err)
	}
	s0, err := cases[0].Set()
	if err != nil {
		b.Fatalf("case set: %v", err)
	}
	dense, err := task.New(denseShard0(b))
	if err != nil {
		b.Fatalf("dense shard: %v", err)
	}
	sets := map[string]*task.Set{
		"tableI/" + cases[0].Name: s0,
		"rand16":                  benchmarkSet(b, 16),
		"rand64":                  benchmarkSet(b, 64),
		"dense113":                dense,
	}
	for label, s := range sets {
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc, deep := feasibility.Profiles(s)
				if acc.GammaMin == 0 || deep.GammaMin == 0 {
					b.Fatal("degenerate report")
				}
			}
		})
	}
}

// BenchmarkIncrementalProbe measures the bin-packing hot path: one probe
// against an established resident set, versus the full Profiles
// recomputation it replaces, and the mirror update an admission then pays
// (an Add and the Remove that undoes it), also on the dense 113-task shard.
func BenchmarkIncrementalProbe(b *testing.B) {
	for _, n := range []int{16, 64} {
		s := benchmarkSet(b, n)
		tasks := make([]task.Task, s.Len())
		for i := range tasks {
			tasks[i] = *s.Task(i)
		}
		inc := feasibility.NewIncremental(tasks)
		cand := task.Task{Name: "cand", Period: 900, WCETAccurate: 3, WCETImprecise: 1}
		b.Run("probe/"+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, d := inc.Probe(&cand)
				if !a && !d {
					b.Fatal("probe rejected benchmark candidate")
				}
			}
		})
		b.Run("full/"+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				merged := append(append([]task.Task(nil), tasks...), cand)
				ms, err := task.New(merged)
				if err != nil {
					b.Fatal(err)
				}
				acc, _ := feasibility.Profiles(ms)
				if !acc.Schedulable {
					b.Fatal("full probe rejected benchmark candidate")
				}
			}
		})
		b.Run("addremove/"+itoa(n), func(b *testing.B) { benchmarkAddRemove(b, inc, cand) })
	}
	// The dense shard's shortest period: the update that rescans the most.
	inc := feasibility.NewIncremental(denseShard0(b))
	cand := task.Task{Name: "cand", Period: 1000, WCETAccurate: 40, WCETImprecise: 13}
	b.Run("probe/dense113", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			probeSink, _ = inc.Probe(&cand)
		}
	})
	b.Run("full/dense113", func(b *testing.B) {
		tasks := append(denseShard0(b), cand)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ms, err := task.New(tasks)
			if err != nil {
				b.Fatal(err)
			}
			reportSink, _ = feasibility.Profiles(ms)
		}
	})
	b.Run("addremove/dense113", func(b *testing.B) { benchmarkAddRemove(b, inc, cand) })
}

// Sinks keep the benchmarked calls' results live.
var (
	probeSink  bool
	reportSink feasibility.Report
)

func benchmarkAddRemove(b *testing.B, inc *feasibility.Incremental, cand task.Task) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inc.Add(&cand)
		if !inc.Remove(cand.Name) {
			b.Fatal("benchmark candidate vanished")
		}
	}
}

func itoa(n int) string {
	if n == 16 {
		return "16"
	}
	return "64"
}

// densePool returns the 200 task shapes of the dense admission workload:
// harmonic periods 1000, 2000, 4000 and 8000 (divided by div) by 50
// accurate WCETs spread over 20–95 (also divided by div), imprecise WCETs a
// third of those. Whole classes share one period and many WCETs tie.
func densePool(div task.Time) []task.Task {
	periods := []task.Time{1000, 2000, 4000, 8000}
	pool := make([]task.Task, 200)
	for k := range pool {
		w := (20 + task.Time(k/4)*77/50) / div
		x := max(w/3, 1)
		w = max(w, x+1)
		pool[k] = task.Task{Name: name(k + 1), Period: periods[k%4] / div,
			WCETAccurate: w, WCETImprecise: x}
	}
	return pool
}

// assertMatchesExhaustive asserts that Check reproduces the unit-stride oracle's
// full Report, violations included, in both profiles.
func assertMatchesExhaustive(t *testing.T, specs []task.Task, ctx string) {
	t.Helper()
	s, err := task.New(specs)
	if err != nil {
		t.Fatalf("%s: task.New: %v", ctx, err)
	}
	for _, m := range []task.Mode{task.Accurate, task.Deepest} {
		if got, want := feasibility.Check(s, m), feasibility.CheckExhaustive(s, m); !reportsEqual(got, want) {
			t.Fatalf("%s mode %d: Check diverges from the oracle:\n got %+v\nwant %+v", ctx, m, got, want)
		}
	}
}

// The dense workload's harmonic, tie-heavy shape (periods scaled down so
// the unit-stride oracle stays fast), packed first-fit onto one shard the
// way the cluster places it: every probe matches the Profiles oracle, and
// Check matches the exhaustive oracle as the shard fills past the point
// where the accurate profile fails.
func TestIncrementalHarmonicTies(t *testing.T) {
	pool := densePool(20)
	rnd := rand.New(rand.NewSource(17))
	rnd.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	inc := feasibility.NewIncremental(nil)
	var specs []task.Task
	accFailed := false
	for i, c := range pool {
		checkProbe(t, inc, specs, c, "harmonic")
		accOK, deepOK := inc.Probe(&c)
		if !deepOK {
			continue
		}
		accFailed = accFailed || !accOK
		inc.Add(&c)
		specs = append(specs, c)
		if i%16 == 0 {
			assertMatchesExhaustive(t, specs, "harmonic")
		}
	}
	assertMatchesExhaustive(t, specs, "harmonic/full")
	assertMatchesExhaustive(t, pool, "harmonic/pool") // infeasible in both profiles
	if !accFailed || len(specs) < 50 {
		t.Fatalf("shard of %d tasks never left the accurate profile: the test lost its tie-heavy overload", len(specs))
	}
	// Churn the packed shard: remove and re-add residents, probing all the
	// while.
	for step := 0; step < 200; step++ {
		v := rnd.Intn(len(specs))
		victim := specs[v]
		if !inc.Remove(victim.Name) {
			t.Fatalf("Remove(%q) reported absent", victim.Name)
		}
		specs = append(specs[:v], specs[v+1:]...)
		c := pool[rnd.Intn(len(pool))]
		c.Name = name(1000 + step)
		checkProbe(t, inc, specs, c, "harmonic/churn")
		if _, deepOK := inc.Probe(&c); deepOK {
			inc.Add(&c)
			specs = append(specs, c)
		}
		if step%40 == 0 {
			assertMatchesExhaustive(t, specs, "harmonic/churn")
		}
	}
}

// An update rescans one class per distinct period from the changed period
// on, never row by row: on the dense pool (4 periods) an Add or Remove
// reads at most 4 class slacks and regenerates at most the 7 step points
// below the longest period, where the per-row rescan it replaces rescanned
// up to every resident row.
func TestIncrementalWorkPerUpdate(t *testing.T) {
	pool := densePool(1)
	inc := feasibility.NewIncremental(pool[:113])
	if cs, _ := inc.WorkCounts(); cs != 4 {
		t.Fatalf("Reset read %d class slacks, want 4 (one per period)", cs)
	}
	// Class slacks read and step points generated per update, by period.
	want := map[task.Time][2]int{1000: {4, 7}, 2000: {3, 6}, 4000: {2, 4}, 8000: {1, 0}}
	for i := 113; i < len(pool); i++ {
		for _, update := range []string{"add", "remove"} {
			cs0, sp0 := inc.WorkCounts()
			c := pool[i]
			if update == "add" {
				inc.Add(&c)
			} else {
				inc.Remove(pool[i-113].Name)
				c = pool[i-113]
			}
			cs, sp := inc.WorkCounts()
			if got := [2]int{cs - cs0, sp - sp0}; got != want[c.Period] {
				t.Fatalf("%s of period %d: (class scans, step points) = %v, want %v",
					update, c.Period, got, want[c.Period])
			}
		}
	}
}

// Period families for the Reports differential: harmonic (few step points,
// whole classes), coprime (many step points) and tie-heavy (large classes
// whose largest WCET changes as members come and go).
var reportsPeriods = [][]task.Time{
	{10, 20, 40, 80},
	{7, 11, 13, 17, 19, 23},
	{12, 12, 12, 30, 30, 60},
}

// reportsModel drives an Incremental through adds and removes and holds
// Reports to the Summary of Profiles(task.New(...)) of the insertion-ordered
// list after every step.
type reportsModel struct {
	t       *testing.T
	periods []task.Time
	inc     *feasibility.Incremental
	list    []task.Task // insertion order
	next    int
	seen    *[3]int // steps checked with both, the deepest only, no profile passing
}

// step performs one operation chosen by two bytes: a remove of any
// resident, or an add whose WCET may reach the period (infeasible sets
// stay in the cache, as a rejected candidate does until it is removed).
func (m *reportsModel) step(op, arg byte) {
	if len(m.list) > 0 && op%3 == 0 {
		v := int(arg) % len(m.list)
		if !m.inc.Remove(m.list[v].Name) {
			m.t.Fatalf("Remove(%q) reported absent", m.list[v].Name)
		}
		m.list = append(m.list[:v], m.list[v+1:]...)
	} else {
		p := m.periods[int(arg)%len(m.periods)]
		w := 2 + task.Time(op/3)%(p-1) // up to p: one task alone is valid
		c := task.Task{Name: name(m.next), Period: p, WCETAccurate: w, WCETImprecise: max(w/3, 1)}
		if op%5 == 4 && c.WCETImprecise > 1 {
			// A third level: Deepest differs from Imprecise.
			c.ExtraLevels = []task.Level{{WCET: c.WCETImprecise / 2}}
		}
		m.next++
		m.inc.Add(&c)
		m.list = append(m.list, c)
	}
	m.check()
}

func (m *reportsModel) check() {
	m.t.Helper()
	if len(m.list) == 0 {
		return
	}
	s, err := task.New(m.list)
	if err != nil {
		m.t.Fatalf("task.New: %v", err)
	}
	wantA, wantD := feasibility.Profiles(s)
	gotA, gotD := m.inc.Reports()
	for _, c := range []struct {
		prof      string
		got, want feasibility.Summary
	}{{"accurate", gotA, wantA.Summary()}, {"deepest", gotD, wantD.Summary()}} {
		if c.got.Schedulable != c.want.Schedulable ||
			math.Float64bits(c.got.Utilization) != math.Float64bits(c.want.Utilization) ||
			math.Float64bits(c.got.GammaMin) != math.Float64bits(c.want.GammaMin) {
			m.t.Fatalf("%s Reports %+v, Profiles %+v, set %v", c.prof, c.got, c.want, m.list)
		}
	}
	switch {
	case wantA.Schedulable:
		m.seen[0]++
	case wantD.Schedulable:
		m.seen[1]++
	default:
		m.seen[2]++
	}
}

// runReports plays a script: its first byte picks the period family, each
// following pair of bytes one step. Inputs are capped so an execution
// stays short.
func runReports(t *testing.T, data []byte, seen *[3]int) {
	if len(data) == 0 {
		return
	}
	if len(data) > 512 {
		data = data[:512]
	}
	m := &reportsModel{t: t, periods: reportsPeriods[int(data[0])%len(reportsPeriods)],
		inc: feasibility.NewIncremental(nil), seen: seen}
	for i := 1; i+1 < len(data); i += 2 {
		m.step(data[i], data[i+1])
	}
}

// TestIncrementalReportsMatchProfiles is FuzzIncrementalReports' seeded
// twin: random scripts over every period family, long enough to fill the
// sets past infeasibility and drain them again.
func TestIncrementalReportsMatchProfiles(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	var seen [3]int
	for trial := 0; trial < 150; trial++ {
		data := make([]byte, 1+2*(20+rnd.Intn(100)))
		rnd.Read(data)
		data[0] = byte(trial)
		runReports(t, data, &seen)
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("steps by verdict (accurate, deepest only, neither) = %v: a verdict never came up", seen)
	}
}

// FuzzIncrementalReports holds Reports to Profiles, bit for bit, after
// every add and remove of an arbitrary script.
func FuzzIncrementalReports(f *testing.F) {
	f.Add([]byte{0, 1, 0, 4, 1, 7, 2, 10, 3, 0, 0, 3, 1})
	f.Add([]byte{1, 200, 5, 201, 4, 202, 3, 6, 0, 255, 5, 9, 2})
	f.Add([]byte{2, 4, 0, 9, 1, 14, 2, 40, 3, 3, 0, 4, 4, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) { runReports(t, data, new([3]int)) })
}
