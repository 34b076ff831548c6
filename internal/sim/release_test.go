package sim

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"nprt/internal/rng"
	"nprt/internal/task"
)

// refRelease is one job of the release-order oracle.
type refRelease struct {
	at          task.Time
	task, index int
}

// referenceReleases lists every job (i, k) whose window fits the horizon,
// r_i + k·p_i + p_i ≤ MaxRelease + hyperperiods·H, sorted by release time
// and then task ID. It shares no code with the engine's release step.
func referenceReleases(s *task.Set, hyperperiods int) []refRelease {
	horizon := s.MaxRelease() + task.Time(hyperperiods)*s.Hyperperiod()
	var out []refRelease
	for i := 0; i < s.Len(); i++ {
		tk := s.Task(i)
		for k := 0; ; k++ {
			at := tk.Release + task.Time(k)*tk.Period
			if at+tk.Period > horizon {
				break
			}
			out = append(out, refRelease{at: at, task: i, index: k})
		}
	}
	slices.SortFunc(out, func(a, b refRelease) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.task, b.task)
	})
	return out
}

// releaseRecorder is a FaultSampler that injects no execution faults and
// drops a seeded share of releases. The engine asks DropRelease once per
// release, in release order, so the calls record the release sequence.
type releaseRecorder struct {
	seed  uint64
	drop  uint64 // a release is dropped when its hash mod 8 is below drop
	order []task.JobKey
}

func (r *releaseRecorder) JobFault(*task.Task, task.Job) Fault { return Fault{} }

func (r *releaseRecorder) DropRelease(t *task.Task, index int) bool {
	r.order = append(r.order, task.JobKey{TaskID: t.ID, Index: index})
	h := (r.seed ^ uint64(t.ID)<<32 ^ uint64(index)) * 0x9e3779b97f4a7c15
	return (h>>59)%8 < r.drop
}

// releaseOrderPolicy runs EDF-Imprecise and checks, at every decision, that
// exactly the reference jobs released at or before now have been released,
// and that every job it sees carries its reference release and deadline.
type releaseOrderPolicy struct {
	t   testing.TB
	s   *task.Set
	rec *releaseRecorder
	ref []refRelease
}

func (p *releaseOrderPolicy) Name() string { return "release-order" }
func (p *releaseOrderPolicy) Reset(*State) {}

func (p *releaseOrderPolicy) Pick(st *State) (Decision, bool) {
	due := sort.Search(len(p.ref), func(i int) bool { return p.ref[i].at > st.Now() })
	if len(p.rec.order) != due {
		p.t.Fatalf("at t=%d the engine has released %d jobs, the reference %d", st.Now(), len(p.rec.order), due)
	}
	j, ok := st.EDFPick()
	return Decision{Job: j, Mode: task.Imprecise}, ok
}

func (p *releaseOrderPolicy) JobFinished(_ *State, d Decision, _, _ task.Time) { p.check(d.Job) }
func (p *releaseOrderPolicy) JobDropped(_ *State, j task.Job)                  { p.check(j) }

func (p *releaseOrderPolicy) check(j task.Job) {
	tk := p.s.Task(j.TaskID)
	if at := tk.Release + task.Time(j.Index)*tk.Period; j.Release != at || j.Deadline != at+tk.Period {
		p.t.Fatalf("job %v: want release %d, deadline %d", j, at, at+tk.Period)
	}
}

// checkReleaseOrder runs s for the given hyper-periods, dropping releases
// at the given rate (out of 8), and holds the engine's release sequence to
// the reference.
func checkReleaseOrder(t testing.TB, s *task.Set, hyperperiods int, seed, drop uint64) {
	t.Helper()
	rec := &releaseRecorder{seed: seed, drop: drop}
	ref := referenceReleases(s, hyperperiods)
	p := &releaseOrderPolicy{t: t, s: s, rec: rec, ref: ref}
	res, err := Run(s, p, Config{Hyperperiods: hyperperiods, Sampler: WorstCaseSampler{}, Faults: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != int64(len(ref)) {
		t.Fatalf("%d jobs executed or dropped, the reference releases %d", res.Jobs, len(ref))
	}
	if len(rec.order) != len(ref) {
		t.Fatalf("%d releases, the reference has %d", len(rec.order), len(ref))
	}
	for i, r := range ref {
		if got := rec.order[i]; got != (task.JobKey{TaskID: r.task, Index: r.index}) {
			t.Fatalf("release %d is %v, the reference has task %d job %d at t=%d", i, got, r.task, r.index, r.at)
		}
	}
}

// releaseSet builds a small set from draws: 1–4 tasks with periods from a
// small lcm-friendly menu and release offsets up to twice the period, so
// tasks start inside, at and after other tasks' later periods.
func releaseSet(t testing.TB, draw func(n int) int) *task.Set {
	periods := []task.Time{2, 3, 4, 6, 8, 12}
	tasks := make([]task.Task, 1+draw(4))
	for i := range tasks {
		p := periods[draw(len(periods))]
		tasks[i] = task.Task{Period: p, Release: task.Time(draw(int(2*p) + 1)),
			WCETAccurate: 2, WCETImprecise: 1}
	}
	s, err := task.New(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReleaseOrderMatchesReference draws seeded small sets with release
// offsets, 1–5 hyper-periods and dropped releases, and holds the engine's
// release sequence, timing and job fields to the sorted reference. A last
// set has more releases per hyper-period than the calendar holds, so its
// jitter-free run takes the heap.
func TestReleaseOrderMatchesReference(t *testing.T) {
	r := rng.New(0x5e1ea5e)
	draw := func(n int) int { return r.Intn(n) }
	for trial := 0; trial < 400; trial++ {
		s := releaseSet(t, draw)
		checkReleaseOrder(t, s, 1+draw(5), r.Uint64(), uint64(draw(4)))
	}
	big, err := task.New([]task.Task{
		{Period: 2, WCETAccurate: 2, WCETImprecise: 1},
		{Period: 131075, Release: 3, WCETAccurate: 2, WCETImprecise: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calendarLen(big, 1); n >= 0 {
		t.Fatalf("calendar holds the big set's %d releases; it must take the heap", n)
	}
	checkReleaseOrder(t, big, 1, 7, 1)
}

// FuzzReleaseOrder is TestReleaseOrderMatchesReference over fuzzed sets:
// the first bytes choose the hyper-periods, the drop rate and the seed,
// the rest the tasks.
func FuzzReleaseOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 5, 1, 2, 0})
	f.Add([]byte{4, 3, 9, 2, 1, 7, 4, 22, 0, 0, 5, 13})
	f.Add([]byte{2, 1, 200, 3, 3, 24, 0, 0, 1, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func(n int) int {
			if len(data) == 0 || n <= 1 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v % n
		}
		hp, drop, seed := 1+draw(5), uint64(draw(4)), uint64(draw(256))
		checkReleaseOrder(t, releaseSet(t, draw), hp, seed, drop)
	})
}
