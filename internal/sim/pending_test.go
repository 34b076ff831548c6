package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nprt/internal/task"
)

// jobOf builds the job the engine would release for task id at release r
// with period p.
func jobOf(id, index int, r, p task.Time) task.Job {
	return task.Job{TaskID: id, Index: index, Release: r, Deadline: r + p}
}

func sortedJobs(js []task.Job) []task.Job {
	out := slices.Clone(js)
	slices.SortFunc(out, func(a, b task.Job) int {
		if a.TaskID != b.TaskID {
			return a.TaskID - b.TaskID
		}
		return a.Index - b.Index
	})
	return out
}

// values returns the jobs of m in unspecified order.
func values(m map[task.JobKey]task.Job) []task.Job {
	out := make([]task.Job, 0, len(m))
	for _, j := range m {
		out = append(out, j)
	}
	return out
}

func TestPendingQueueEmpty(t *testing.T) {
	var p pendingQueue
	p.reset()
	if p.size() != 0 || len(p.jobs()) != 0 {
		t.Errorf("fresh queue not empty")
	}
	if _, ok := p.peekEDF(); ok {
		t.Errorf("peekEDF on empty queue returned ok")
	}
	if _, ok := p.minRelease(task.JobKey{TaskID: 0, Index: 0}); ok {
		t.Errorf("minRelease on empty queue returned ok")
	}
	for _, k := range []task.JobKey{{TaskID: 0, Index: 0}, {TaskID: -1, Index: 0}, {TaskID: 3, Index: 0}} {
		if p.remove(k) {
			t.Errorf("remove(%v) on empty queue reported true", k)
		}
	}
	p.dropLate(100, func(j task.Job) { t.Errorf("dropLate dropped %v from an empty queue", j) })
}

// TestPendingQueueEDFOrder pushes jobs of three tasks in release order and
// drains the set through peekEDF: it yields the EDF total order, ties on
// deadline going to the earlier release, then the smaller task ID.
func TestPendingQueueEDFOrder(t *testing.T) {
	periods := []task.Time{4, 6, 12}
	var p pendingQueue
	var pushed []task.Job
	for r := task.Time(0); r < 12; r++ {
		for id, per := range periods {
			if r%per == 0 {
				j := jobOf(id, int(r/per), r, per)
				p.push(j)
				pushed = append(pushed, j)
			}
		}
	}
	want := slices.Clone(pushed)
	slices.SortFunc(want, func(a, b task.Job) int {
		if edfBefore(a, b) {
			return -1
		}
		return 1
	})
	var got []task.Job
	for {
		j, ok := p.peekEDF()
		if !ok {
			break
		}
		if !p.remove(j.Key()) {
			t.Fatalf("peeked %v but could not remove it", j)
		}
		got = append(got, j)
	}
	if !slices.Equal(got, want) {
		t.Errorf("drained %v, want %v", got, want)
	}
}

// TestPendingQueueRemoveByKey removes a task's earliest pending job, a job
// behind it (an offline commitment out of EDF order) and keys that are not
// pending.
func TestPendingQueueRemoveByKey(t *testing.T) {
	var p pendingQueue
	live := map[task.JobKey]task.Job{}
	for _, j := range []task.Job{
		jobOf(0, 0, 0, 5), jobOf(1, 0, 0, 30), jobOf(0, 1, 5, 5), jobOf(0, 2, 10, 5), jobOf(0, 3, 15, 5),
	} {
		p.push(j)
		live[j.Key()] = j
	}
	steps := []struct {
		key  task.JobKey
		want bool
	}{
		{task.JobKey{TaskID: 0, Index: 2}, true},  // behind the head
		{task.JobKey{TaskID: 0, Index: 2}, false}, // already removed
		{task.JobKey{TaskID: 0, Index: 0}, true},  // the head
		{task.JobKey{TaskID: 0, Index: 0}, false}, // before the new head
		{task.JobKey{TaskID: 0, Index: 9}, false}, // never released
		{task.JobKey{TaskID: 2, Index: 0}, false}, // no such task
		{task.JobKey{TaskID: 1, Index: 0}, true},  // a one-job task
	}
	for _, s := range steps {
		if got := p.remove(s.key); got != s.want {
			t.Fatalf("remove(%v) = %v, want %v", s.key, got, s.want)
		}
		delete(live, s.key)
		if got, want := sortedJobs(p.jobs()), sortedJobs(values(live)); !slices.Equal(got, want) {
			t.Fatalf("after remove(%v): pending %v, want %v", s.key, got, want)
		}
	}
	if j, _ := p.peekEDF(); j.Key() != (task.JobKey{TaskID: 0, Index: 1}) || p.size() != 2 {
		t.Fatalf("head %v, size %d; want τ(0,1) and 2 jobs", j, p.size())
	}
}

// TestPendingQueueMinReleaseExcluding checks the ESR query when the job it
// excludes is the earliest released: the answer then comes from that job's
// task or from another task.
func TestPendingQueueMinReleaseExcluding(t *testing.T) {
	var p pendingQueue
	for _, j := range []task.Job{
		jobOf(0, 0, 0, 4), jobOf(2, 0, 1, 10), jobOf(0, 1, 4, 4), jobOf(1, 0, 6, 20),
	} {
		p.push(j)
	}
	cases := []struct {
		exclude task.JobKey
		want    task.Time
	}{
		{task.JobKey{TaskID: 0, Index: 0}, 1}, // earliest excluded: τ(2,0)
		{task.JobKey{TaskID: 2, Index: 0}, 0}, // not the earliest
		{task.JobKey{TaskID: 1, Index: 7}, 0}, // not pending
	}
	for _, c := range cases {
		if got, ok := p.minRelease(c.exclude); !ok || got != c.want {
			t.Errorf("minRelease(%v) = %d,%v, want %d", c.exclude, got, ok, c.want)
		}
	}
	// With τ(2,0) gone the same task's second job, τ(0,1) at 4, is next.
	p.remove(task.JobKey{TaskID: 2, Index: 0})
	if got, _ := p.minRelease(task.JobKey{TaskID: 0, Index: 0}); got != 4 {
		t.Errorf("minRelease excluding the earliest = %d, want 4", got)
	}
}

// TestPendingQueueResetKeepsCapacity reuses one queue across runs, as the
// pooled State does: after the first run has grown the slice, later runs of
// the same shape allocate nothing.
func TestPendingQueueResetKeepsCapacity(t *testing.T) {
	var p pendingQueue
	run := func() {
		p.reset()
		for k := 0; k < 8; k++ {
			for id := 0; id < 4; id++ {
				p.push(jobOf(id, k, task.Time(10*k), 10))
			}
			if k%2 == 1 {
				p.minRelease(task.JobKey{})
				if j, ok := p.peekEDF(); ok {
					p.remove(j.Key())
				}
			}
		}
		p.jobs()
		p.dropLate(1000, func(task.Job) {})
		if p.size() != 0 {
			t.Fatalf("%d jobs left after dropLate", p.size())
		}
	}
	run()
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Errorf("warm reset: %v allocations per run, want 0", a)
	}
}

// quickJobs turns fuzzer bytes into jobs of four tasks: each byte picks a
// task and the gap before that task's next release, so within a task index,
// release and deadline all rise, as the engine releases them.
func quickJobs(in []uint8) []task.Job {
	var last [4]task.Time
	var next [4]int
	js := make([]task.Job, len(in))
	for i, b := range in {
		id := int(b % 4)
		r := last[id] + task.Time(b/4%5)
		js[i] = jobOf(id, next[id], r, task.Time(2+3*id))
		last[id], next[id] = r+1, next[id]+1
	}
	return js
}

// TestPendingQueueRemoveProperty removes random keys, some of them twice,
// then drains the set through peekEDF: a removal succeeds exactly once, and
// the drain yields every job not removed, in EDF order.
func TestPendingQueueRemoveProperty(t *testing.T) {
	f := func(in []uint8, picks []uint8) bool {
		js := quickJobs(in)
		var p pendingQueue
		for _, j := range js {
			p.push(j)
		}
		removed := map[int]bool{}
		for _, k := range picks {
			if len(js) == 0 {
				break
			}
			i := int(k) % len(js)
			if p.remove(js[i].Key()) == removed[i] {
				return false // removal succeeded twice or failed while present
			}
			removed[i] = true
		}
		var prev task.Job
		count := 0
		for {
			j, ok := p.peekEDF()
			if !ok {
				break
			}
			if count > 0 && !edfBefore(prev, j) || !p.remove(j.Key()) {
				return false
			}
			i := slices.Index(js, j)
			if i < 0 || removed[i] {
				return false
			}
			prev = j
			count++
		}
		return count == len(js)-len(removed) && p.size() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPendingQueueMinReleaseExcludingProperty checks minRelease against a
// scan of the pushed jobs, excluding one of them chosen at random or a key
// that is not pending.
func TestPendingQueueMinReleaseExcludingProperty(t *testing.T) {
	f := func(in []uint8, pick uint8) bool {
		js := quickJobs(in)
		var p pendingQueue
		for _, j := range js {
			p.push(j)
		}
		exclude := task.JobKey{TaskID: int(pick % 4), Index: -1}
		if len(js) > 0 && pick%8 != 0 {
			exclude = js[int(pick)%len(js)].Key()
		}
		var want task.Time
		found := false
		for _, j := range js {
			if j.Key() != exclude && (!found || j.Release < want) {
				want, found = j.Release, true
			}
		}
		got, ok := p.minRelease(exclude)
		return ok == found && (!found || got == want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// pendingScript drives a pending set through the operations the engine
// performs and checks every answer against a model, a map from job key to
// job: time only moves forward, every job released by then is pushed in
// (release, task ID) order, and each job's deadline is its release plus the
// period.
type pendingScript struct {
	t       testing.TB
	p       *pendingQueue
	model   map[task.JobKey]task.Job
	periods []task.Time
	jitter  bool
	now     task.Time
	next    []task.Job // per task: the job it releases next
	draw    func(n int) int
	log     []string
}

func newPendingScript(t testing.TB, draw func(n int) int, jitter bool) *pendingScript {
	s := &pendingScript{t: t, p: new(pendingQueue), draw: draw, jitter: jitter}
	s.restart()
	return s
}

// restart begins a new run over a fresh random task set, reusing the queue
// as a pooled State does.
func (s *pendingScript) restart() {
	n := 1 + s.draw(8)
	s.periods = make([]task.Time, n)
	s.next = make([]task.Job, n)
	for i := range s.periods {
		s.periods[i] = task.Time(1 + s.draw(20))
		s.next[i] = jobOf(i, 0, task.Time(s.draw(int(s.periods[i]))), s.periods[i])
	}
	s.now = 0
	s.p.reset()
	s.model = map[task.JobKey]task.Job{}
	s.logf("reset %d tasks, periods %v, jitter %v", n, s.periods, s.jitter)
	s.advance(0)
}

func (s *pendingScript) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *pendingScript) fail(format string, args ...any) {
	s.t.Helper()
	tail := s.log
	if len(tail) > 30 {
		tail = tail[len(tail)-30:]
	}
	s.t.Fatalf("%s\nlast operations:\n  %s", fmt.Sprintf(format, args...), fmt.Sprint(tail))
}

// advance moves time forward by dt and releases every job due by then.
func (s *pendingScript) advance(dt task.Time) {
	s.now += dt
	for {
		first := -1
		for i, j := range s.next {
			if j.Release <= s.now && (first < 0 || j.Release < s.next[first].Release) {
				first = i
			}
		}
		if first < 0 {
			return
		}
		j := s.next[first]
		s.p.push(j)
		s.model[j.Key()] = j
		r := j.Release + s.periods[first]
		if s.jitter {
			r += task.Time(s.draw(int(s.periods[first]) + 1))
		}
		s.next[first] = jobOf(first, j.Index+1, r, s.periods[first])
	}
}

// modelJobs returns the model's pending jobs sorted by task and index.
func (s *pendingScript) modelJobs() []task.Job {
	return sortedJobs(values(s.model))
}

// pick returns a pending job chosen by the script, or false when none is.
func (s *pendingScript) pick() (task.Job, bool) {
	js := s.modelJobs()
	if len(js) == 0 {
		return task.Job{}, false
	}
	return js[s.draw(len(js))], true
}

// earliest returns the pending job first in (release, task ID) order.
func (s *pendingScript) earliest() (task.Job, bool) {
	var first task.Job
	found := false
	for _, j := range s.model {
		if !found || j.Release < first.Release || j.Release == first.Release && j.TaskID < first.TaskID {
			first, found = j, true
		}
	}
	return first, found
}

func (s *pendingScript) remove(k task.JobKey) {
	s.logf("remove %v", k)
	_, want := s.model[k]
	if got := s.p.remove(k); got != want {
		s.fail("remove(%v) = %v, want %v", k, got, want)
	}
	delete(s.model, k)
}

func (s *pendingScript) minRelease(k task.JobKey) {
	s.logf("minRelease excluding %v", k)
	var want task.Time
	found := false
	for key, j := range s.model {
		if key != k && (!found || j.Release < want) {
			want, found = j.Release, true
		}
	}
	if got, ok := s.p.minRelease(k); got != want || ok != found {
		s.fail("minRelease(%v) = %d,%v, want %d,%v", k, got, ok, want, found)
	}
}

// step draws and applies one operation, then checks the size.
func (s *pendingScript) step() {
	switch op := s.draw(12); op {
	case 0, 1, 2:
		dt := task.Time(s.draw(12))
		s.logf("advance %d", dt)
		s.advance(dt)
	case 3: // remove a task's earliest pending job (what EDF dispatch does)
		if j, ok := s.pick(); ok {
			for _, o := range s.model {
				if o.TaskID == j.TaskID && o.Index < j.Index {
					j = o
				}
			}
			s.remove(j.Key())
		}
	case 4: // remove any pending job (an OA commitment)
		if j, ok := s.pick(); ok {
			s.remove(j.Key())
		}
	case 5: // remove a key that is not pending
		n := len(s.periods)
		keys := []task.JobKey{
			{TaskID: s.draw(n), Index: s.next[s.draw(n)].Index + s.draw(3)},
			{TaskID: n + s.draw(3), Index: 0},
			{TaskID: -1, Index: 0},
		}
		if j, ok := s.pick(); ok && j.Index > 0 {
			keys = append(keys, task.JobKey{TaskID: j.TaskID, Index: j.Index - 1})
		}
		s.remove(keys[s.draw(len(keys))])
	case 6:
		s.logf("dropLate %d", s.now)
		var got, want []task.Job
		for k, j := range s.model {
			if j.Deadline <= s.now {
				want = append(want, j)
				delete(s.model, k)
			}
		}
		s.p.dropLate(s.now, func(j task.Job) { got = append(got, j) })
		if a, b := sortedJobs(got), sortedJobs(want); !slices.Equal(a, b) {
			s.fail("dropLate(%d) dropped %v, want %v", s.now, a, b)
		}
	case 7:
		s.logf("peekEDF")
		var want task.Job
		found := false
		for _, j := range s.model {
			if !found || edfBefore(j, want) {
				want, found = j, true
			}
		}
		if got, ok := s.p.peekEDF(); got != want || ok != found {
			s.fail("peekEDF = %v,%v, want %v,%v", got, ok, want, found)
		}
	case 8:
		if j, ok := s.earliest(); ok {
			s.minRelease(j.Key())
		}
	case 9:
		if j, ok := s.pick(); ok {
			s.minRelease(j.Key())
		}
	case 10:
		s.minRelease(task.JobKey{TaskID: s.draw(len(s.periods) + 1), Index: -1 - s.draw(3)})
	case 11:
		if s.draw(8) == 0 {
			s.restart()
			break
		}
		s.logf("jobs")
		if got, want := sortedJobs(s.p.jobs()), s.modelJobs(); !slices.Equal(got, want) {
			s.fail("jobs = %v, want %v", got, want)
		}
	}
	if got, want := s.p.size(), len(s.model); got != want {
		s.fail("size = %d, want %d", got, want)
	}
}

// TestPendingQueueMatchesModel runs seeded random scripts under periodic
// and jittered release patterns and checks every answer of the pending set
// against the model.
func TestPendingQueueMatchesModel(t *testing.T) {
	for _, jitter := range []bool{false, true} {
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := newPendingScript(t, rng.Intn, jitter)
			for i := 0; i < 400; i++ {
				s.step()
			}
		}
	}
}

// FuzzPendingQueue is TestPendingQueueMatchesModel driven by fuzzer bytes:
// the first byte picks the release pattern, the rest every choice of the
// script.
func FuzzPendingQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 7, 3, 0, 0, 0, 9, 9, 4, 8, 2, 6, 5, 11, 3, 1, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		jitter := data[0]&1 == 1
		data = data[1:]
		draw := func(n int) int {
			if len(data) == 0 || n <= 1 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v % n
		}
		s := newPendingScript(t, draw, jitter)
		for len(data) > 0 {
			s.step()
		}
	})
}
