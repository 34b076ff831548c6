// Package sim is the discrete-event uniprocessor testbed the paper's
// evaluation runs on: a virtual-time, non-preemptive executor for periodic
// task sets. A scheduling Policy is consulted whenever the processor is
// free; the engine samples actual execution times and imprecision errors,
// advances the clock, and accumulates the metrics reported in Tables II/III
// (deadline-violation rates, per-job mean error and standard deviation,
// mode counts).
//
// Virtual time makes runs bit-reproducible and lets a "10K hyper-periods"
// experiment finish in milliseconds of wall time, which is the substitution
// this reproduction makes for the authors' wall-clock testbed.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"nprt/internal/pq"
	"nprt/internal/rng"
	"nprt/internal/stats"
	"nprt/internal/task"
	"nprt/internal/trace"
)

// Decision is a policy's dispatch choice: which job to run next and in
// which accuracy mode. The job may be unreleased; the engine then idles
// until its release (offline policies exploit this to enforce an order).
type Decision struct {
	Job  task.Job
	Mode task.Mode
}

// Policy is a non-preemptive scheduling policy. The engine calls Pick every
// time the processor becomes free; returning ok=false idles the processor
// until the next job release.
//
// Policies may additionally implement Validator (pre-run compatibility
// checks) and DropAware (notification of fault-dropped releases).
type Policy interface {
	// Name identifies the policy in reports ("EDF+ESR", "Flipped EDF", ...).
	Name() string
	// Reset prepares the policy for a fresh run over st.Set().
	Reset(st *State)
	// Pick chooses the next job and mode given the engine state.
	Pick(st *State) (Decision, bool)
	// JobFinished reports the actual start/finish of the decided job.
	JobFinished(st *State, d Decision, start, finish task.Time)
}

// Validator is an optional Policy extension: a policy that can detect up
// front that it is incompatible with a set (an offline plan built for a
// different job population, say) implements it, and Run reports the error
// instead of running — or panicking — on the mismatch.
type Validator interface {
	// ValidateFor reports why the policy cannot drive the set, or nil.
	ValidateFor(s *task.Set) error
}

// JitterSampler supplies sporadic release jitter: the extra delay (>= 0)
// between a job's minimum release point and its actual release. Periodic
// tasks are the zero-jitter special case. Theorem 1 remains a sufficient
// schedulability condition for sporadic tasks with the period read as the
// minimum inter-release separation (Jeffay et al.), so the online policies
// keep their guarantees; the offline methods require known release times
// and reject sporadic runs.
type JitterSampler interface {
	// ReleaseJitter returns the extra delay before release `index` of the
	// task. Must be non-negative.
	ReleaseJitter(t *task.Task, index int) task.Time
}

// RandomJitter samples truncated-Gaussian release jitter per task from
// deterministic streams.
type RandomJitter struct {
	dists   []task.Dist
	streams []*rng.Stream
}

// NewRandomJitter builds a jitter sampler; dists[i] parameterizes task i's
// jitter (zero Dist = strictly periodic task).
func NewRandomJitter(s *task.Set, dists []task.Dist, seed uint64) *RandomJitter {
	root := rng.New(seed ^ 0x6a09e667f3bcc908)
	rj := &RandomJitter{dists: dists, streams: make([]*rng.Stream, s.Len())}
	for i := range rj.streams {
		rj.streams[i] = root.Split(uint64(i))
	}
	return rj
}

// ReleaseJitter implements JitterSampler.
func (rj *RandomJitter) ReleaseJitter(t *task.Task, _ int) task.Time {
	d := rj.dists[t.ID]
	if d.IsZero() {
		return 0
	}
	v := task.Time(rj.streams[t.ID].SampleDist(d))
	if v < 0 {
		v = 0
	}
	return v
}

// Sampler supplies actual execution times and imprecision errors.
type Sampler interface {
	// ExecTime returns the actual execution time of job j of t in mode m.
	// Must be in [1, t.WCET(m)].
	ExecTime(t *task.Task, j task.Job, m task.Mode) task.Time
	// Error returns the single-valued error of one execution of job j in
	// (non-accurate) mode m.
	Error(t *task.Task, j task.Job, m task.Mode) float64
}

// RandomSampler draws truncated-Gaussian execution times (capped at the
// mode's WCET) and Gaussian-magnitude errors from per-task streams, as in
// the paper's simulation setup (§VI-A).
type RandomSampler struct {
	exec []*rng.Stream // one per task
	errs []*rng.Stream
}

// NewRandomSampler builds a sampler for the set with the given root seed.
func NewRandomSampler(s *task.Set, seed uint64) *RandomSampler {
	root := rng.New(seed)
	rs := &RandomSampler{
		exec: make([]*rng.Stream, s.Len()),
		errs: make([]*rng.Stream, s.Len()),
	}
	for i := 0; i < s.Len(); i++ {
		rs.exec[i] = root.Split(uint64(2 * i))
		rs.errs[i] = root.Split(uint64(2*i + 1))
	}
	return rs
}

// ExecTime samples the mode's execution-time distribution, capped at WCET.
func (rs *RandomSampler) ExecTime(t *task.Task, _ task.Job, m task.Mode) task.Time {
	return rs.exec[t.ID].SampleDuration(t.ExecDist(m), t.WCET(m))
}

// Error samples |N(e, σ)| from the mode's error distribution.
func (rs *RandomSampler) Error(t *task.Task, _ task.Job, m task.Mode) float64 {
	return rs.errs[t.ID].SampleError(t.ErrorDist(m))
}

// WorstCaseSampler runs every job at exactly its WCET and charges the mean
// error — the deterministic setting used by unit tests and by schedulability
// arguments.
type WorstCaseSampler struct{}

// ExecTime returns the mode's WCET.
func (WorstCaseSampler) ExecTime(t *task.Task, _ task.Job, m task.Mode) task.Time {
	return t.WCET(m)
}

// Error returns the mode's pre-characterized mean error.
func (WorstCaseSampler) Error(t *task.Task, _ task.Job, m task.Mode) float64 {
	return t.ErrorDist(m).Mean
}

// Config parameterizes one simulation run.
type Config struct {
	Hyperperiods int     // number of hyper-periods to simulate (>= 1)
	Sampler      Sampler // defaults to WorstCaseSampler{}
	TraceLimit   int     // keep at most this many trace entries (0 = none, <0 = all)
	// StopOnMiss aborts the run at the first deadline miss (used by
	// feasibility probes; production experiments keep running and count).
	StopOnMiss bool
	// DropLate discards pending jobs whose deadline has already passed
	// instead of executing them late: each drop counts as a deadline
	// violation. This is how an overloaded baseline (EDF-Accurate on the
	// over-utilized Table I cases) keeps a bounded backlog and yields the
	// intermediate violation percentages the paper reports.
	DropLate bool
	// Jitter, when non-nil, makes releases sporadic: each job is released
	// Jitter(...) after its earliest possible point (the previous release
	// plus the period). Policies that commit to future jobs by their
	// periodic release times (the offline+OA family) are rejected under
	// jitter.
	Jitter JitterSampler
	// Faults, when non-nil, injects model violations: WCET overruns,
	// mid-execution aborts and dropped releases (see FaultPlan). With
	// Faults nil — the default — every fault code path is skipped and runs
	// are bit-identical to the fault-free engine. Composes with Jitter.
	Faults FaultSampler
	// Containment selects the response to budget violations when Faults is
	// set (ignored otherwise). The zero value RunToCompletion is the
	// uncontained baseline.
	Containment Containment
}

// Result aggregates one run.
type Result struct {
	Policy       string
	Jobs         int64
	Misses       stats.Rate        // deadline violations per job
	Error        stats.Accumulator // per-job error (accurate jobs contribute 0)
	PerTaskError []stats.Accumulator
	// PerTaskResponse tracks response times (finish − release) of executed
	// jobs, a standard real-time quality metric alongside the paper's error
	// statistics. Dropped jobs (DropLate) are not included.
	PerTaskResponse []stats.Accumulator
	Accurate        int64 // executions per mode
	Imprecise       int64
	Busy            task.Time // total executed time
	Horizon         task.Time
	// MaxLateness is the largest finish − deadline over executed jobs
	// (0 when nothing finished late). Dropped jobs are not included; their
	// misses are already counted. Overload governors use this alongside the
	// miss rate to grade how badly a window overran.
	MaxLateness task.Time
	Trace       *trace.Trace // first TraceLimit entries (nil when TraceLimit == 0)
	Aborted     bool         // true when StopOnMiss fired
	// Faults is the fault-injection accounting; nil when Config.Faults was
	// nil. Failed jobs (watchdog kills, crashes, dropped releases) count as
	// deadline misses and charge the task's deepest-level mean error (the
	// stale-fallback quality); their response times are not recorded.
	Faults *FaultStats
}

// MeanError returns the per-job mean error (the Table II statistic).
func (r *Result) MeanError() float64 { return r.Error.Mean() }

// ErrorStdDev returns the per-job error standard deviation σ.
func (r *Result) ErrorStdDev() float64 { return r.Error.StdDev() }

// MissPercent returns the deadline-violation percentage.
func (r *Result) MissPercent() float64 { return r.Misses.Percent() }

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: jobs=%d miss=%.1f%% err=%.4g±%.4g acc=%d imp=%d",
		r.Policy, r.Jobs, r.MissPercent(), r.MeanError(), r.ErrorStdDev(),
		r.Accurate, r.Imprecise)
}

// release is a pending task-release event.
type release struct {
	at     task.Time
	taskID int
}

// releaseFirst orders release events by time, then task ID. Each task has
// at most one release at an instant, so this is a total order: same-time
// releases enter the pending set in task-ID order whatever the heap's
// layout or the calendar's sort.
func releaseFirst(a, b release) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.taskID < b.taskID
}

// State is the engine view a policy sees. It is valid only during the
// callbacks of one Run: the engine pools and reuses State instances (and
// their internal heap buffers) across runs, so policies must not retain a
// *State or any slice obtained from it past the end of a run.
type State struct {
	set     *task.Set
	now     task.Time
	horizon task.Time

	pend      pendingQueue // released, not yet executed
	nextIndex []int        // per task: next job index to release

	// A jitter-free run replays its releases from cal, every release in
	// [0, MaxRelease + H) in releaseFirst order, each packed as its time
	// shifted left by calShift bits above its task ID. From MaxRelease on
	// the release pattern repeats every hyper-period H, so after its last
	// entry the cursor wraps to calWrap, the first entry at or after
	// MaxRelease, and calOff grows by H. calNext is the cursor's entry
	// with calOff added; its time reaches the horizon once no job is left
	// to release. A sporadic run, or a set whose calendar would not fit
	// (see calendarLen), keeps one event per task in the releases heap.
	useCal   bool
	cal      []uint64
	calShift uint
	calPos   int
	calWrap  int
	calOff   task.Time
	calNext  release
	releases *pq.Heap[release]

	jobsPerP []int // per task: jobs per hyper-period

	jitter JitterSampler // nil = strictly periodic

	faults   FaultSampler   // nil = no injection
	onDrop   func(task.Job) // accounting hook for dropped releases (set by Run)
	degraded []bool         // per task: forced-imprecise under DowngradeOnOverrun
}

// statePool recycles run state — the pending set, the release calendar or
// event queue and the per-task index slices — across the thousands of Run
// calls an experiment sweep makes, so a warm sweep allocates per run only
// what escapes into the Result.
var statePool = sync.Pool{New: func() any { return new(State) }}

// reset prepares a (possibly recycled) State for a fresh run.
func (st *State) reset(s *task.Set, cfg Config) {
	st.set = s
	st.now = 0
	st.horizon = s.MaxRelease() + task.Time(cfg.Hyperperiods)*s.Hyperperiod()
	st.jitter = cfg.Jitter
	st.pend.reset()
	st.cal = st.cal[:0]
	st.calShift = uint(bits.Len(uint(s.Len() - 1)))
	st.calPos, st.calOff = 0, 0
	st.calNext = release{at: st.horizon}
	st.useCal = false
	if cfg.Jitter == nil {
		if size := calendarLen(s, st.calShift); size >= 0 {
			st.useCal = true
			st.cal = slices.Grow(st.cal, size)
		}
	}
	if !st.useCal {
		if st.releases == nil {
			st.releases = pq.New(releaseFirst)
		} else {
			st.releases.Clear()
		}
	}
	st.nextIndex = resizedZeroed(st.nextIndex, s.Len())
	st.jobsPerP = resizedZeroed(st.jobsPerP, s.Len())
	st.faults = cfg.Faults
	st.onDrop = nil
	st.degraded = st.degraded[:0]
	if cfg.Faults != nil {
		st.degraded = resizedFalse(st.degraded, s.Len())
	}
}

// resizedFalse returns a length-n all-false slice, reusing capacity.
func resizedFalse(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// resizedZeroed returns a length-n all-zero slice, reusing capacity.
func resizedZeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Sporadic reports whether the run has sporadic (jittered) releases.
func (st *State) Sporadic() bool { return st.jitter != nil }

// Set returns the task set under simulation.
func (st *State) Set() *task.Set { return st.set }

// Now returns the current virtual time.
func (st *State) Now() task.Time { return st.now }

// Horizon returns the end of the simulated window.
func (st *State) Horizon() task.Time { return st.horizon }

// Pending returns the released, unexecuted jobs (unordered, read-only;
// valid only until the engine next mutates the pending set).
func (st *State) Pending() []task.Job { return st.pend.jobs() }

// EDFPick returns the pending job with the earliest deadline, breaking ties
// by earlier release then smaller task ID (deterministic EDF).
func (st *State) EDFPick() (task.Job, bool) {
	return st.pend.peekEDF()
}

func edfBefore(a, b task.Job) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	return a.Index < b.Index
}

// NextReleaseTime returns the earliest release time among unreleased future
// jobs and pending jobs other than exclude; ok is false when no such job
// exists within the horizon. This is the r_next of the ESR idle-slack rule.
func (st *State) NextReleaseTime(exclude task.JobKey) (task.Time, bool) {
	best, found := st.pend.minRelease(exclude)
	if r, ok := st.peekRelease(); ok && (!found || r.at < best) {
		best, found = r.at, true
	}
	return best, found
}

// JobsPerHyperperiod returns the per-task job count in one hyper-period.
func (st *State) JobsPerHyperperiod(taskID int) int { return st.jobsPerP[taskID] }

// calendarCap bounds the release calendar, 8 bytes an entry, so that its
// memory does not grow with a set's hyper-period: a set with more
// releases in [0, MaxRelease + H) keeps the heap.
const calendarCap = 1 << 16

// calendarLen returns how many releases fall in [0, MaxRelease + H), or
// -1 when they are more than calendarCap or their times leave no room for
// a task ID in the shift bits below them.
func calendarLen(s *task.Set, shift uint) int {
	end := s.MaxRelease() + s.Hyperperiod()
	if end <= 0 || uint64(end) > math.MaxUint64>>shift {
		return -1
	}
	n := 0
	for i := 0; i < s.Len() && n <= calendarCap; i++ {
		tk := s.Task(i)
		n += int((end - tk.Release + tk.Period - 1) / tk.Period)
	}
	if n > calendarCap {
		return -1
	}
	return n
}

// buildCalendar fills cal with every release r_i + k·p_i in
// [0, MaxRelease + H). A packed entry orders by time and then task ID, so
// sorting the words puts the releases in releaseFirst order.
func (st *State) buildCalendar() {
	s := st.set
	end := s.MaxRelease() + s.Hyperperiod()
	for i := 0; i < s.Len(); i++ {
		tk := s.Task(i)
		for at := tk.Release; at < end; at += tk.Period {
			st.cal = append(st.cal, uint64(at)<<st.calShift|uint64(i))
		}
	}
	slices.Sort(st.cal)
	st.calWrap, _ = slices.BinarySearch(st.cal, uint64(s.MaxRelease())<<st.calShift)
	st.settleCalendar()
}

// peekRelease returns the earliest unreleased job's release event; ok is
// false when no job is left to release within the horizon.
func (st *State) peekRelease() (release, bool) {
	if !st.useCal {
		return st.releases.Peek()
	}
	return st.calNext, st.calNext.at < st.horizon
}

// settleCalendar sets calNext to the cursor's entry, wrapping at the end
// of cal and first stepping past entries whose job's deadline falls past
// the horizon: only jobs whose whole window fits the horizon are released.
func (st *State) settleCalendar() {
	for ; ; st.calPos++ {
		if st.calPos == len(st.cal) {
			st.calPos = st.calWrap
			st.calOff += st.set.Hyperperiod()
		}
		k := st.cal[st.calPos]
		r := release{at: task.Time(k>>st.calShift) + st.calOff, taskID: int(k & (1<<st.calShift - 1))}
		if r.at >= st.horizon || r.at+st.set.Task(r.taskID).Period <= st.horizon {
			st.calNext = r
			return
		}
	}
}

// advanceReleases moves every job released at or before t into pending.
// A calendar run steps its cursor. A heap run replaces the task's event
// with its next release in place (one sift-down); under jitter the event's
// time is the actual release, and the next job's earliest point is that
// release plus the period (sporadic minimum separation). A task with no
// release left in the horizon leaves the heap.
func (st *State) advanceReleases(t task.Time) {
	for {
		r, ok := st.peekRelease()
		if !ok || r.at > t {
			return
		}
		idx := st.nextIndex[r.taskID]
		tk := st.set.Task(r.taskID)
		job := task.Job{TaskID: r.taskID, Index: idx, Release: r.at, Deadline: r.at + tk.Period}
		if st.faults != nil && st.onDrop != nil && st.faults.DropRelease(tk, idx) {
			// The activation is lost: the job never enters the pending set.
			// Subsequent releases keep their nominal separation.
			st.onDrop(job)
		} else {
			st.pend.push(job)
		}
		st.nextIndex[r.taskID]++
		if st.useCal {
			st.calPos++
			st.settleCalendar()
			continue
		}
		nextAt := r.at + tk.Period
		if st.jitter != nil {
			nextAt += st.jitter.ReleaseJitter(tk, idx+1)
		}
		if nextAt+tk.Period <= st.horizon {
			st.releases.ReplaceMin(release{at: nextAt, taskID: r.taskID})
		} else {
			st.releases.Pop()
		}
	}
}

// removePending deletes the job from the pending set; reports whether it
// was present.
func (st *State) removePending(key task.JobKey) bool {
	return st.pend.remove(key)
}

// Run simulates the policy over cfg.Hyperperiods hyper-periods of the set.
// Only jobs whose full [release, deadline] window fits the horizon are
// released, so every job's deadline verdict is observed.
func Run(s *task.Set, p Policy, cfg Config) (*Result, error) {
	if cfg.Hyperperiods <= 0 {
		cfg.Hyperperiods = 1
	}
	sampler := cfg.Sampler
	if sampler == nil {
		sampler = WorstCaseSampler{}
	}
	if v, ok := p.(Validator); ok {
		if err := v.ValidateFor(s); err != nil {
			return nil, fmt.Errorf("sim: policy %s rejects set: %w", p.Name(), err)
		}
	}
	faults := cfg.Faults

	st := statePool.Get().(*State)
	defer statePool.Put(st)
	st.reset(s, cfg)
	for i := 0; i < s.Len(); i++ {
		st.jobsPerP[i] = int(s.Hyperperiod() / s.Task(i).Period)
		if st.useCal {
			continue
		}
		at := s.Task(i).Release
		if st.jitter != nil {
			at += st.jitter.ReleaseJitter(s.Task(i), 0)
		}
		if at+s.Task(i).Period <= st.horizon {
			st.releases.Push(release{at: at, taskID: i})
		}
	}
	if st.useCal {
		st.buildCalendar()
	}

	// Both per-task accumulator slices escape into the Result; one backing
	// array halves that allocation.
	accs := make([]stats.Accumulator, 2*s.Len())
	res := &Result{
		Policy:          p.Name(),
		PerTaskError:    accs[:s.Len():s.Len()],
		PerTaskResponse: accs[s.Len():],
		Horizon:         st.horizon,
	}
	if cfg.TraceLimit != 0 {
		res.Trace = &trace.Trace{}
	}
	var fstats *FaultStats
	if faults != nil {
		fstats = newFaultStats(s.Len())
		res.Faults = fstats
	}

	// dropStale sheds one already-late pending job, counting the violation.
	// Under fault injection the shed job never was faulted itself (faults
	// strike at release or dispatch), so its miss is collateral damage.
	dropStale := func(j task.Job) {
		res.Jobs++
		res.Misses.Hit()
		res.Error.Add(0)
		res.PerTaskError[j.TaskID].Add(0)
		if fstats != nil {
			fstats.count(j.TaskID, func(t *TaskFaultStats) { t.CascadedMisses++ })
		}
	}
	if faults != nil {
		// A dropped release is a job that never runs: it counts as a miss
		// and charges the deepest-level mean error (the stale-result
		// fallback the system would serve in its place).
		st.onDrop = func(j task.Job) {
			tk := s.Task(j.TaskID)
			eFail := tk.ErrorDist(task.Deepest).Mean
			res.Jobs++
			res.Misses.Hit()
			res.Error.Add(eFail)
			res.PerTaskError[j.TaskID].Add(eFail)
			fstats.count(j.TaskID, func(t *TaskFaultStats) {
				t.DroppedReleases++
				t.FaultedMisses++
			})
			if da, ok := p.(DropAware); ok {
				da.JobDropped(st, j)
			}
		}
	}

	p.Reset(st)
	st.advanceReleases(0)

	for {
		if cfg.DropLate {
			st.pend.dropLate(st.now, dropStale)
		}
		if st.pend.size() == 0 {
			r, ok := st.peekRelease()
			if !ok {
				break // no pending work and no future releases: done
			}
			if r.at > st.now {
				st.now = r.at
			}
			st.advanceReleases(st.now)
			continue
		}

		d, ok := p.Pick(st)
		if !ok {
			// Policy waits for a future release.
			r, okR := st.peekRelease()
			if !okR {
				return nil, fmt.Errorf("sim: policy %s idles with %d pending jobs and no future releases",
					p.Name(), st.pend.size())
			}
			st.now = r.at
			st.advanceReleases(st.now)
			continue
		}

		// The decided job must be pending or a known future job of its task.
		if !st.removePending(d.Job.Key()) {
			// Allow policies to commit to an unreleased job: idle until it
			// arrives, releasing intermediate jobs of other tasks as we go.
			// Under sporadic releases future release times are unknowable,
			// so such commitments are rejected.
			if st.jitter != nil {
				return nil, fmt.Errorf("sim: policy %s committed to future job %v under sporadic releases",
					p.Name(), d.Job)
			}
			if d.Job.Release <= st.now || d.Job.Index != st.nextIndex[d.Job.TaskID] {
				if yes, err := droppedCommitment(st, p, d.Job); yes {
					continue // release was lost to fault injection; re-Pick
				} else if err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("sim: policy %s picked unknown job %v at t=%d",
					p.Name(), d.Job, st.now)
			}
			st.now = d.Job.Release
			st.advanceReleases(st.now)
			if !st.removePending(d.Job.Key()) {
				if yes, err := droppedCommitment(st, p, d.Job); yes {
					continue // the committed release was dropped as time advanced
				} else if err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("sim: job %v not released at its release time", d.Job)
			}
		}

		tk := s.Task(d.Job.TaskID)
		start := st.now
		if start < d.Job.Release {
			start = d.Job.Release
			st.advanceReleases(start)
		}

		// Fault injection: draw the job's verdict (a pure function of job
		// identity) and, under DowngradeOnOverrun, force the task's jobs to
		// the deepest imprecise level while it is marked degraded.
		runMode := d.Mode
		var fault Fault
		if faults != nil {
			fault = faults.JobFault(tk, d.Job)
			if cfg.Containment == DowngradeOnOverrun && st.degraded[d.Job.TaskID] {
				if deep := tk.ClampMode(task.Deepest); tk.ClampMode(runMode) != deep {
					runMode = deep
					fstats.count(d.Job.TaskID, func(t *TaskFaultStats) { t.Downgrades++ })
				}
			}
		}

		dur := sampler.ExecTime(tk, d.Job, runMode)
		if dur < 1 || dur > tk.WCET(runMode) {
			return nil, fmt.Errorf("sim: sampler produced %d outside [1,%d] for %v in %s mode",
				dur, tk.WCET(runMode), d.Job, runMode)
		}

		killed := false
		ftag := trace.FaultNone
		if faults != nil {
			tid := d.Job.TaskID
			switch fault.Kind {
			case FaultOverrun:
				fstats.count(tid, func(t *TaskFaultStats) { t.Overruns++ })
				w := tk.WCET(runMode)
				if cfg.Containment == AbortAtBudget {
					// Watchdog: the job is terminated exactly at its declared
					// budget; the processor is freed on schedule.
					dur = w
					killed = true
					fstats.count(tid, func(t *TaskFaultStats) { t.WatchdogKills++ })
				} else {
					over := task.Time(math.Ceil(fault.Factor * float64(w)))
					if over <= w {
						over = w + 1 // an overrun is strictly past budget
					}
					dur = over
					fstats.OverrunTime += over - w
					if cfg.Containment == DowngradeOnOverrun {
						st.degraded[tid] = true
					}
				}
			case FaultAbort:
				at := task.Time(fault.Point * float64(dur))
				if at < 1 {
					at = 1
				}
				if at < dur {
					dur = at
				}
				fstats.count(tid, func(t *TaskFaultStats) { t.Aborts++ })
			}
			ftag = failureTag(fault.Kind, killed)
		}
		// failed: the job produced no usable result (watchdog kill or crash).
		failed := killed || fault.Kind == FaultAbort

		finish := start + dur
		st.now = finish
		st.advanceReleases(st.now)

		var e float64
		switch {
		case failed:
			// The system serves the stale/deepest-quality fallback in place
			// of the lost result; no sampler stream is consumed.
			e = tk.ErrorDist(task.Deepest).Mean
		case runMode != task.Accurate:
			e = sampler.Error(tk, d.Job, runMode)
		}
		if runMode != task.Accurate {
			res.Imprecise++
		} else {
			res.Accurate++
		}
		res.Jobs++
		res.Error.Add(e)
		res.PerTaskError[d.Job.TaskID].Add(e)
		if !failed {
			res.PerTaskResponse[d.Job.TaskID].Add(float64(finish - d.Job.Release))
		}
		res.Busy += dur
		if late := finish - d.Job.Deadline; late > res.MaxLateness {
			res.MaxLateness = late
		}
		missed := finish > d.Job.Deadline || failed
		res.Misses.Record(missed)
		if faults != nil {
			if missed {
				if fault.Kind != FaultNone {
					fstats.count(d.Job.TaskID, func(t *TaskFaultStats) { t.FaultedMisses++ })
				} else {
					fstats.count(d.Job.TaskID, func(t *TaskFaultStats) { t.CascadedMisses++ })
				}
			}
			// A clean in-budget completion re-arms the task: downgrading ends
			// once observed execution re-enters its declared budget.
			if cfg.Containment == DowngradeOnOverrun && st.degraded[d.Job.TaskID] && fault.Kind == FaultNone {
				st.degraded[d.Job.TaskID] = false
			}
		}
		if res.Trace != nil && (cfg.TraceLimit < 0 || res.Trace.Len() < cfg.TraceLimit) {
			res.Trace.Append(trace.Entry{Job: d.Job, Mode: runMode, Start: start, Finish: finish, Error: e, Fault: ftag})
		}

		p.JobFinished(st, d, start, finish)

		if missed && cfg.StopOnMiss {
			res.Aborted = true
			return res, nil
		}
	}
	return res, nil
}

// droppedCommitment reports whether the job a policy committed to was lost
// to fault injection. DropAware policies (already notified via JobDropped)
// are sent back to Pick; any other policy gets a structured error naming the
// lost release instead of the generic unknown-job failure.
func droppedCommitment(st *State, p Policy, j task.Job) (bool, error) {
	if st.faults == nil || !st.faults.DropRelease(st.set.Task(j.TaskID), j.Index) {
		return false, nil
	}
	if _, ok := p.(DropAware); ok {
		return true, nil
	}
	return false, fmt.Errorf("sim: policy %s committed to job %v whose release was dropped by fault injection",
		p.Name(), j)
}
