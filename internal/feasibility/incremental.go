package feasibility

import (
	"slices"
	"sort"

	"nprt/internal/task"
)

// Incremental caches the Theorem-1 condition-2 state of one admitted task
// set so that neither a placement probe — "would this candidate be
// schedulable on this shard?" — nor the admission screen of a committed
// change recomputes Profiles from scratch. It has two users: the router's
// per-shard mirror in feasibility-aware bin-packing (internal/cluster),
// where every Add probes every candidate shard, and each shard runtime's
// own admission screen (internal/runtime), which commits a candidate with
// Add and reads Reports.
//
// Cached state: the set in task.New order (stable period sort) and its
// period-class curve (classscan.go) in both admission profiles: the shared
// demand curve's step points and, per distinct period, the exact minimum
// slack min_L (L − D(L)) and the largest WCET, whose row binds the class.
// Add, Remove and Reset rescan one class per distinct period from the
// changed period on; rows of a class are never scanned one by one.
//
// A probe for candidate c virtually inserts c at its task.New position (the
// upper bound of its period, mirroring the stable sort of "existing specs +
// appended candidate" that runtime.Add performs) and decides each class:
//
//   - classes of shorter period are untouched by c (their intervals and
//     demand are unchanged) — cached verdicts stand;
//   - c's own class keeps its slack, and only its largest WCET may grow;
//   - a longer class gains at most ⌊(p−2)/p_c⌋·w_c demand at any L in its
//     interval, so if its cached slack covers that bound the class provably
//     still passes — for every L, including the new step points c
//     introduces — and is skipped; a class already failing stays failing.
//
// When a bound does not settle the verdict, or c opens a new shortest or
// longest period, the classes from p_c on are rescanned on a scratch copy of the curve with
// c inserted. A new class between two resident periods reads its slack off
// the cached step points below it, which c does not change.
//
// Condition 1 is recomputed per probe as a float sum in merged order, which
// keeps the verdict bit-identical to Check's (float addition order matters).
//
// Probe's verdicts and Reports' summaries are proven bit-identical to
// running feasibility.Profiles on the rebuilt set by the differential tests
// and FuzzIncrementalReports in incremental_test.go. Incremental is not
// safe for concurrent use.
type Incremental struct {
	names   []string
	periods []task.Time
	wA, wD  []task.Time // WCET at task.Accurate / task.Deepest

	cv    curve // columns: 0 accurate, 1 deepest
	probe curve // scratch for Probe's rescans
}

// NewIncremental builds the cache for the given tasks (insertion order, as
// runtime.Runtime.Tasks() reports them); the slice is copied and stable
// period-sorted exactly as task.New would.
func NewIncremental(tasks []task.Task) *Incremental {
	inc := &Incremental{}
	inc.Reset(tasks)
	return inc
}

// Reset replaces the cached set.
func (inc *Incremental) Reset(tasks []task.Task) {
	ts := make([]task.Task, len(tasks))
	copy(ts, tasks)
	sort.SliceStable(ts, func(a, b int) bool { return ts[a].Period < ts[b].Period })
	n := len(ts)
	inc.names = make([]string, n)
	inc.periods = make([]task.Time, n)
	inc.wA = make([]task.Time, n)
	inc.wD = make([]task.Time, n)
	inc.cv.clear()
	for i := range ts {
		inc.names[i] = ts[i].Name
		inc.periods[i] = ts[i].Period
		inc.wA[i] = ts[i].WCET(task.Accurate)
		inc.wD[i] = ts[i].WCET(task.Deepest)
		inc.cv.join(inc.periods[i], [2]task.Time{inc.wA[i], inc.wD[i]})
	}
	inc.cv.rescan(0)
}

// Len returns the number of cached tasks.
func (inc *Incremental) Len() int { return len(inc.periods) }

// Has reports whether a task with the given name is cached. It makes
// mirror maintenance idempotent: after a shard reopen rebuilds the mirror
// from recovered state, an in-flight admission's reconcile can no longer
// know whether its optimistic Add survived — membership is the truth.
func (inc *Incremental) Has(name string) bool {
	for _, n := range inc.names {
		if n == name {
			return true
		}
	}
	return false
}

// Names returns the cached task names in period-sorted cache order.
func (inc *Incremental) Names() []string {
	return append([]string(nil), inc.names...)
}

// Utilization returns the condition-1 utilization of the cached set in the
// given mode, summed in set order (bit-identical to Check's sum).
func (inc *Incremental) Utilization(m task.Mode) float64 {
	u := 0.0
	for i := range inc.periods {
		w := inc.wA[i]
		if m != task.Accurate {
			w = inc.wD[i]
		}
		u += float64(w) / float64(inc.periods[i])
	}
	return u
}

// Reports returns the Theorem-1 screening summary of the cached set in the
// accurate and deepest profiles, bit-identical to the Summary of each
// Report feasibility.Profiles gives for the same set. The cache must not be
// empty.
//
// Utilization is summed in set order, as Check sums it, and 1/u is
// condition 1's γ. A profile passes when condition 1 holds and every class
// passes (its largest WCET is within its slack). γ_min is scanned per
// class, not per row: see curve.gammaMin.
func (inc *Incremental) Reports() (accurate, deepest Summary) {
	var out [2]Summary
	for col, m := range [2]task.Mode{task.Accurate, task.Deepest} {
		u := inc.Utilization(m)
		ok := !(u > 1)
		for ci := range inc.cv.classes {
			ok = ok && inc.cv.classes[ci].pass(col)
		}
		out[col] = Summary{Schedulable: ok, Utilization: u, GammaMin: inc.cv.gammaMin(col, 1/u)}
	}
	return out[0], out[1]
}

// HyperperiodWith returns the lcm of p and the cached periods — the
// hyper-period task.New computes for the cached set with a task of period
// p appended — or 0 when it overflows int64. Every partial lcm divides the
// whole one, so the order of the distinct periods does not matter.
func (inc *Incremental) HyperperiodWith(p task.Time) task.Time {
	h := p
	for i := range inc.cv.classes {
		if h = task.LCM(h, inc.cv.classes[i].p); h == 0 {
			break
		}
	}
	return h
}

// insertPos returns the task.New position of a candidate with period p: the
// upper bound among equal periods (stable sort of "existing + appended").
func (inc *Incremental) insertPos(p task.Time) int {
	return sort.Search(len(inc.periods), func(i int) bool { return inc.periods[i] > p })
}

// Probe reports whether the cached set plus candidate c would pass Theorem 1
// in the accurate and deepest profiles — bit-identical to
// feasibility.Profiles(task.New(existing..., c)) verdicts — without
// mutating the cache.
func (inc *Incremental) Probe(c *task.Task) (accurateOK, deepestOK bool) {
	cp := c.Period
	w := [2]task.Time{c.WCET(task.Accurate), c.WCET(task.Deepest)}
	n := len(inc.periods)

	// Condition 1, merged order.
	k := inc.insertPos(cp)
	var u [2]float64
	for mi := 0; mi <= n; mi++ {
		p, wa, wd := cp, w[0], w[1]
		if mi < k {
			p, wa, wd = inc.periods[mi], inc.wA[mi], inc.wD[mi]
		} else if mi > k {
			p, wa, wd = inc.periods[mi-1], inc.wA[mi-1], inc.wD[mi-1]
		}
		u[0] += float64(wa) / float64(p)
		u[1] += float64(wd) / float64(p)
	}
	ok := [2]bool{!(u[0] > 1), !(u[1] > 1)}
	if n == 0 {
		return ok[0], ok[1]
	}

	cls := inc.cv.classes
	ci := inc.cv.find(cp)
	for i := 0; i < ci; i++ {
		ok[0] = ok[0] && cls[i].pass(0)
		ok[1] = ok[1] && cls[i].pass(1)
	}
	// A new shortest period widens every class's interval, and a new
	// longest one reaches past the stored step points: both rescan. A new
	// class in between reads its slack off the steps below it.
	newClass := ci == len(cls) || cls[ci].p != cp
	rescan := newClass && (ci == 0 || ci == len(cls))
	if newClass && !rescan {
		slack := inc.cv.slackBelow(cp)
		ok[0] = ok[0] && w[0] <= slack[0]
		ok[1] = ok[1] && w[1] <= slack[1]
	}
	for i := ci; i < len(cls) && !rescan && (ok[0] || ok[1]); i++ {
		cl := &cls[i]
		for col := range ok {
			if !ok[col] {
				continue
			}
			largest, add := cl.max[col], task.Time(0)
			if cl.p == cp {
				largest = max(largest, w[col])
			} else {
				add = (cl.p - 2) / cp * w[col]
			}
			if cl.slack[col] < largest {
				ok[col] = false // the slack can only shrink
			} else if cl.slack[col] < largest+add {
				rescan = true
			}
		}
	}
	if rescan && (ok[0] || ok[1]) {
		sc := &inc.probe
		sc.classes = append(sc.classes[:0], cls...)
		keep := sort.Search(len(inc.cv.steps), func(i int) bool { return inc.cv.steps[i].L > cp })
		sc.steps = append(sc.steps[:0], inc.cv.steps[:keep]...)
		sc.top = inc.cv.top
		sc.join(cp, w)
		sc.rescan(cp)
		for i := ci; i < len(sc.classes); i++ {
			ok[0] = ok[0] && sc.classes[i].pass(0)
			ok[1] = ok[1] && sc.classes[i].pass(1)
		}
	}
	return ok[0], ok[1]
}

// Add commits candidate c to the cache (the caller has decided to place it,
// e.g. after the shard runtime admitted it). The classes from c's period on
// are rescanned so cached slacks stay exact.
func (inc *Incremental) Add(c *task.Task) {
	k := inc.insertPos(c.Period)
	w := [2]task.Time{c.WCET(task.Accurate), c.WCET(task.Deepest)}
	inc.names = slices.Insert(inc.names, k, c.Name)
	inc.periods = slices.Insert(inc.periods, k, c.Period)
	inc.wA = slices.Insert(inc.wA, k, w[0])
	inc.wD = slices.Insert(inc.wD, k, w[1])
	inc.cv.join(c.Period, w)
	inc.cv.rescan(c.Period)
}

// Remove drops the named task from the cache, rescanning the classes from
// its period on. It reports whether the name was present.
func (inc *Incremental) Remove(name string) bool {
	r := slices.Index(inc.names, name)
	if r < 0 {
		return false
	}
	p := inc.periods[r]
	w := [2]task.Time{inc.wA[r], inc.wD[r]}
	inc.names = slices.Delete(inc.names, r, r+1)
	inc.periods = slices.Delete(inc.periods, r, r+1)
	inc.wA = slices.Delete(inc.wA, r, r+1)
	inc.wD = slices.Delete(inc.wD, r, r+1)
	// The class's remaining tasks sit in one run of equal periods.
	var largest [2]task.Time
	first := sort.Search(len(inc.periods), func(i int) bool { return inc.periods[i] >= p })
	for i := first; i < len(inc.periods) && inc.periods[i] == p; i++ {
		largest[0] = max(largest[0], inc.wA[i])
		largest[1] = max(largest[1], inc.wD[i])
	}
	inc.cv.leave(p, w, largest)
	inc.cv.rescan(p)
	return true
}
