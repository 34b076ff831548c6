package feasibility

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"nprt/internal/task"
)

// Condition 2 by period class.
//
// In w_i + Σ_{j<i} ⌊(L−1)/p_j⌋·w_j ≤ L (p_1 < L < p_i), a task j with
// p_j = p_i adds ⌊(L−1)/p_i⌋ = 0, and every task with a shorter period sits
// before i in the period-sorted set. So the sum is
//
//	D(L) = Σ_q ⌊(L−1)/q⌋·W_q,
//
// summed over the distinct periods q with W_q the WCET total of period q,
// and it is the same for every row: a period q ≥ p_i adds nothing below
// p_i. Row i reduces to w_i + D(L) ≤ L on the step points of D below p_i,
// and all rows of one period share the minimum slack min_L (L − D(L)), so
// the row with the largest WCET decides the whole period class.
//
// One sorted sweep over the step points L = k·q + 1 in (p_1, p_max)
// computes D everywhere (O(S log S) for S step points), and a class of
// period p reads its slack off the running minimum below p. A change to
// period p leaves D unchanged for L ≤ p, so an update regenerates only the
// step points above p and re-reads the classes from p on.

// maxTime is the slack of a class whose interval (p_1, p) holds no integer
// L: its rows have nothing to check.
const maxTime = task.Time(math.MaxInt64)

// periodClass is one distinct period of a set and what condition 2 needs
// of its tasks, per analysed WCET column.
type periodClass struct {
	p     task.Time
	n     int          // tasks in the class
	sum   [2]task.Time // W_p: the demand the class adds per job to longer periods
	max   [2]task.Time // largest WCET: the class's binding row
	slack [2]task.Time // min of L − D(L) over step points L < p; maxTime if none
}

// pass reports whether every row of the class meets condition 2 in the
// given column.
func (c *periodClass) pass(col int) bool { return c.max[col] <= c.slack[col] }

// demandStep is one plateau start L of D, with D(L) and the running minimum
// of L − D over the step points up to and including L.
type demandStep struct {
	L   task.Time
	d   [2]task.Time
	min [2]task.Time
}

type stepEvent struct {
	L  task.Time
	ci int
}

// curve is the condition-2 state of one task set in two WCET columns: its
// period classes and the shared demand curve's step points in (p_1, p_max).
type curve struct {
	classes []periodClass
	steps   []demandStep
	top     task.Time // the p_max the steps were built for; 0 before any
	events  []stepEvent

	// Work done since the curve was made: class slacks read and step
	// points generated.
	classScans, stepPoints int
}

// load builds the curve of a period-sorted set for WCET modes ma and mb
// (columns 0 and 1).
func (cv *curve) load(s *task.Set, ma, mb task.Mode) {
	cv.clear()
	if cap(cv.classes) < s.Len() {
		cv.classes = make([]periodClass, 0, s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		t := s.Task(i)
		cv.join(t.Period, [2]task.Time{wcet(t, ma), wcet(t, mb)})
	}
	cv.rescan(0)
}

func (cv *curve) clear() {
	cv.classes = cv.classes[:0]
	cv.steps = cv.steps[:0]
	cv.top = 0
}

// find returns the index of the first class with period ≥ p.
func (cv *curve) find(p task.Time) int {
	if n := len(cv.classes); n > 0 && cv.classes[n-1].p < p {
		return n // appending in period order, as load does
	}
	return sort.Search(len(cv.classes), func(i int) bool { return cv.classes[i].p >= p })
}

// join adds a task of period p and WCETs w to its class, creating it when
// new. The caller rescans from p.
func (cv *curve) join(p task.Time, w [2]task.Time) {
	ci := cv.find(p)
	if ci == len(cv.classes) || cv.classes[ci].p != p {
		cv.classes = slices.Insert(cv.classes, ci, periodClass{p: p})
	}
	c := &cv.classes[ci]
	c.n++
	for col := range w {
		c.sum[col] += w[col]
		c.max[col] = max(c.max[col], w[col])
	}
}

// leave removes a task of period p and WCETs w from its class, dropping
// the class when it empties; largest is the largest WCET pair among the
// class's remaining tasks. The caller rescans from p.
func (cv *curve) leave(p task.Time, w, largest [2]task.Time) {
	ci := cv.find(p)
	c := &cv.classes[ci]
	if c.n--; c.n == 0 {
		cv.classes = slices.Delete(cv.classes, ci, ci+1)
		return
	}
	for col := range w {
		c.sum[col] -= w[col]
	}
	c.max = largest
}

// rescan brings the steps and slacks up to date after the class table
// changed at period p (p = 0: everything changed). D(L) is unchanged for
// L ≤ p, so those step points are kept; the ones above p are regenerated by
// one sorted sweep, and every class from p on re-reads its slack.
func (cv *curve) rescan(p task.Time) {
	if len(cv.classes) == 0 {
		cv.clear()
		return
	}
	hi := cv.classes[len(cv.classes)-1].p
	// The old steps stop below the old top, and none may reach the new one.
	lo := max(min(p, cv.top-1, hi-1), 1)
	keep := sort.Search(len(cv.steps), func(i int) bool { return cv.steps[i].L > lo })
	cv.steps = cv.steps[:keep]
	cv.top = hi

	// D(lo), and the events k·q + 1 in (lo, hi) of every class. A class
	// with q + 1 ≥ hi has no event below hi and adds nothing at lo < q.
	var d [2]task.Time
	ev := cv.events[:0]
	for ci := range cv.classes {
		c := &cv.classes[ci]
		if c.p+1 >= hi {
			break
		}
		k := (lo - 1) / c.p
		d[0] += k * c.sum[0]
		d[1] += k * c.sum[1]
		for L := (k+1)*c.p + 1; L < hi; L += c.p {
			ev = append(ev, stepEvent{L: L, ci: ci})
		}
	}
	slices.SortFunc(ev, func(a, b stepEvent) int { return cmp.Compare(a.L, b.L) })

	mn := [2]task.Time{maxTime, maxTime}
	if keep > 0 {
		mn = cv.steps[keep-1].min
	}
	for e := 0; e < len(ev); {
		L := ev[e].L
		for ; e < len(ev) && ev[e].L == L; e++ {
			c := &cv.classes[ev[e].ci]
			d[0] += c.sum[0]
			d[1] += c.sum[1]
		}
		mn[0] = min(mn[0], L-d[0])
		mn[1] = min(mn[1], L-d[1])
		cv.steps = append(cv.steps, demandStep{L: L, d: d, min: mn})
	}
	cv.events = ev[:0]
	cv.stepPoints += len(cv.steps) - keep

	for ci := cv.find(lo); ci < len(cv.classes); ci++ {
		cv.classes[ci].slack = cv.slackBelow(cv.classes[ci].p)
		cv.classScans++
	}
}

// slackBelow returns the minimum of L − D(L) over the step points L < p;
// maxTime when there are none.
func (cv *curve) slackBelow(p task.Time) [2]task.Time {
	si := sort.Search(len(cv.steps), func(i int) bool { return cv.steps[i].L >= p })
	if si == 0 {
		return [2]task.Time{maxTime, maxTime}
	}
	return cv.steps[si-1].min
}

// gammaMin returns the minimum of g (condition 1's γ) and every γ_i^L =
// L/(w_i + D(L)) in column col, scanning one row per class: the class's
// largest WCET. A smaller WCET w ≤ max has a larger or equal quotient at
// every step point, L/(w + D) ≥ L/(max + D), exactly and also after float
// rounding (integer-to-float conversion and division are monotone), so the
// largest WCET attains its class's minimum and the per-row scan of report
// reaches the same value. min of floats does not depend on scan order, and
// no quotient is NaN: L > 0 and the demand is at least one positive WCET.
func (cv *curve) gammaMin(col int, g float64) float64 {
	for ci := range cv.classes {
		c := &cv.classes[ci]
		for si := 0; si < len(cv.steps) && cv.steps[si].L < c.p; si++ {
			g = min(g, float64(cv.steps[si].L)/float64(c.max[col]+cv.steps[si].d[col]))
		}
	}
	return g
}

// report runs Theorem 1 on s in mode m, reading condition 2's demand from
// the curve's column col (loaded from s with m in that column).
//
// Condition 2 and the γ_i^L family are evaluated only at the demand step
// points. The left-hand side is piecewise constant in L, jumping at
// L = k·p_j + 1, while both the right-hand side L and γ = L/demand grow
// strictly within each plateau — so the binding comparison and the γ
// minimum of every plateau sit at its first L. Visiting plateau starts in
// ascending order, row by row, therefore reproduces the exhaustive scan bit
// for bit (the same GammaMin at the same first-attaining ArgMinL), and the
// violation list is reconstructed exactly by expanding the violating prefix
// of each plateau: demand d > L holds precisely for L ≤ d−1.
func (cv *curve) report(s *task.Set, m task.Mode, col int) Report {
	n := s.Len()
	rep := Report{Schedulable: true, ArgMinTask: -1}

	// Condition (1) and γ from it.
	u := 0.0
	for i := 0; i < n; i++ {
		t := s.Task(i)
		u += float64(wcet(t, m)) / float64(t.Period)
	}
	rep.Utilization = u
	rep.GammaUtil = math.Inf(1)
	if u > 0 {
		rep.GammaUtil = 1 / u
	}
	rep.GammaMin = rep.GammaUtil
	if u > 1 {
		rep.Schedulable = false
		rep.Violations = append(rep.Violations, Violation{Condition: 1, TaskIndex: -1, Util: u})
	}

	steps := cv.steps
	ns := 0 // step points below p_i; grows with i
	for i := 1; i < n; i++ {
		ti := s.Task(i)
		for ns < len(steps) && steps[ns].L < ti.Period {
			ns++
		}
		wi := wcet(ti, m)
		for si := 0; si < ns; si++ {
			L := steps[si].L
			demand := wi + steps[si].d[col]
			if demand > L {
				rep.Schedulable = false
				// Every L' in [L, min(plateauEnd, demand−1)] violates with
				// the same constant demand; emit them all, as the
				// exhaustive scan would, up to the report cap.
				end := ti.Period - 1
				if si+1 < ns {
					end = steps[si+1].L - 1
				}
				end = min(end, demand-1)
				for lv := L; lv <= end && len(rep.Violations) < maxViolationsKept; lv++ {
					rep.Violations = append(rep.Violations,
						Violation{Condition: 2, TaskIndex: i, L: lv, Demand: demand})
				}
			}
			if demand > 0 {
				if g := float64(L) / float64(demand); g < rep.GammaMin {
					rep.GammaMin = g
					rep.ArgMinTask = i
					rep.ArgMinL = L
				}
			}
		}
	}
	return rep
}
