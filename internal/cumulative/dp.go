package cumulative

import (
	"fmt"
	"math/bits"
	"slices"

	"nprt/internal/sim"
	"nprt/internal/task"
)

// Assignment is a feasible offline precision plan over one super period, in
// dispatch order.
type Assignment struct {
	Set         *task.Set
	SuperPeriod task.Time
	Jobs        []task.Job
	Modes       []task.Mode
}

// SearchStats records the DP(C) search behaviour — the data behind Figure 4
// (candidate partial solutions per level, with and without pruning).
type SearchStats struct {
	LevelCounts []int // surviving candidate solutions after each job level
	Expanded    int   // total states expanded
	PrunedDom   int   // states removed by dominance
	PrunedUtil  int   // states removed by the best-case-utilization bound
	Feasible    bool
	Truncated   bool // a level hit MaxStatesPerLevel; completeness lost
}

// Options configures the DP(C) search.
type Options struct {
	// DisableDominance and DisableUtilization turn the §V-B pruning rules
	// off (the "without pruning" series of Figure 4). Hard constraint
	// violations (deadline, error budget) always prune.
	DisableDominance   bool
	DisableUtilization bool
	// MaxStatesPerLevel caps a level's surviving states (0 = 1<<20). When
	// hit, the search continues truncated: a "feasible" answer is still
	// sound, but "infeasible" is no longer a proof.
	MaxStatesPerLevel int
	// SuperPeriodFactorCap caps the super-period multiplier (0 = 64).
	SuperPeriodFactorCap int64
}

// frontier holds the states of one DP(C) level in flat arrays: state k has
// finish time t[k], per-task next-job indices idx[k*n:(k+1)*n] and packed
// φ counters phi[k*words:(k+1)*words]. Solve keeps two frontiers and swaps
// them between levels, so once their capacity has grown a level allocates
// only its record of how the survivors were reached.
type frontier struct {
	n   int
	lay phiLayout
	t   []task.Time
	idx []int32
	phi []uint64
}

func (f *frontier) len() int { return len(f.t) }

// reset empties f and makes room for m states.
func (f *frontier) reset(m int) {
	f.t = slices.Grow(f.t[:0], m)
	f.idx = slices.Grow(f.idx[:0], m*f.n)
	f.phi = slices.Grow(f.phi[:0], m*f.lay.words)
}

func (f *frontier) idxRow(k int32) []int32 { return f.idx[int(k)*f.n : int(k+1)*f.n] }

func (f *frontier) phiRow(k int32) []uint64 {
	return f.phi[int(k)*f.lay.words : int(k+1)*f.lay.words]
}

// drop removes the last state.
func (f *frontier) drop() {
	k := f.len() - 1
	f.t, f.idx, f.phi = f.t[:k], f.idx[:k*f.n], f.phi[:k*f.lay.words]
}

// add appends a copy of state k of src; it returns the new state's index.
func (f *frontier) add(src *frontier, k int32) int32 {
	f.t = append(f.t, src.t[k])
	f.idx = append(f.idx, src.idxRow(k)...)
	f.phi = append(f.phi, src.phiRow(k)...)
	return int32(len(f.t) - 1)
}

// phiLayout packs the φ counters into uint64 words: fields of bits bits,
// per to a word, each with its top bit kept clear as a guard. With guard
// holding every field's guard bit, a ≤ b holds componentwise on a word
// exactly when ((b|guard) − a) & guard == guard: each field computes
// b_l + 2^(bits−1) − a_l ≥ 1 without borrowing from its neighbour, and its
// guard bit survives only if a_l ≤ b_l.
type phiLayout struct {
	bits, per, words int
	mask, guard      uint64
}

// newPhiLayout packs n counters whose values never exceed maxPhi.
func newPhiLayout(n, maxPhi int) phiLayout {
	w := bits.Len(uint(maxPhi)) + 1
	lay := phiLayout{bits: w, per: 64 / w, mask: 1<<w - 1}
	lay.words = (n + lay.per - 1) / lay.per
	for f := 0; f < lay.per; f++ {
		lay.guard |= 1 << (f*w + w - 1)
	}
	return lay
}

func (lay phiLayout) get(row []uint64, l int) int {
	return int(row[l/lay.per] >> (l % lay.per * lay.bits) & lay.mask)
}

func (lay phiLayout) inc(row []uint64, l int) { row[l/lay.per] += 1 << (l % lay.per * lay.bits) }

func (lay phiLayout) zero(row []uint64, l int) {
	row[l/lay.per] &^= lay.mask << (l % lay.per * lay.bits)
}

// FNV-1a parameters for the 64-bit dominance-group hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// key hashes state k's dominance group identity — processed-job multiset
// plus finish time — FNV-1a style, one 64-bit word per field. Hash
// collisions are harmless because the pruner chains groups of equal hash
// and confirms true equality with sameGroup.
func (f *frontier) key(k int32) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(f.t[k])) * fnvPrime64
	for _, v := range f.idxRow(k) {
		h = (h ^ uint64(uint32(v))) * fnvPrime64
	}
	return h
}

// sameGroup is the true dominance-group equality the hash approximates.
func (f *frontier) sameGroup(a, b int32) bool {
	return f.t[a] == f.t[b] && slices.Equal(f.idxRow(a), f.idxRow(b))
}

// order compares the φ of states a and b: aLe reports φ_a ≤ φ_b
// componentwise (a is at least as good) and bLe φ_b ≤ φ_a.
func (f *frontier) order(a, b int32) (aLe, bLe bool) {
	g := f.lay.guard
	if f.lay.words == 1 { // the common case, compared in place
		x, y := f.phi[a], f.phi[b]
		return ((y|g)-x)&g == g, ((x|g)-y)&g == g
	}
	ra, rb := f.phiRow(a), f.phiRow(b)
	aLe, bLe = true, true
	for w, x := range ra {
		y := rb[w]
		aLe = aLe && ((y|g)-x)&g == g
		bLe = bLe && ((x|g)-y)&g == g
	}
	return aLe, bLe
}

// dpStep records how a surviving state was reached: its parent's index in
// the previous level and the job and mode dispatched. Solve keeps one per
// survivor of every level to rebuild the assignment.
type dpStep struct {
	parent int32
	task   int32
	index  int32
	mode   task.Mode
}

// pruner removes dominated states within their (jobs, finish-time) group:
// S_i is dominated by S_j when every cumulative counter of S_j is no
// larger. Its map and scratch slices are reused from level to level.
type pruner struct {
	byHash map[uint64]int32 // hash → first group with it
	groups []dpGroup
	link   []int32 // per state: next kept member of its group, or -1
	out    []int32
}

// dpGroup is one dominance group. Its kept states are linked in state
// order: a state is kept only after every earlier one has been compared
// with it, and removals keep the order of the rest.
type dpGroup struct {
	rep        int32 // first state seen, the group's identity
	head, tail int32 // kept states, linked through pruner.link; -1 when none
	sameHash   int32 // next group with the same hash, or -1
}

// identity returns the indices 0..n-1, every state kept.
func (p *pruner) identity(n int) []int32 {
	p.out = p.out[:0]
	for k := int32(0); k < int32(n); k++ {
		p.out = append(p.out, k)
	}
	return p.out
}

// prune returns the indices of f's undominated states, groups in
// first-seen order and each group's states in their order in f, so the
// survivors' sequence does not depend on map iteration. hash is injectable
// so tests can force every state through the collision chain.
func (p *pruner) prune(f *frontier, stats *SearchStats, hash func(*frontier, int32) uint64) []int32 {
	if p.byHash == nil {
		p.byHash = make(map[uint64]int32)
	}
	clear(p.byHash)
	p.groups = p.groups[:0]
	p.link = slices.Grow(p.link[:0], f.len())[:f.len()]
	for c := int32(0); c < int32(f.len()); c++ {
		p.link[c] = -1
		h := hash(f, c)
		first, seen := p.byHash[h]
		gi := int32(-1)
		if seen {
			for i := first; i != -1; i = p.groups[i].sameHash {
				if f.sameGroup(p.groups[i].rep, c) {
					gi = i
					break
				}
			}
		}
		if gi == -1 {
			gi = int32(len(p.groups))
			next := int32(-1)
			if seen {
				next = first
			}
			p.groups = append(p.groups, dpGroup{rep: c, head: -1, tail: -1, sameHash: next})
			p.byHash[h] = gi
		}
		g := &p.groups[gi]
		// The kept states form an antichain, so a candidate that some kept
		// state dominates dominates none of them: one pass can drop the
		// states the candidate dominates and still stop at a dominator.
		dominated := false
		prev := int32(-1)
		for k := g.head; k != -1; k = p.link[k] {
			kLe, cLe := f.order(k, c)
			if kLe {
				dominated = true
				break
			}
			if cLe {
				stats.PrunedDom++
				if prev == -1 {
					g.head = p.link[k]
				} else {
					p.link[prev] = p.link[k]
				}
				if g.tail == k {
					g.tail = prev
				}
				continue
			}
			prev = k
		}
		if dominated {
			stats.PrunedDom++
			continue
		}
		if g.tail == -1 {
			g.head = c
		} else {
			p.link[g.tail] = c
		}
		g.tail = c
	}
	p.out = p.out[:0]
	for _, g := range p.groups {
		for k := g.head; k != -1; k = p.link[k] {
			p.out = append(p.out, k)
		}
	}
	return p.out
}

// Solve runs the §V-B dynamic program over one super period. It returns a
// feasible assignment when one exists (nil assignment + Feasible=false
// otherwise) along with the search statistics.
func Solve(s *task.Set, opt Options) (*Assignment, *SearchStats, error) {
	if s.MaxRelease() != 0 {
		return nil, nil, fmt.Errorf("cumulative: DP(C) requires all first releases at 0")
	}
	capFactor := opt.SuperPeriodFactorCap
	if capFactor <= 0 {
		capFactor = 64
	}
	maxStates := opt.MaxStatesPerLevel
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	sp, _, _ := s.SuperPeriod(capFactor)

	// φ_l never exceeds B_l, or the task's job count in the super period
	// when it has no budget.
	n := s.Len()
	totalJobs := make([]int32, n)
	levels, maxPhi := 0, 0
	for l := 0; l < n; l++ {
		totalJobs[l] = int32(sp / s.Task(l).Period)
		levels += int(totalJobs[l])
		if b := s.Task(l).MaxConsecutiveImprecise; b > 0 {
			maxPhi = max(maxPhi, b)
		} else {
			maxPhi = max(maxPhi, int(totalJobs[l]))
		}
	}

	stats := &SearchStats{}
	lay := newPhiLayout(n, maxPhi)
	// cur holds the previous level's states, of which parents survived;
	// next receives their children.
	cur := &frontier{n: n, lay: lay, t: []task.Time{0}, idx: make([]int32, n), phi: make([]uint64, lay.words)}
	next := &frontier{n: n, lay: lay}
	parents := []int32{0}
	var steps []dpStep   // how each state of next was reached
	var trail [][]dpStep // per level: how each survivor was reached
	var pr pruner

	for level := 0; level < levels; level++ {
		next.reset(2 * len(parents))
		steps = slices.Grow(steps[:0], 2*len(parents))
		for pi, k := range parents {
			stats.Expanded++
			job, ok := edfNext(s, cur.t[k], cur.idxRow(k), totalJobs)
			if !ok {
				continue // should not happen before the last level
			}
			tk := s.Task(job.TaskID)
			start := max(cur.t[k], job.Release)
			// childOf appends the child reached by running job in mode m
			// to next, unless the utilization bound prunes it.
			childOf := func(m task.Mode, finish task.Time) {
				c := next.add(cur, k)
				next.t[c] = finish
				next.idxRow(c)[job.TaskID]++
				if m == task.Imprecise {
					lay.inc(next.phiRow(c), job.TaskID)
				} else {
					lay.zero(next.phiRow(c), job.TaskID)
				}
				if !opt.DisableUtilization && !utilizationFeasible(s, next, c, totalJobs, sp) {
					stats.PrunedUtil++
					next.drop()
					return
				}
				steps = append(steps, dpStep{parent: int32(pi), task: int32(job.TaskID), index: int32(job.Index), mode: m})
			}
			// Accurate branch.
			if f := start + tk.WCETAccurate; f <= job.Deadline {
				childOf(task.Accurate, f)
			}
			// Imprecise branch (hard error budget).
			b := tk.MaxConsecutiveImprecise
			if b == 0 || lay.get(cur.phiRow(k), job.TaskID)+1 <= b {
				if f := start + tk.WCETImprecise; f <= job.Deadline {
					childOf(task.Imprecise, f)
				}
			}
		}

		var kept []int32
		if opt.DisableDominance {
			kept = pr.identity(next.len())
		} else {
			kept = pr.prune(next, stats, (*frontier).key)
		}
		if len(kept) > maxStates {
			kept = kept[:maxStates]
			stats.Truncated = true
		}
		stats.LevelCounts = append(stats.LevelCounts, len(kept))
		if len(kept) == 0 {
			return nil, stats, nil
		}
		reached := make([]dpStep, len(kept))
		for i, k := range kept {
			reached[i] = steps[k]
		}
		trail = append(trail, reached)
		parents = append(parents[:0], kept...)
		cur, next = next, cur
	}

	// Reconstruct from any surviving terminal state.
	stats.Feasible = true
	asg := &Assignment{Set: s, SuperPeriod: sp,
		Jobs:  make([]task.Job, levels),
		Modes: make([]task.Mode, levels),
	}
	idx := int32(0)
	for level := levels; level >= 1; level-- {
		st := trail[level-1][idx]
		asg.Jobs[level-1] = s.Job(int(st.task), int(st.index))
		asg.Modes[level-1] = st.mode
		idx = st.parent
	}
	return asg, stats, nil
}

// edfNext finds the next job non-preemptive EDF would dispatch from this
// state: the earliest-deadline job among those released at the state's
// time, advancing over idle gaps when nothing is released.
func edfNext(s *task.Set, t task.Time, nextIdx []int32, totalJobs []int32) (task.Job, bool) {
	for {
		best := task.Job{}
		found := false
		var minRelease task.Time
		haveRelease := false
		for l := 0; l < s.Len(); l++ {
			if nextIdx[l] >= totalJobs[l] {
				continue
			}
			j := s.Job(l, int(nextIdx[l]))
			if j.Release <= t {
				if !found || edfLess(j, best) {
					best, found = j, true
				}
			} else if !haveRelease || j.Release < minRelease {
				minRelease, haveRelease = j.Release, true
			}
		}
		if found {
			return best, true
		}
		if !haveRelease {
			return task.Job{}, false
		}
		t = minRelease
	}
}

func edfLess(a, b task.Job) bool {
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

// utilizationFeasible is the §V-B best-case-utilization prune: with the
// error budgets spent as aggressively as possible, the remaining jobs'
// minimum workload must still fit between the state's time and the super
// period's end. k indexes a state of f.
func utilizationFeasible(s *task.Set, f *frontier, k int32, totalJobs []int32, sp task.Time) bool {
	nextIdx, phi := f.idxRow(k), f.phiRow(k)
	var workMin task.Time
	for l := 0; l < s.Len(); l++ {
		m := int64(totalJobs[l] - nextIdx[l])
		if m <= 0 {
			continue
		}
		tk := s.Task(l)
		b := int64(tk.MaxConsecutiveImprecise)
		var accurate int64
		if b > 0 {
			free := b - int64(f.lay.get(phi, l)) // imprecise runs available before an accurate is forced
			if free < 0 {
				free = 0
			}
			if m > free {
				accurate = (m - free + b) / (b + 1) // ceil((m-free)/(b+1))
			}
		}
		workMin += task.Time(accurate)*tk.WCETAccurate + task.Time(m-accurate)*tk.WCETImprecise
	}
	return f.t[k]+workMin <= sp
}

// ReplayPolicy executes a DP(C) assignment cyclically: planned order,
// planned modes, ASAP starts. It satisfies sim.Policy.
type ReplayPolicy struct {
	Label string
	Plan  *Assignment

	pos      int
	cycle    int64
	perCycle []int // jobs per super period per task
}

// NewReplay wraps an assignment for simulation.
func NewReplay(plan *Assignment) *ReplayPolicy {
	return &ReplayPolicy{Label: "DP(C)", Plan: plan}
}

// Name implements sim.Policy.
func (p *ReplayPolicy) Name() string { return p.Label }

// Reset implements sim.Policy.
func (p *ReplayPolicy) Reset(st *sim.State) {
	p.pos, p.cycle = 0, 0
	p.perCycle = make([]int, st.Set().Len())
	for l := range p.perCycle {
		p.perCycle[l] = int(p.Plan.SuperPeriod / st.Set().Task(l).Period)
	}
}

// Pick replays the planned job in the current super-period cycle.
func (p *ReplayPolicy) Pick(st *sim.State) (sim.Decision, bool) {
	if p.pos >= len(p.Plan.Jobs) {
		p.pos = 0
		p.cycle++
	}
	j := p.Plan.Jobs[p.pos]
	offset := p.cycle * p.Plan.SuperPeriod
	job := task.Job{
		TaskID:   j.TaskID,
		Index:    j.Index + int(p.cycle)*p.perCycle[j.TaskID],
		Release:  j.Release + offset,
		Deadline: j.Deadline + offset,
	}
	if job.Deadline > st.Horizon() {
		return sim.Decision{}, false
	}
	return sim.Decision{Job: job, Mode: p.Plan.Modes[p.pos]}, true
}

// JobFinished implements sim.Policy.
func (p *ReplayPolicy) JobFinished(*sim.State, sim.Decision, task.Time, task.Time) {
	p.pos++
}

// CyclicSafe reports whether the assignment can repeat back-to-back
// forever: re-running the plan with the consecutive-imprecision counters
// carried over from the end of the previous super period must still satisfy
// every budget, and the WCET timeline must not drift (the last job must
// finish within the super period so the next cycle starts cleanly). The
// §V-B super period covers every *phase* of the budgets; this check closes
// the loop for the specific plan found.
func (a *Assignment) CyclicSafe() bool {
	n := a.Set.Len()
	carry := make([]int, n)
	for cycle := 0; cycle < 2; cycle++ {
		var clock task.Time
		for k, j := range a.Jobs {
			tk := a.Set.Task(j.TaskID)
			start := clock
			if j.Release > start {
				start = j.Release
			}
			var dur task.Time
			if a.Modes[k] == task.Imprecise {
				carry[j.TaskID]++
				if b := tk.MaxConsecutiveImprecise; b > 0 && carry[j.TaskID] > b {
					return false
				}
				dur = tk.WCETImprecise
			} else {
				carry[j.TaskID] = 0
				dur = tk.WCETAccurate
			}
			f := start + dur
			if f > j.Deadline {
				return false
			}
			clock = f
		}
		if clock > a.SuperPeriod {
			return false
		}
		// carry persists into the next cycle.
	}
	return true
}
