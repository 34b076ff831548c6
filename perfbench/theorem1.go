package main

import (
	"math/big"
	"sort"

	"nprt"
)

// t1Task is the checker's own view of a task: its period and the WCET of
// each admission profile.
type t1Task struct {
	period, wAcc, wDeep int64
}

// t1FromTask reads the profile WCETs off the task's declared fields: the
// deepest profile uses the last extra level when there is one, else the
// imprecise WCET.
func t1FromTask(t *nprt.Task) t1Task {
	deep := int64(t.WCETImprecise)
	if n := len(t.ExtraLevels); n > 0 {
		deep = int64(t.ExtraLevels[n-1].WCET)
	}
	return t1Task{period: int64(t.Period), wAcc: int64(t.WCETAccurate), wDeep: deep}
}

// theorem1 is the benchmark's independent Theorem-1 check (Jeffay, Stanat
// and Martel), written from the theorem rather than from the program:
//
//	(1) Σ w_i/p_i ≤ 1, in exact rational arithmetic;
//	(2) for every task i (sorted by period) and EVERY integer L with
//	    p_1 < L < p_i:  w_i + Σ_{j<i} ⌊(L−1)/p_j⌋·w_j ≤ L.
//
// It visits every integer L, not the step points the program visits. Two
// identities keep that affordable without skipping any L: a task whose
// period equals p_i adds ⌊(L−1)/p_i⌋ = 0 for every L < p_i, so only
// strictly shorter periods contribute; and the left side grows with w_i, so
// among the tasks sharing a period only the largest WCET can bind.
func theorem1(ts []t1Task, deep bool) bool {
	if len(ts) == 0 {
		return true
	}
	w := func(t t1Task) int64 {
		if deep {
			return t.wDeep
		}
		return t.wAcc
	}
	u := new(big.Rat)
	for _, t := range ts {
		u.Add(u, big.NewRat(w(t), t.period))
	}
	if u.Cmp(big.NewRat(1, 1)) > 0 {
		return false
	}

	// Per distinct period: the summed WCET (the demand the period adds per
	// elapsed job) and the largest single WCET (the binding blocker).
	type group struct{ period, sum, max int64 }
	byPeriod := map[int64]*group{}
	for _, t := range ts {
		g := byPeriod[t.period]
		if g == nil {
			g = &group{period: t.period}
			byPeriod[t.period] = g
		}
		g.sum += w(t)
		if w(t) > g.max {
			g.max = w(t)
		}
	}
	gs := make([]*group, 0, len(byPeriod))
	for _, g := range byPeriod {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(a, b int) bool { return gs[a].period < gs[b].period })
	p1 := gs[0].period
	for gi, g := range gs {
		for L := p1 + 1; L < g.period; L++ {
			demand := g.max
			for _, h := range gs[:gi] {
				demand += (L - 1) / h.period * h.sum
			}
			if demand > L {
				return false
			}
		}
	}
	return true
}

// t1Profiles runs the check in both admission profiles.
func t1Profiles(ts []t1Task) (accurate, deepest bool) {
	return theorem1(ts, false), theorem1(ts, true)
}
