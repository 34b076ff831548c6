package main

import (
	"math/rand"
	"testing"

	"nprt"
	"nprt/internal/feasibility"
)

// TestTheorem1TableI holds the independent checker to the paper's
// published Table I verdicts.
func TestTheorem1TableI(t *testing.T) {
	for _, c := range tableI {
		s, err := nprt.PaperCase(c.name)
		if err != nil {
			t.Fatal(err)
		}
		ts := make([]t1Task, s.Len())
		for i := range ts {
			ts[i] = t1FromTask(s.Task(i))
		}
		acc, deep := t1Profiles(ts)
		if acc != c.accurateOK || deep != c.impreciseOK {
			t.Errorf("%s: checker says accurate=%v imprecise=%v, Table I says %v/%v",
				c.name, acc, deep, c.accurateOK, c.impreciseOK)
		}
	}
}

// TestTheorem1AgreesWithProfiles compares the checker with the program's
// feasibility.Profiles on seeded random sets, half of them pushed onto the
// condition-2 boundary (demand exactly L at some L, then one past it).
func TestTheorem1AgreesWithProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var boundary, pass, fail int
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(7)
		tasks := make([]nprt.Task, n)
		for i := range tasks {
			p := nprt.Time(10 + rng.Intn(190))
			w := nprt.Time(2 + rng.Intn(int(p)/3))
			x := nprt.Time(1 + rng.Intn(int(w)-1))
			tasks[i] = nprt.Task{Name: string(rune('a' + i)), Period: p,
				WCETAccurate: w, WCETImprecise: x}
		}
		if trial%2 == 1 && toBoundary(tasks, rng.Intn(2) == 0) {
			boundary++
		}
		s, err := nprt.NewTaskSet(tasks)
		if err != nil {
			t.Fatal(err)
		}
		ts := make([]t1Task, s.Len())
		for i := range ts {
			ts[i] = t1FromTask(s.Task(i))
		}
		acc, deep := t1Profiles(ts)
		a, d := feasibility.Profiles(s)
		if acc != a.Schedulable || deep != d.Schedulable {
			t.Fatalf("trial %d: checker %v/%v, feasibility.Profiles %v/%v on %v",
				trial, acc, deep, a.Schedulable, d.Schedulable, s)
		}
		if deep {
			pass++
		} else {
			fail++
		}
	}
	if boundary < 500 || pass < 300 || fail < 300 {
		t.Fatalf("weak coverage: %d boundary sets, %d deepest passes, %d fails", boundary, pass, fail)
	}
}

// toBoundary raises the longest-period task's WCET in the deepest profile
// until condition 2 holds with equality at its tightest L (over=false) or
// fails by one (over=true). It reports whether the set has an interval.
func toBoundary(tasks []nprt.Task, over bool) bool {
	li, p1 := 0, tasks[0].Period
	for i, tk := range tasks {
		if tk.Period > tasks[li].Period {
			li = i
		}
		if tk.Period < p1 {
			p1 = tk.Period
		}
	}
	top := tasks[li].Period
	if top < p1+2 {
		return false
	}
	// Slack of the tightest L for the longest task: min over L of
	// L − Σ_{p_j < top} ⌊(L−1)/p_j⌋·x_j − x_top.
	slack := int64(-1)
	for L := int64(p1) + 1; L < int64(top); L++ {
		d := int64(tasks[li].WCETImprecise)
		for j, tk := range tasks {
			if j != li && tk.Period < top {
				d += (L - 1) / int64(tk.Period) * int64(tk.WCETImprecise)
			}
		}
		if s := L - d; slack < 0 || s < slack {
			slack = s
		}
	}
	if slack < 0 {
		return false
	}
	x := int64(tasks[li].WCETImprecise) + slack
	if over {
		x++
	}
	if x < 1 || x+1 > int64(top) {
		return false
	}
	tasks[li].WCETImprecise = nprt.Time(x)
	if tasks[li].WCETAccurate <= tasks[li].WCETImprecise {
		tasks[li].WCETAccurate = tasks[li].WCETImprecise + 1
	}
	return true
}
