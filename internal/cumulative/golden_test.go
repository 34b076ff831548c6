package cumulative

// Golden DP(C) searches on the paper's Table I cases at plan-paper's
// options (super-period factor 1, 5000 states per level). Each record pins
// the search counters, the per-level frontier sizes and a digest of the
// assignment found, so a change to the state layout, the dominance test or
// the pruning order that alters one surviving state, or the order the
// survivors are kept in, fails here.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"nprt/internal/task"
	"nprt/internal/workload"
)

// dpGolden is one recorded search: the counters of SearchStats, an FNV-1a
// digest of LevelCounts and of the assignment (0 when none was found).
type dpGolden struct {
	expanded, prunedDom, prunedUtil int
	levels                          int
	levelDigest                     uint64
	feasible, truncated             bool
	asgDigest                       uint64
}

func (g dpGolden) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %#x, %v, %v, %#x}", g.expanded, g.prunedDom, g.prunedUtil,
		g.levels, g.levelDigest, g.feasible, g.truncated, g.asgDigest)
}

// paperOptions are plan-paper's DP(C) options.
var paperOptions = Options{SuperPeriodFactorCap: 1, MaxStatesPerLevel: 5000}

// tableIDPGolden was recorded before the flat-state search replaced the
// per-state heap objects.
var tableIDPGolden = map[string]dpGolden{
	"Rnd1":  {27, 10, 0, 13, 0xcea5f0e1e820c8dd, true, false, 0x1839011bda1951cd},
	"Rnd2":  {1, 0, 2, 1, 0x7fbfc07b4bcf299, false, false, 0x0},
	"Rnd3":  {159, 47, 23, 15, 0xe0cd6a554a9436af, true, false, 0x8691f1f3f9bd37f3},
	"Rnd4":  {35, 12, 0, 16, 0xa1c160911a0e900b, true, false, 0x4f0071d551d5e415},
	"Rnd5":  {54, 43, 0, 17, 0x74747beae8b9959e, true, false, 0xcf70db61c9813e43},
	"Rnd6":  {39, 4, 8, 13, 0x5aea01036449359f, false, false, 0x0},
	"Rnd7":  {1, 0, 2, 1, 0x7fbfc07b4bcf299, false, false, 0x0},
	"Rnd8":  {530, 86, 123, 52, 0x217183b75e07c3a5, false, false, 0x0},
	"Rnd9":  {20016, 8144, 1709, 24, 0xc2a77462975a29a3, true, false, 0xc4859453c394b14d},
	"Rnd10": {1, 0, 2, 1, 0x7fbfc07b4bcf299, false, false, 0x0},
	"Rnd11": {1, 0, 2, 1, 0x7fbfc07b4bcf299, false, false, 0x0},
	"Rnd12": {1, 0, 2, 1, 0x7fbfc07b4bcf299, false, false, 0x0},
	"Rnd13": {1, 0, 2, 1, 0x7fbfc07b4bcf299, false, false, 0x0},
	"IDCT":  {620, 351, 0, 35, 0xc8550cd982c8eddf, true, false, 0x135bf2664ad0351c},
}

// ablationGolden pins the Figure 4 ablations — each pruning rule off alone
// and both off — on one small case, and the unpruned Rnd9 search of the
// figure itself, whose frontier hits the level cap and is truncated.
var ablationGolden = map[string]dpGolden{
	"Rnd3/no-dominance":   {506, 0, 60, 15, 0xe1ecfb4d7b0fad61, true, false, 0x8979e4f4bebc1167},
	"Rnd3/no-utilization": {183, 47, 0, 15, 0xc7d175447f0dd28b, true, false, 0x8691f1f3f9bd37f3},
	"Rnd3/no-pruning":     {568, 0, 0, 15, 0x30a77600744063c5, true, false, 0x8979e4f4bebc1167},
	"Rnd9/no-pruning":     {45908, 0, 0, 24, 0xb9985b7d20caac2d, true, true, 0xc0e71ba4e8c1b50f},
}

func recordSearch(s *task.Set, opt Options) (dpGolden, error) {
	asg, st, err := Solve(s, opt)
	if err != nil {
		return dpGolden{}, err
	}
	g := dpGolden{expanded: st.Expanded, prunedDom: st.PrunedDom, prunedUtil: st.PrunedUtil,
		levels: len(st.LevelCounts), feasible: st.Feasible, truncated: st.Truncated}
	h := fnv.New64a()
	for _, c := range st.LevelCounts {
		fmt.Fprintf(h, "%d,", c)
	}
	g.levelDigest = h.Sum64()
	if asg != nil {
		h := fnv.New64a()
		fmt.Fprintf(h, "sp=%d;", asg.SuperPeriod)
		for k, j := range asg.Jobs {
			fmt.Fprintf(h, "%d/%d/%d/%d/%d;", j.TaskID, j.Index, j.Release, j.Deadline, asg.Modes[k])
		}
		g.asgDigest = h.Sum64()
	}
	return g, nil
}

func caseSet(t *testing.T, name string) *task.Set {
	t.Helper()
	c, err := workload.CaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Set()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTableIDPCGoldens holds every Table I case's DP(C) search to its
// recorded counters, frontier sizes and assignment.
func TestTableIDPCGoldens(t *testing.T) {
	for name, want := range tableIDPGolden {
		got, err := recordSearch(caseSet(t, name), paperOptions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
}

// TestFig4AblationGoldens holds the DP(C) ablations of Figure 4 to their
// recorded searches.
func TestFig4AblationGoldens(t *testing.T) {
	opts := map[string]Options{
		"no-dominance":   {SuperPeriodFactorCap: 1, MaxStatesPerLevel: 5000, DisableDominance: true},
		"no-utilization": {SuperPeriodFactorCap: 1, MaxStatesPerLevel: 5000, DisableUtilization: true},
		"no-pruning": {SuperPeriodFactorCap: 1, MaxStatesPerLevel: 5000,
			DisableDominance: true, DisableUtilization: true},
	}
	for key, want := range ablationGolden {
		name, variant, _ := strings.Cut(key, "/")
		got, err := recordSearch(caseSet(t, name), opts[variant])
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got != want {
			t.Errorf("%s: got %v, want %v", key, got, want)
		}
	}
}
