package runtime

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nprt/internal/feasibility"
	"nprt/internal/offline"
	"nprt/internal/sim"
	"nprt/internal/task"
)

// mkTask builds a valid two-mode task with the given WCETs.
func mkTask(name string, p, w, x task.Time) task.Task {
	return task.Task{
		Name: name, Period: p, WCETAccurate: w, WCETImprecise: x,
		ExecAccurate:  task.Dist{Mean: float64(w) / 2, Sigma: float64(w) / 8, Min: 1, Max: float64(w)},
		ExecImprecise: task.Dist{Mean: float64(x) / 2, Sigma: float64(x) / 8, Min: 1, Max: float64(x)},
		Error:         task.Dist{Mean: 2, Sigma: 0.5},
	}
}

func mkRuntime(t *testing.T, opt Options) *Runtime {
	t.Helper()
	r, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustAdd(t *testing.T, r *Runtime, spec TaskSpec) Decision {
	t.Helper()
	d, err := r.Add(spec)
	if err != nil {
		t.Fatalf("Add(%s): %v", spec.Task.Name, err)
	}
	return d
}

func TestAdmissionVerdicts(t *testing.T) {
	r := mkRuntime(t, Options{})

	// Accurate profile passes: plain admit.
	d := mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 8, 2)})
	if d.Verdict != Admitted {
		t.Fatalf("a: verdict %v, want admitted (%+v)", d.Verdict, d)
	}
	if !d.AccurateOK || !d.DeepestOK || !d.Replanned {
		t.Errorf("a: profile flags %+v", d)
	}

	// Pushes the accurate profile over Theorem 1 but leaves the deepest
	// profile schedulable: admit-degraded.
	d = mustAdd(t, r, TaskSpec{Task: mkTask("b", 20, 14, 2)})
	if d.Verdict != AdmittedDegraded {
		t.Fatalf("b: verdict %v, want admitted-degraded (acc util %g, deep util %g)",
			d.Verdict, d.AccurateUtil, d.DeepestUtil)
	}
	if d.AccurateOK || !d.DeepestOK || d.Reason == "" {
		t.Errorf("b: profile flags %+v", d)
	}

	// Breaks even the deepest profile: reject, and the set is unchanged.
	d = mustAdd(t, r, TaskSpec{Task: mkTask("c", 10, 10, 9)})
	if d.Verdict != Rejected {
		t.Fatalf("c: verdict %v, want rejected (deep util %g)", d.Verdict, d.DeepestUtil)
	}
	if d.Replanned {
		t.Error("c: rejection replanned")
	}
	if got := len(r.Tasks()); got != 2 {
		t.Fatalf("rejected task changed the set: %d tasks", got)
	}

	m := r.Metrics()
	if m.Admits != 1 || m.AdmitsDegraded != 1 || m.Rejects != 1 {
		t.Errorf("metrics %+v, want 1 admit / 1 degraded / 1 reject", m)
	}
}

func TestAddRequestErrors(t *testing.T) {
	r := mkRuntime(t, Options{})
	mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 8, 2)})

	if _, err := r.Add(TaskSpec{Task: mkTask("", 20, 8, 2)}); !errors.Is(err, ErrUnnamedTask) {
		t.Errorf("unnamed add: %v", err)
	}
	if _, err := r.Add(TaskSpec{Task: mkTask("a", 40, 8, 2)}); !errors.Is(err, ErrDuplicateTask) {
		t.Errorf("duplicate add: %v", err)
	}
	bad := mkTask("z", 20, 8, 2)
	bad.Period = -5
	if _, err := r.Add(TaskSpec{Task: bad}); !errors.Is(err, task.ErrNonPositivePeriod) {
		t.Errorf("invalid task add: %v", err)
	}
	if got := len(r.Tasks()); got != 1 {
		t.Fatalf("failed adds changed the set: %d tasks", got)
	}
}

func TestRemove(t *testing.T) {
	r := mkRuntime(t, Options{})
	mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 8, 2)})
	mustAdd(t, r, TaskSpec{Task: mkTask("b", 40, 8, 4)})

	if _, err := r.Remove("ghost"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown remove: %v", err)
	}
	d, err := r.Remove("a")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Replanned || !d.DeepestOK {
		t.Errorf("remove decision %+v", d)
	}
	if got := r.Tasks(); len(got) != 1 || got[0].Task.Name != "b" {
		t.Fatalf("set after remove: %+v", got)
	}

	// Removing the last task leaves an idle runtime that still runs epochs.
	if _, err := r.Remove("b"); err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Idle {
		t.Error("empty runtime epoch not idle")
	}
}

func TestOverloadValidation(t *testing.T) {
	r := mkRuntime(t, Options{})
	if _, err := r.Overload(sim.FaultRates{OverrunProb: 0.5}, 0); err == nil {
		t.Error("zero-epoch overload accepted")
	}
	if _, err := r.Overload(sim.FaultRates{OverrunProb: 1.5}, 3); err == nil {
		t.Error("invalid rates accepted")
	}
	if _, err := r.Overload(sim.FaultRates{OverrunProb: 0.5, OverrunFactor: 2}, 3); err != nil {
		t.Errorf("valid overload rejected: %v", err)
	}
}

// TestCleanEpochsNeverMiss: an admitted set (deepest profile passes
// Theorem 1) under EDF+ESR must not miss a deadline in any clean epoch —
// the guarantee the admission controller exists to protect.
func TestCleanEpochsNeverMiss(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		r := mkRuntime(t, Options{Seed: seed})
		mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 8, 2)})
		mustAdd(t, r, TaskSpec{Task: mkTask("b", 20, 14, 2)}) // admit-degraded
		mustAdd(t, r, TaskSpec{Task: mkTask("c", 40, 8, 4)})
		for i := 0; i < 50; i++ {
			rep, err := r.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Degraded {
				t.Fatalf("seed %d epoch %d: clean epoch marked degraded", seed, i)
			}
			if rep.Misses != 0 {
				t.Fatalf("seed %d epoch %d: %d misses in a clean epoch", seed, i, rep.Misses)
			}
		}
		if m := r.Metrics(); m.MissesClean != 0 || m.Misses != 0 {
			t.Fatalf("seed %d: metrics %+v", seed, m)
		}
	}
}

// TestOverloadShedsAndRestores drives the full governor arc: overload
// faults cause misses, the governor sheds accuracy (lowest criticality
// first), the shed set caps the damage, and after the overload clears the
// governor restores in LIFO order.
func TestOverloadShedsAndRestores(t *testing.T) {
	r := mkRuntime(t, Options{
		Seed: 3,
		Governor: GovernorConfig{
			Window: 2, ShedThreshold: 0.5, RestoreThreshold: 0.1, DwellEpochs: 1,
		},
	})
	mustAdd(t, r, TaskSpec{Task: mkTask("hi", 20, 8, 2), Criticality: 2})
	mustAdd(t, r, TaskSpec{Task: mkTask("lo", 20, 8, 2), Criticality: 1})
	mustAdd(t, r, TaskSpec{Task: mkTask("mid", 40, 8, 4), Criticality: 1})

	if _, err := r.Overload(sim.FaultRates{OverrunProb: 0.9, OverrunFactor: 4}, 12); err != nil {
		t.Fatal(err)
	}

	var firstShed string
	for i := 0; i < 12; i++ {
		rep, err := r.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded {
			t.Fatalf("epoch %d inside overload window not degraded", i)
		}
		if rep.Action == ActionShed && firstShed == "" {
			firstShed = rep.ShedTask
		}
	}
	if firstShed == "" {
		t.Fatal("sustained overload never shed")
	}
	// Criticality 1 ties between "lo" and "mid"; name order breaks the tie.
	if firstShed != "lo" {
		t.Errorf("first victim %q, want lowest-criticality first alphabetical %q", firstShed, "lo")
	}

	// Overload has cleared; clean epochs must drain the window and restore
	// everything.
	for i := 0; i < 60 && len(r.ShedTasks()) > 0; i++ {
		if _, err := r.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.ShedTasks(); len(got) != 0 {
		t.Fatalf("shed set never drained: %v", got)
	}
	m := r.Metrics()
	if m.Sheds == 0 || m.Restores != m.Sheds {
		t.Errorf("sheds=%d restores=%d, want equal and positive", m.Sheds, m.Restores)
	}
	if m.MissesClean != 0 {
		t.Errorf("%d misses leaked outside degraded windows", m.MissesClean)
	}
}

// TestDigestDiffersAcrossSeeds: the digest folds the seed in, so the same
// first epoch under a different seed must not collide.
func TestDigestDiffersAcrossSeeds(t *testing.T) {
	digest := func(seed uint64) uint64 {
		r := mkRuntime(t, Options{Seed: seed})
		mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 8, 2)})
		if _, err := r.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		return r.Digest()
	}
	if digest(11) == digest(12) {
		t.Error("different seeds produced identical digests")
	}
}

// TestPlanResilientReplans: under the resilient planner every admission
// change rebuilds through the degradation chain and records provenance;
// StartRung keeps it deterministic by skipping the wall-clock ILP rung.
func TestPlanResilientReplans(t *testing.T) {
	r := mkRuntime(t, Options{
		Planner:   PlanResilient,
		Resilient: ResilientConfig{StartRung: offline.RungFlippedEDF},
	})
	d := mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 8, 2)})
	if d.PlanRung != offline.RungFlippedEDF.String() {
		t.Fatalf("plan rung %q, want %q", d.PlanRung, offline.RungFlippedEDF)
	}
	pv := r.Provenance()
	if pv == nil || pv.Rung != offline.RungFlippedEDF || pv.Degraded {
		t.Fatalf("provenance %+v", pv)
	}
	rep, err := r.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		t.Errorf("planned epoch missed %d deadlines", rep.Misses)
	}
	if m := r.Metrics(); m.Replans != 1 {
		t.Errorf("replans = %d, want 1", m.Replans)
	}
}

// TestShedPolicyForcesDeepest: while a task is shed, every one of its
// executions must be imprecise even when slack would have allowed accurate.
func TestShedPolicyForcesDeepest(t *testing.T) {
	r := mkRuntime(t, Options{Seed: 5})
	mustAdd(t, r, TaskSpec{Task: mkTask("only", 40, 8, 2)})
	// Force the shed by hand: huge slack means ESR would always run
	// accurate, so any imprecise execution proves the wrapper demoted it.
	r.shed = []string{"only"}
	rep, err := r.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Error("shed epoch not degraded")
	}
	if rep.Policy != "EDF+ESR+guard+shed" {
		t.Errorf("policy label %q", rep.Policy)
	}
	if rep.Jobs == 0 {
		t.Fatal("no jobs ran")
	}
	if rep.Accurate != 0 {
		t.Errorf("%d accurate executions while shed, want 0 (imprecise %d)", rep.Accurate, rep.Imprecise)
	}
}

// TestChurnKeepsSetEqualToNew drives a seeded add/remove churn, with
// rejections, duplicate names and unknown removes, under both planners. After
// every Apply it checks that the set built on read is exactly task.New of
// the admitted specs, that Tasks() stays in insertion order, and that the
// decision's six screening scalars equal feasibility.Profiles of the
// candidate set (adds, rejected ones included) or of the remaining set
// (removes) bit for bit.
func TestChurnKeepsSetEqualToNew(t *testing.T) {
	for _, opt := range []Options{
		{},
		{Planner: PlanResilient, Resilient: ResilientConfig{StartRung: offline.RungFlippedEDF}},
	} {
		t.Run(opt.Planner.String(), func(t *testing.T) { churnAgainstNew(t, opt) })
	}
}

func churnAgainstNew(t *testing.T, opt Options) {
	r := mkRuntime(t, opt)
	rng := rand.New(rand.NewSource(5))
	periods := []task.Time{20, 40, 40, 80, 80, 80}
	var held []task.Task // admitted tasks, insertion order
	var rejects, removes, stale int
	for step := 0; step < 600; step++ {
		name := fmt.Sprintf("n%d", rng.Intn(24))
		var ev Event
		var screened []task.Task // the set the decision screens
		if rng.Intn(5) < 3 {
			p := periods[rng.Intn(len(periods))]
			w := 2 + task.Time(rng.Intn(int(p/3)))
			ev = Event{Op: "add", Task: &TaskSpec{Task: mkTask(name, p, w, 1+w/4), Criticality: rng.Intn(3)}}
			screened = append(slices.Clone(held), ev.Task.Task)
		} else {
			ev = Event{Op: "remove", Name: name}
			screened = slices.DeleteFunc(slices.Clone(held), func(tk task.Task) bool { return tk.Name == name })
		}
		d, err := r.Apply(ev)
		switch {
		case IsStaleRequest(err):
			stale++
			screened = nil
		case err != nil:
			t.Fatalf("step %d: %v", step, err)
		case ev.Op == "remove":
			removes++
			held = screened
		case d.Verdict == Rejected:
			rejects++
		default:
			held = screened
		}
		if len(screened) > 0 {
			acc, deep := feasibility.Profiles(task.MustNew(screened))
			var want Decision
			want.fillProfiles(acc.Summary(), deep.Summary())
			if got := screening(d); got != screening(want) {
				t.Fatalf("step %d: %s %q screened %+v, Profiles gives %+v", step, ev.Op, name, got, screening(want))
			}
		}

		specs := r.Tasks()
		if len(specs) != len(held) {
			t.Fatalf("step %d: %d tasks admitted, want %d", step, len(specs), len(held))
		}
		for i := range specs {
			if specs[i].Task.Name != held[i].Name {
				t.Fatalf("step %d: Tasks() order %v, want insertion order %v", step, specs, held)
			}
		}
		if len(held) == 0 {
			if r.Set() != nil {
				t.Fatalf("step %d: empty runtime holds set %v", step, r.Set())
			}
			continue
		}
		if got, want := r.Set(), task.MustNew(held); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: set differs from task.New(Tasks()):\n%v\nvs\n%v", step, got, want)
		}
	}
	if rejects == 0 || removes == 0 || stale == 0 {
		t.Fatalf("churn too tame: %d rejects, %d removes, %d stale", rejects, removes, stale)
	}
}

// screening is a decision's six Theorem-1 scalars, floats as bits.
func screening(d Decision) [6]uint64 {
	b := func(ok bool) uint64 {
		if ok {
			return 1
		}
		return 0
	}
	return [6]uint64{b(d.AccurateOK), math.Float64bits(d.AccurateUtil), math.Float64bits(d.AccurateGammaMin),
		b(d.DeepestOK), math.Float64bits(d.DeepestUtil), math.Float64bits(d.DeepestGammaMin)}
}

// TestAddHyperperiodOverflowRejected: a candidate whose period takes the
// hyper-period past int64 is rejected with task.New's reason, which names
// the task at which the running lcm overflows (here the resident, since the
// candidate sorts first), and leaves the runtime unchanged.
func TestAddHyperperiodOverflowRejected(t *testing.T) {
	// Two huge coprime periods: their lcm overflows int64.
	const hugeA, hugeB task.Time = 4611686018427387903, 4611686018427387902
	r := mkRuntime(t, Options{})
	big := mkTask("big", hugeA, 4, 2)
	mustAdd(t, r, TaskSpec{Task: big})
	c := mkTask("c", hugeB, 4, 2)
	_, werr := task.New([]task.Task{big, c})
	if werr == nil {
		t.Fatal("task.New accepted an overflowing hyper-period")
	}
	d := mustAdd(t, r, TaskSpec{Task: c})
	if d.Verdict != Rejected || d.Reason != werr.Error() {
		t.Fatalf("decision %+v, want rejected with reason %q", d, werr)
	}
	if screening(d) != screening(Decision{}) {
		t.Errorf("overflow reject carries screening scalars %+v", d)
	}
	if got := r.Set(); got.Len() != 1 || got.Task(0).Name != "big" {
		t.Fatalf("set after the reject: %v", got)
	}
	// The screen still holds only big: a task fitting beside it admits.
	if d := mustAdd(t, r, TaskSpec{Task: mkTask("ok", hugeA, 4, 2)}); d.Verdict != Admitted {
		t.Fatalf("follow-up add: %+v", d)
	}
}
