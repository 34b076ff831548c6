package nprt

// Differential test for the simulator's dispatch core across run
// histories. sim.Run recycles its run state (pending set, release queue,
// per-task slices) through a pool and resets the policy it is handed, so a
// run must not depend on what ran before it: one long-lived policy instance
// runs every seed forward and then again in reverse, and the two runs of
// each seed must be bit-identical. "Bit-identical" is literal: job counts,
// miss counters, Welford accumulator states (mean, M2, min, max), mode
// counts, busy time and the execution trace are compared field by field,
// so even a reordering of floating-point additions would fail the test.
// The cases run in parallel, so pooled state also moves between task sets
// of different sizes.

import (
	"fmt"
	"testing"

	"nprt/internal/cumulative"
	"nprt/internal/esr"
	"nprt/internal/policy"
	"nprt/internal/sim"
	"nprt/internal/stats"
	"nprt/internal/task"
	"nprt/internal/workload"
)

var diffSeeds = []uint64{1, 2, 3}

// diffPolicies builds one long-lived policy instance per method for a set;
// sim.Run resets policies, so each instance serves every run of the set —
// offline schedules are built once, not per run.
func diffPolicies(t *testing.T, s *task.Set) map[string]sim.Policy {
	t.Helper()
	ps := map[string]sim.Policy{}
	for _, m := range tableIMethods {
		p, err := buildMethodPolicy(m, s)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		ps[m] = p
	}
	ps["RM-Imprecise"] = policy.NewRMImprecise()
	return ps
}

// requireHistoryFree runs p once per seed in diffSeeds order, then once per
// seed in reverse order, and requires each seed's two Results to be
// identical. mk builds a fresh Config (sampler, jitter) for a seed.
func requireHistoryFree(t *testing.T, label string, s *task.Set, p sim.Policy, mk func(seed uint64) sim.Config) {
	t.Helper()
	first := map[uint64]*sim.Result{}
	for _, seed := range diffSeeds {
		res, err := sim.Run(s, p, mk(seed))
		if err != nil {
			t.Fatalf("%s seed %d forward: %v", label, seed, err)
		}
		first[seed] = res
	}
	for i := len(diffSeeds) - 1; i >= 0; i-- {
		seed := diffSeeds[i]
		res, err := sim.Run(s, p, mk(seed))
		if err != nil {
			t.Fatalf("%s seed %d reverse: %v", label, seed, err)
		}
		requireIdentical(t, fmt.Sprintf("%s/seed%d", label, seed), first[seed], res)
	}
}

// requireIdentical compares every field of two Results, including the
// internal accumulator states and the trace.
func requireIdentical(t *testing.T, label string, a, b *sim.Result) {
	t.Helper()
	if a.Policy != b.Policy || a.Jobs != b.Jobs || a.Misses != b.Misses ||
		a.Accurate != b.Accurate || a.Imprecise != b.Imprecise ||
		a.Busy != b.Busy || a.Horizon != b.Horizon || a.Aborted != b.Aborted ||
		a.MaxLateness != b.MaxLateness {
		t.Fatalf("%s: scalar fields differ:\n  first:  %+v\n  second: %+v", label, a, b)
	}
	if a.Error != b.Error {
		t.Fatalf("%s: error accumulators differ: %v±%v(n=%d) vs %v±%v(n=%d)", label,
			a.MeanError(), a.ErrorStdDev(), a.Error.N(),
			b.MeanError(), b.ErrorStdDev(), b.Error.N())
	}
	requireAccsEqual(t, label+"/PerTaskError", a.PerTaskError, b.PerTaskError)
	requireAccsEqual(t, label+"/PerTaskResponse", a.PerTaskResponse, b.PerTaskResponse)
	switch {
	case (a.Trace == nil) != (b.Trace == nil):
		t.Fatalf("%s: one run recorded a trace, the other did not", label)
	case a.Trace != nil:
		if a.Trace.Len() != b.Trace.Len() {
			t.Fatalf("%s: trace lengths differ: %d vs %d", label, a.Trace.Len(), b.Trace.Len())
		}
		for i := range a.Trace.Entries {
			if a.Trace.Entries[i] != b.Trace.Entries[i] {
				t.Fatalf("%s: trace entry %d differs:\n  first:  %+v\n  second: %+v",
					label, i, a.Trace.Entries[i], b.Trace.Entries[i])
			}
		}
	}
}

func requireAccsEqual(t *testing.T, label string, a, b []stats.Accumulator) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: accumulators differ: %v vs %v", label, i, a[i].Mean(), b[i].Mean())
		}
	}
}

// TestEngineDifferentialAllCases checks history independence on all 14
// cached cases, all policy families and three seeds, with traces on.
func TestEngineDifferentialAllCases(t *testing.T) {
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 14 {
		t.Fatalf("%d cases, want 14", len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			s, err := c.Set()
			if err != nil {
				t.Fatal(err)
			}
			for method, p := range diffPolicies(t, s) {
				requireHistoryFree(t, c.Name+"/"+method, s, p, func(seed uint64) sim.Config {
					return sim.Config{
						Hyperperiods: 10,
						Sampler:      sim.NewRandomSampler(s, seed),
						DropLate:     method == "EDF-Accurate",
						TraceLimit:   200,
					}
				})
			}
		})
	}
}

// TestEngineDifferentialSporadic repeats the check under sporadic
// (jittered) releases for the online policies; the offline+OA family
// rejects jitter by design.
func TestEngineDifferentialSporadic(t *testing.T) {
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	online := []func() sim.Policy{
		func() sim.Policy { return policy.NewEDFImprecise() },
		func() sim.Policy { return esr.New() },
		func() sim.Policy { return cumulative.NewESR() },
		func() sim.Policy { return policy.NewRMImprecise() },
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			s, err := c.Set()
			if err != nil {
				t.Fatal(err)
			}
			// Jitter on every task: up to 30% of its period.
			dists := make([]task.Dist, s.Len())
			for i := range dists {
				scale := float64(s.Task(i).Period) * 0.3
				dists[i] = task.Dist{Mean: scale / 2, Sigma: scale / 4, Min: 0, Max: scale}
			}
			for _, mkPolicy := range online {
				p := mkPolicy()
				requireHistoryFree(t, c.Name+"/"+p.Name()+"/sporadic", s, p, func(seed uint64) sim.Config {
					return sim.Config{
						Hyperperiods: 6,
						Sampler:      sim.NewRandomSampler(s, seed),
						Jitter:       sim.NewRandomJitter(s, dists, seed),
						TraceLimit:   200,
					}
				})
			}
		})
	}
}

// TestEngineDifferentialDropLateStress drives an overloaded set through the
// DropLate shedding path, across seeds and both a periodic and a jittered
// release pattern.
func TestEngineDifferentialDropLateStress(t *testing.T) {
	s, err := task.New([]task.Task{
		{Name: "a", Period: 10, WCETAccurate: 9, WCETImprecise: 2, Error: task.Dist{Mean: 1}},
		{Name: "b", Period: 10, WCETAccurate: 9, WCETImprecise: 2, Error: task.Dist{Mean: 2}},
		{Name: "c", Period: 20, WCETAccurate: 7, WCETImprecise: 3, Error: task.Dist{Mean: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sporadic := range []bool{false, true} {
		requireHistoryFree(t, fmt.Sprintf("droplate/sporadic=%v", sporadic), s, policy.NewEDFAccurate(),
			func(seed uint64) sim.Config {
				cfg := sim.Config{
					Hyperperiods: 50,
					Sampler:      sim.NewRandomSampler(s, seed),
					DropLate:     true,
					TraceLimit:   -1,
				}
				if sporadic {
					dists := []task.Dist{{Mean: 2, Sigma: 1, Min: 0, Max: 4}, {}, {Mean: 1, Sigma: 1, Min: 0, Max: 3}}
					cfg.Jitter = sim.NewRandomJitter(s, dists, seed)
				}
				return cfg
			})
	}
}
