package cumulative

import (
	"slices"
	"testing"

	"nprt/internal/rng"
	"nprt/internal/task"
	"nprt/internal/workload"
)

// randStates builds a corpus of states over a deliberately tiny domain so
// many true duplicates (and dominance candidates) occur.
func randStates(r *rng.Stream, n int) *frontier {
	f := &frontier{n: 3, lay: newPhiLayout(3, 2)}
	for i := 0; i < n; i++ {
		f.t = append(f.t, task.Time(r.Uint64()%8))
		phi := make([]uint64, f.lay.words)
		for l := 0; l < f.n; l++ {
			f.idx = append(f.idx, int32(r.Uint64()%4))
			for c := r.Uint64() % 3; c > 0; c-- {
				f.lay.inc(phi, l)
			}
		}
		f.phi = append(f.phi, phi...)
	}
	return f
}

// TestStateKeyMatchesGroupEquality: across a dense random corpus, the FNV
// hash must agree with the true group identity in both directions — equal
// groups hash equal (determinism) and, on this corpus, equal hashes imply
// equal groups (no observed collisions).
func TestStateKeyMatchesGroupEquality(t *testing.T) {
	f := randStates(rng.New(2026), 1200)
	for a := int32(0); a < int32(f.len()); a++ {
		for b := a + 1; b < int32(f.len()); b++ {
			same, hashEq := f.sameGroup(a, b), f.key(a) == f.key(b)
			if same && !hashEq {
				t.Fatalf("equal groups hash differently: %v/%v vs %v/%v", f.t[a], f.idxRow(a), f.t[b], f.idxRow(b))
			}
			if !same && hashEq {
				t.Fatalf("hash collision between distinct groups: %v/%v vs %v/%v", f.t[a], f.idxRow(a), f.t[b], f.idxRow(b))
			}
		}
	}
}

// TestPruneDominatedCollisionSafe forces every state into a single hash
// bucket (a constant hash function) and requires the exact surviving states,
// order, and prune count of the real hash: correctness may not depend on the
// hash discriminating, only on the chained sameGroup check.
func TestPruneDominatedCollisionSafe(t *testing.T) {
	corpus := randStates(rng.New(77), 600)
	var a, b pruner
	var statsA, statsB SearchStats
	outA := a.prune(corpus, &statsA, (*frontier).key)
	outB := b.prune(corpus, &statsB, func(*frontier, int32) uint64 { return 0 })
	if len(outA) != len(outB) || statsA.PrunedDom != statsB.PrunedDom {
		t.Fatalf("collision path diverged: %d/%d survivors, %d/%d pruned",
			len(outA), len(outB), statsA.PrunedDom, statsB.PrunedDom)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("survivor %d differs between real and constant hash", i)
		}
	}
	if statsA.PrunedDom == 0 {
		t.Fatal("corpus produced no dominance pruning; test is vacuous")
	}
}

// TestPruneDominatedDeterministicOrder: the surviving-state order is a pure
// function of the input order (first-seen grouping), independent of map
// iteration order across runs and of the scratch a reused pruner carries.
func TestPruneDominatedDeterministicOrder(t *testing.T) {
	corpus := randStates(rng.New(9), 400)
	var pr pruner
	var ref []int32
	for run := 0; run < 5; run++ {
		var stats SearchStats
		out := pr.prune(corpus, &stats, (*frontier).key)
		if run == 0 {
			ref = append([]int32(nil), out...)
			continue
		}
		if len(out) != len(ref) {
			t.Fatalf("run %d: %d survivors, want %d", run, len(out), len(ref))
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("run %d: survivor order differs at %d", run, i)
			}
		}
	}
}

// TestPruneMatchesPairwiseDefinition holds the pruner to the definition it
// implements: a state survives exactly when no state of its group
// dominates it, where among states with equal φ only the first survives.
// Survivors keep their input order within each group and the groups appear
// in first-seen order.
func TestPruneMatchesPairwiseDefinition(t *testing.T) {
	f := randStates(rng.New(31), 500)
	var pr pruner
	var stats SearchStats
	got := pr.prune(f, &stats, (*frontier).key)
	var reps []int32        // each group's first state, in first-seen order
	var survivors [][]int32 // each group's surviving states
	for c := int32(0); c < int32(f.len()); c++ {
		gi := slices.IndexFunc(reps, func(r int32) bool { return f.sameGroup(r, c) })
		if gi == -1 {
			reps, survivors = append(reps, c), append(survivors, nil)
			gi = len(reps) - 1
		}
		survives := true
		for o := int32(0); o < int32(f.len()); o++ {
			oLe, cLe := f.order(o, c)
			if o == c || !f.sameGroup(o, c) || !oLe {
				continue
			}
			if !cLe || o < c { // strictly better, or an earlier equal
				survives = false
				break
			}
		}
		if survives {
			survivors[gi] = append(survivors[gi], c)
		}
	}
	var want []int32
	for _, g := range survivors {
		want = append(want, g...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("pruner kept %v, the definition %v", got, want)
	}
	if stats.PrunedDom != f.len()-len(want) {
		t.Fatalf("PrunedDom %d, want %d", stats.PrunedDom, f.len()-len(want))
	}
}

// TestPackedPhiMatchesCounters drives random counter vectors through the
// packed layout — one and several words, narrow and wide fields, values up
// to the bound — and holds get and the word-parallel comparison to plain
// per-task counters.
func TestPackedPhiMatchesCounters(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 300; trial++ {
		n, maxPhi := 1+r.Intn(40), 1+r.Intn(300)
		if trial%2 == 0 { // Table I's budgets: often one word
			n, maxPhi = 1+r.Intn(20), 1+r.Intn(7)
		}
		f := &frontier{n: n, lay: newPhiLayout(n, maxPhi)}
		plain := make([][]int, 2)
		for k := range plain {
			plain[k] = make([]int, n)
			row := make([]uint64, f.lay.words)
			for l := range plain[k] {
				v := r.Intn(maxPhi + 1)
				if r.Intn(4) == 0 {
					v = maxPhi
				}
				if k == 1 && r.Intn(2) == 0 {
					v = plain[0][l] // make domination likely
				}
				for i := 0; i < v; i++ {
					f.lay.inc(row, l)
				}
				if r.Intn(8) == 0 {
					f.lay.zero(row, l)
					v = 0
				}
				plain[k][l] = v
			}
			f.t = append(f.t, 0)
			f.idx = append(f.idx, make([]int32, n)...)
			f.phi = append(f.phi, row...)
		}
		for k := int32(0); k < 2; k++ {
			for l := 0; l < n; l++ {
				if got := f.lay.get(f.phiRow(k), l); got != plain[k][l] {
					t.Fatalf("trial %d: state %d task %d reads %d, want %d", trial, k, l, got, plain[k][l])
				}
			}
		}
		le := func(a, b []int) bool {
			for l := range a {
				if a[l] > b[l] {
					return false
				}
			}
			return true
		}
		if aLe, bLe := f.order(0, 1); aLe != le(plain[0], plain[1]) || bLe != le(plain[1], plain[0]) {
			t.Fatalf("trial %d: packed dominance disagrees on %v vs %v", trial, plain[0], plain[1])
		}
	}
}

// benchSet is a 4-task set whose DP explores a few thousand states per
// solve — enough for the per-state key cost to dominate.
func benchSet(tb testing.TB) *task.Set {
	tb.Helper()
	s, err := task.New([]task.Task{
		{Name: "a", Period: 12, WCETAccurate: 5, WCETImprecise: 2,
			Error: task.Dist{Mean: 1}, MaxConsecutiveImprecise: 2},
		{Name: "b", Period: 12, WCETAccurate: 4, WCETImprecise: 2,
			Error: task.Dist{Mean: 1}, MaxConsecutiveImprecise: 1},
		{Name: "c", Period: 24, WCETAccurate: 6, WCETImprecise: 2,
			Error: task.Dist{Mean: 1}, MaxConsecutiveImprecise: 2},
		{Name: "d", Period: 24, WCETAccurate: 5, WCETImprecise: 3,
			Error: task.Dist{Mean: 1}, MaxConsecutiveImprecise: 1},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkCumulativeDP measures full DP(C) solves: the 4-task benchSet at
// the default options, and three Table I cases at plan-paper's options
// (Rnd9 is plan-paper's largest search). expanded/op is the deterministic
// count of states the solve expands; run with -benchmem to see allocs/op.
func BenchmarkCumulativeDP(b *testing.B) {
	type bcase struct {
		name string
		set  *task.Set
		opt  Options
	}
	cases := []bcase{{name: "bench4", set: benchSet(b)}}
	for _, name := range []string{"Rnd8", "Rnd9", "IDCT"} {
		c, err := workload.CaseByName(name)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, bcase{name: name, set: c.MustSet(), opt: paperOptions})
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var expanded int
			for i := 0; i < b.N; i++ {
				_, stats, err := Solve(c.set, c.opt)
				if err != nil {
					b.Fatal(err)
				}
				expanded = stats.Expanded
			}
			b.ReportMetric(float64(expanded), "expanded/op")
		})
	}
}
