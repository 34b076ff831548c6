package experiments

import (
	"reflect"
	"testing"
)

func TestGenerateChurnTapeDeterministic(t *testing.T) {
	a := GenerateChurnTape(7, 500)
	b := GenerateChurnTape(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different tapes")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated tape invalid: %v", err)
	}
	c := GenerateChurnTape(8, 500)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical tapes")
	}

	// The mix must actually contain every op kind at this length.
	ops := map[string]int{}
	for _, ev := range a.Events {
		ops[ev.Op]++
	}
	for _, op := range []string{"add", "remove", "overload"} {
		if ops[op] == 0 {
			t.Errorf("500-event tape contains no %q events (mix %v)", op, ops)
		}
	}
}

// TestChurnSoak is the short-mode acceptance check: zero clean-epoch
// misses and a run that exercised the interesting paths (rejections, stale
// removes, governor sheds).
func TestChurnSoak(t *testing.T) {
	events := 400
	if !testing.Short() {
		events = 1500
	}
	r, err := ChurnSoak(Config{Seed: 1}, events, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MissesClean != 0 {
			t.Errorf("seed %d: %d deadline misses outside degraded windows", row.Seed, row.MissesClean)
		}
		if row.Admits == 0 || row.Jobs == 0 {
			t.Errorf("seed %d: soak admitted/ran nothing: %+v", row.Seed, row)
		}
		if row.Misses != row.MissesClean+row.MissesDegraded {
			t.Errorf("seed %d: miss accounting inconsistent: %+v", row.Seed, row)
		}
	}
	// Across the tapes, churn must have hit rejections and stale removes —
	// otherwise the tape generator stopped stressing admission control.
	var rejects, stale, sheds int64
	for _, row := range r.Rows {
		rejects += row.Rejects
		stale += row.StaleRemoves
		sheds += row.Sheds
	}
	if rejects == 0 {
		t.Error("soak never drove the set to a rejection")
	}
	if stale == 0 {
		t.Error("soak never issued a stale remove")
	}
	if sheds == 0 {
		t.Error("soak never made the governor shed")
	}

	if s := FormatChurn(r); len(s) == 0 {
		t.Error("empty churn summary")
	}
}

// TestChurnSoakParallelEqualsSerial: the artifact is a pure function of the
// seed regardless of the worker pool.
func TestChurnSoakParallelEqualsSerial(t *testing.T) {
	serial, err := ChurnSoak(Config{Seed: 5}, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ChurnSoak(Config{Seed: 5, Parallel: true}, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel != serial:\n%+v\n%+v", serial, parallel)
	}
}

// TestChurnSoakGoldenDigests pins the tape digests of the churn soak at
// seed 1 (2 tapes × 2000 events, as `paperbench churn -events 2000` runs
// it). Every admission folds the deepest profile's γ_min into the decision
// digest, so any drift in the Theorem-1 arithmetic — a shifted γ_min, a
// changed verdict — changes these values.
func TestChurnSoakGoldenDigests(t *testing.T) {
	r, err := ChurnSoak(Config{Seed: 1}, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"d87206fe9527f2d9", "50cb5096a3c92167"}
	for i, row := range r.Rows {
		if row.Digest != want[i] {
			t.Errorf("tape %d (seed %d): digest %s, want %s", i, row.Seed, row.Digest, want[i])
		}
	}
}
