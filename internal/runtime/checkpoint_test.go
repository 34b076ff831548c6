package runtime

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nprt/internal/sim"
	"nprt/internal/task"
)

// soakOptions is the configuration the checkpoint tests exercise:
// a governor twitchy enough to act within short runs.
func soakOptions(seed uint64) Options {
	return Options{
		Seed: seed,
		Governor: GovernorConfig{
			Window: 2, ShedThreshold: 0.5, RestoreThreshold: 0.1, DwellEpochs: 1,
		},
	}
}

// testTape is a small but eventful script: churn, a rejection, a stale
// remove, and an overload window that forces governor action.
func testTape() *Tape {
	spec := func(name string, p, w, x task.Time, crit int) *TaskSpec {
		t := mkTask(name, p, w, x)
		return &TaskSpec{Task: t, Criticality: crit}
	}
	return &Tape{Events: []Event{
		{Epoch: 0, Op: "add", Task: spec("a", 20, 8, 2, 2)},
		{Epoch: 0, Op: "add", Task: spec("b", 20, 8, 2, 1)},
		{Epoch: 2, Op: "add", Task: spec("fat", 10, 10, 9, 0)}, // rejected
		{Epoch: 3, Op: "remove", Name: "ghost"},                // stale: ErrUnknownTask
		{Epoch: 4, Op: "overload", Overload: &OverloadSpec{
			Rates: sim.FaultRates{OverrunProb: 0.9, OverrunFactor: 4}, Epochs: 8}},
		{Epoch: 16, Op: "remove", Name: "b"},
		{Epoch: 18, Op: "add", Task: spec("c", 40, 8, 4, 3)},
	}}
}

// tolerateStale lets Play continue over deterministic request errors the
// way the soak does; anything else still aborts.
func tolerateStale(_ Event, err error) error {
	if IsStaleRequest(err) {
		return nil
	}
	return err
}

func TestCheckpointRoundTrip(t *testing.T) {
	r := mkRuntime(t, soakOptions(9))
	if err := r.Play(testTape(), 12, nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, r.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if r2.Epoch() != r.Epoch() || r2.Digest() != r.Digest() {
		t.Fatalf("restored epoch/digest %d/%x, want %d/%x",
			r2.Epoch(), r2.Digest(), r.Epoch(), r.Digest())
	}
	if got, want := r2.Metrics(), r.Metrics(); got != want {
		t.Fatalf("restored metrics %+v, want %+v", got, want)
	}
	if got, want := r2.ShedTasks(), r.ShedTasks(); len(got) != len(want) {
		t.Fatalf("restored shed set %v, want %v", got, want)
	}
}

// TestKillRestoreDifferential is the tentpole proof obligation: kill the
// runtime at an arbitrary epoch, restore from the checkpoint, play the
// rest of the tape — the digest at every subsequent epoch must equal the
// uninterrupted run's. The kill point sweeps the whole horizon, so the cut
// lands inside overload windows, shed periods and churn alike.
func TestKillRestoreDifferential(t *testing.T) {
	const horizon = 24
	tape := testTape()

	// Reference: uninterrupted run, digest after every epoch.
	ref := mkRuntime(t, soakOptions(9))
	var refDigests []uint64
	if err := ref.Play(tape, horizon, func(EpochReport) {
		refDigests = append(refDigests, ref.Digest())
	}, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}

	for kill := int64(1); kill < horizon; kill += 3 {
		r := mkRuntime(t, soakOptions(9))
		if err := r.Play(tape, kill, nil, nil, tolerateStale); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, r.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		r2, err := Restore(&buf)
		if err != nil {
			t.Fatalf("kill@%d: restore: %v", kill, err)
		}

		epoch := r2.Epoch()
		if err := r2.Play(tape, horizon, func(rep EpochReport) {
			if want := refDigests[rep.Epoch]; r2.Digest() != want {
				t.Fatalf("kill@%d: digest diverged at epoch %d: %x, want %x",
					kill, rep.Epoch, r2.Digest(), want)
			}
		}, nil, tolerateStale); err != nil {
			t.Fatal(err)
		}
		if epoch != kill {
			t.Fatalf("kill@%d: restored at epoch %d", kill, epoch)
		}
		if r2.Digest() != ref.Digest() {
			t.Fatalf("kill@%d: final digest %x, want %x", kill, r2.Digest(), ref.Digest())
		}
	}
}

// TestRestoreDoesNotAliasCheckpoint mutates a restored runtime and checks
// that the decoded snapshot it came from is unchanged.
func TestRestoreDoesNotAliasCheckpoint(t *testing.T) {
	r := mkRuntime(t, soakOptions(9))
	for _, n := range []string{"a", "b", "c"} {
		mustAdd(t, r, TaskSpec{Task: mkTask(n, 40, 4, 2)})
	}
	cp := r.Checkpoint()
	cp.Tasks = slices.Grow(cp.Tasks, 4) // room an in-place append could use
	before := slices.Clone(cp.Tasks)

	r2, err := FromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Remove("a"); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r2, TaskSpec{Task: mkTask("d", 20, 4, 2)})
	if !reflect.DeepEqual(cp.Tasks, before) || !reflect.DeepEqual(cp.Tasks[:cap(cp.Tasks)][len(before)], TaskSpec{}) {
		t.Fatalf("restored runtime wrote into the checkpoint: %+v", cp.Tasks[:cap(cp.Tasks)])
	}
}

// TestRestoreRejectsCorrupt walks targeted corruptions of a valid
// snapshot; each must produce an error, never a panic, never a runtime.
func TestRestoreRejectsCorrupt(t *testing.T) {
	r := mkRuntime(t, soakOptions(9))
	if err := r.Play(testTape(), 10, nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, r.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	reencode := func(mutate func(*Checkpoint)) string {
		var cp Checkpoint
		if err := json.Unmarshal([]byte(good), &cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		out, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"truncated", good[:len(good)/2]},
		{"not json", "][ nope"},
		{"unknown field", `{"version":1,"bogus":3}`},
		{"future version", reencode(func(cp *Checkpoint) { cp.Version = 99 })},
		{"negative epoch", reencode(func(cp *Checkpoint) { cp.Epoch = -4 })},
		{"zero rng", reencode(func(cp *Checkpoint) { cp.RNG.S = [4]uint64{} })},
		{"unnamed task", reencode(func(cp *Checkpoint) { cp.Tasks[0].Task.Name = "" })},
		{"invalid task", reencode(func(cp *Checkpoint) { cp.Tasks[0].Task.Period = -1 })},
		{"duplicate task", reencode(func(cp *Checkpoint) { cp.Tasks[1] = cp.Tasks[0] })},
		{"phantom shed", reencode(func(cp *Checkpoint) { cp.Shed = []string{"ghost"} })},
		{"double shed", reencode(func(cp *Checkpoint) { cp.Shed = []string{"a", "a"} })},
		{"negative overload", reencode(func(cp *Checkpoint) { cp.OverloadLeft = -1 })},
		{"bad overload rates", reencode(func(cp *Checkpoint) {
			cp.OverloadLeft = 2
			cp.OverloadRates.OverrunProb = 7
		})},
		{"governor window mismatch", reencode(func(cp *Checkpoint) { cp.Governor.Window = nil })},
		{"negative metric", reencode(func(cp *Checkpoint) { cp.Metrics.Jobs = -1 })},
		{"slack table mismatch", reencode(func(cp *Checkpoint) { cp.ESR.Slacks[0] += 1 })},
		{"slack table truncated", reencode(func(cp *Checkpoint) { cp.ESR.Slacks = cp.ESR.Slacks[:1] })},
		{"bad options", reencode(func(cp *Checkpoint) { cp.Options.EpochHyperperiods = -1 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Restore(strings.NewReader(c.in)); err == nil {
				t.Fatal("corrupt snapshot restored successfully")
			}
		})
	}

	// The pristine snapshot must still restore (the corruptions above were
	// real, not artifacts of re-encoding).
	if _, err := Restore(strings.NewReader(good)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if _, err := Restore(strings.NewReader(reencode(func(*Checkpoint) {}))); err != nil {
		t.Fatalf("re-encoded snapshot rejected: %v", err)
	}
}

// FuzzRestore: arbitrary bytes into Restore must error or produce a
// runtime that can immediately re-checkpoint — and never panic.
func FuzzRestore(f *testing.F) {
	r, err := New(soakOptions(9))
	if err != nil {
		f.Fatal(err)
	}
	if err := r.Play(testTape(), 10, nil, nil, tolerateStale); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, r.Checkpoint()); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()

	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1}`))
	f.Add(bytes.Replace(good, []byte(`"epoch"`), []byte(`"epoxy"`), 1))
	f.Add(bytes.Replace(good, []byte("1"), []byte("-1"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever restored must be internally consistent enough to
		// snapshot again and to run. The run check is skipped for
		// legitimately-huge configurations (a fuzzed snapshot may carry an
		// enormous epoch length — slow, not wrong).
		var out bytes.Buffer
		if err := EncodeCheckpoint(&out, r.Checkpoint()); err != nil {
			t.Fatalf("restored runtime cannot re-checkpoint: %v", err)
		}
		cheap := r.opt.EpochHyperperiods <= 8 &&
			(r.set == nil || r.set.Hyperperiod() <= 1<<20)
		if cheap {
			if _, err := r.RunEpoch(); err != nil {
				t.Fatalf("restored runtime cannot run: %v", err)
			}
		}
	})
}
