package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nprt/internal/esr"
	"nprt/internal/rng"
	"nprt/internal/sim"
	"nprt/internal/task"
)

// CheckpointVersion is the snapshot format version. The policy is strict:
// a reader accepts exactly the versions it knows (currently only 1) and
// rejects everything else with ErrCheckpointVersion — silent best-effort
// decoding of a future format is how state corruption gets into a
// restarted scheduler. Additive format changes still bump the version.
const CheckpointVersion = 1

// Checkpoint errors.
var (
	// ErrCheckpointVersion rejects snapshots from an unknown format version.
	ErrCheckpointVersion = errors.New("runtime: unsupported checkpoint version")
	// ErrCheckpointCorrupt wraps every internal-consistency rejection.
	ErrCheckpointCorrupt = errors.New("runtime: corrupt checkpoint")
)

// Checkpoint is the versioned, serializable snapshot of a Runtime between
// two epochs. Restoring it yields a runtime whose subsequent epochs,
// decisions and digests are bit-identical to the snapshotted one's — the
// differential test in checkpoint_test.go holds the proof obligation.
//
// The ESR field carries the canonical slack table for the current set.
// Between epochs the online half of the tracker is always at its reset
// state (policies are Reset at the start of every sim.Run), so the table is
// recomputable from the task set; it is stored anyway and cross-checked on
// restore as a corruption tripwire for the task specs themselves.
type Checkpoint struct {
	Version int     `json:"version"`
	Options Options `json:"options"`

	Epoch int64      `json:"epoch"`
	Tasks []TaskSpec `json:"tasks"`
	Shed  []string   `json:"shed,omitempty"`

	OverloadLeft  int            `json:"overload_left,omitempty"`
	OverloadRates sim.FaultRates `json:"overload_rates,omitempty"`

	Governor GovernorState    `json:"governor"`
	RNG      rng.State        `json:"rng"`
	ESR      esr.TrackerState `json:"esr"`

	Digest  uint64  `json:"digest"`
	Metrics Metrics `json:"metrics"`
}

// Checkpoint snapshots the runtime. Call it only between epochs (which is
// the only place single-threaded callers can call it).
func (r *Runtime) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:       CheckpointVersion,
		Options:       r.opt,
		Epoch:         r.epoch,
		Tasks:         r.Tasks(),
		Shed:          r.ShedTasks(),
		OverloadLeft:  r.overloadLeft,
		OverloadRates: r.overloadRates,
		Governor:      r.gov.State(),
		RNG:           r.root.State(),
		Digest:        r.digest,
		Metrics:       r.Metrics(), // governor action counters merged in
	}
	if set := r.taskSet(); set != nil {
		cp.ESR = esr.NewTracker(set).State()
	}
	return cp
}

// EncodeCheckpoint writes the snapshot as indented JSON.
func EncodeCheckpoint(w io.Writer, cp *Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// Restore reconstructs a runtime from a snapshot, validating every field —
// truncated, mutated or adversarial input must produce an error, never a
// panic and never a silently wrong runtime. The task set is re-validated
// through task.New, the plan is rebuilt (plans are derived state, not
// snapshot state), and the stored ESR slack table is cross-checked against
// recomputation.
func Restore(rd io.Reader) (*Runtime, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var cp Checkpoint
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	return FromCheckpoint(&cp)
}

// FromCheckpoint is Restore on an already-decoded snapshot.
func FromCheckpoint(cp *Checkpoint) (*Runtime, error) {
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: %d (reader knows %d)",
			ErrCheckpointVersion, cp.Version, CheckpointVersion)
	}
	r, err := New(cp.Options)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.Epoch < 0 {
		return nil, fmt.Errorf("%w: negative epoch %d", ErrCheckpointCorrupt, cp.Epoch)
	}
	if err := cp.Metrics.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}

	// Task specs: individually valid, unique names, and jointly admissible
	// as a set.
	seen := make(map[string]bool, len(cp.Tasks))
	for i := range cp.Tasks {
		name := cp.Tasks[i].Task.Name
		if name == "" {
			return nil, fmt.Errorf("%w: task %d unnamed", ErrCheckpointCorrupt, i)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate task %q", ErrCheckpointCorrupt, name)
		}
		seen[name] = true
		if err := cp.Tasks[i].Task.Validate(); err != nil {
			return nil, fmt.Errorf("%w: task %q: %v", ErrCheckpointCorrupt, name, err)
		}
	}
	var set *task.Set
	if len(cp.Tasks) > 0 {
		ts := make([]task.Task, len(cp.Tasks))
		for i := range cp.Tasks {
			ts[i] = cp.Tasks[i].Task
		}
		set, err = task.New(ts)
		if err != nil {
			return nil, fmt.Errorf("%w: task set: %v", ErrCheckpointCorrupt, err)
		}
	}

	// Shed set: a subset of the admitted names, no duplicates.
	shedSeen := make(map[string]bool, len(cp.Shed))
	for _, n := range cp.Shed {
		if !seen[n] {
			return nil, fmt.Errorf("%w: shed task %q not admitted", ErrCheckpointCorrupt, n)
		}
		if shedSeen[n] {
			return nil, fmt.Errorf("%w: task %q shed twice", ErrCheckpointCorrupt, n)
		}
		shedSeen[n] = true
	}

	if cp.OverloadLeft < 0 {
		return nil, fmt.Errorf("%w: negative overload window %d", ErrCheckpointCorrupt, cp.OverloadLeft)
	}
	if cp.OverloadLeft > 0 {
		if err := cp.OverloadRates.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
		}
	}

	gov, err := GovernorFromState(r.opt.Governor, cp.Governor)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	root, err := rng.FromState(cp.RNG)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}

	// ESR cross-check: the stored slack table must match what the restored
	// task set implies. A mismatch means the specs or the table were
	// corrupted — either way the snapshot does not describe a runtime that
	// ever existed.
	if set != nil {
		want := esr.NewTracker(set).State()
		if len(cp.ESR.Slacks) != len(want.Slacks) {
			return nil, fmt.Errorf("%w: ESR slack table has %d entries for %d tasks",
				ErrCheckpointCorrupt, len(cp.ESR.Slacks), len(want.Slacks))
		}
		for i := range want.Slacks {
			if cp.ESR.Slacks[i] != want.Slacks[i] {
				return nil, fmt.Errorf("%w: ESR slack for task %d is %d, set implies %d",
					ErrCheckpointCorrupt, i, cp.ESR.Slacks[i], want.Slacks[i])
			}
		}
	} else if len(cp.ESR.Slacks) != 0 {
		return nil, fmt.Errorf("%w: ESR slack table without tasks", ErrCheckpointCorrupt)
	}

	// Add and Remove update the specs in place, so the runtime owns its
	// copy rather than writing into the caller's snapshot. The screen's
	// curve is seeded from the same specs, and the set just validated is
	// the one taskSet would build.
	r.specs = append([]TaskSpec(nil), cp.Tasks...)
	r.screen.Reset(r.specTasks())
	r.set = set
	// Rebuild the derived plan for the restored set.
	var d Decision
	if err := r.replan(&d); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	r.met = cp.Metrics // replan bumped Replans; the snapshot's counters win
	r.shed = append([]string(nil), cp.Shed...)
	r.overloadLeft = cp.OverloadLeft
	r.overloadRates = cp.OverloadRates
	r.gov = gov
	r.root = root
	r.epoch = cp.Epoch
	r.digest = cp.Digest
	return r, nil
}
