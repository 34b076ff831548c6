package runtime

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nprt/internal/sim"
	"nprt/internal/task"
)

// storeTape builds a small but eventful tape: admissions, a rejection, an
// overload window, removals (one stale), and enough epochs after the last
// event for governor activity to settle.
func storeTape() *Tape {
	spec := func(name string, p, w, x task.Time, crit int) *TaskSpec {
		t := mkTask(name, p, w, x)
		return &TaskSpec{Task: t, Criticality: crit}
	}
	return &Tape{Events: []Event{
		{Epoch: 0, Op: "add", Task: spec("a", 20, 6, 2, 2)},
		{Epoch: 1, Op: "add", Task: spec("b", 40, 10, 3, 0)},
		{Epoch: 2, Op: "add", Task: spec("c", 40, 12, 4, 1)},
		{Epoch: 3, Op: "overload", Overload: &OverloadSpec{
			Rates:  sim.FaultRates{OverrunProb: 0.3, OverrunFactor: 3},
			Epochs: 4,
		}},
		{Epoch: 5, Op: "remove", Name: "ghost"}, // stale: never admitted
		{Epoch: 6, Op: "remove", Name: "b"},
		{Epoch: 7, Op: "add", Task: spec("d", 20, 18, 2, 3)}, // degraded or rejected
		{Epoch: 8, Op: "add", Task: spec("a", 20, 6, 2, 2)},  // stale: duplicate
	}}
}

const storeHorizon = 12

// playStore drives a store over the tape to the horizon, checkpointing
// every 3 epochs, tolerating stale requests.
func playStore(s *Store, tp *Tape) error {
	return s.PlayTape(tp, storeHorizon, func(rep EpochReport) {
		if rep.Epoch%3 == 2 {
			if _, err := s.Checkpoint(); err != nil {
				panic(fmt.Sprintf("checkpoint: %v", err))
			}
		}
	}, nil, func(ev Event, err error) error {
		if IsStaleRequest(err) {
			return nil
		}
		return err
	})
}

// uncrashedDigest plays the tape on a fresh store and returns the final
// digest, cross-checked against a plain in-memory runtime: journaling must
// be invisible to the run identity.
func uncrashedDigest(t *testing.T, opt StoreOptions) uint64 {
	t.Helper()
	tp := storeTape()

	s, err := OpenStore(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := playStore(s, tp); err != nil {
		t.Fatal(err)
	}
	durable := s.Digest()
	s.Close()

	r := mkRuntime(t, opt.Runtime)
	err = r.Play(tp, storeHorizon, nil, nil, func(ev Event, err error) error {
		if IsStaleRequest(err) {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Digest() != durable {
		t.Fatalf("durable digest %016x != in-memory digest %016x — journaling changed the run",
			durable, r.Digest())
	}
	return durable
}

func TestStoreUncrashedMatchesInMemory(t *testing.T) {
	uncrashedDigest(t, StoreOptions{NoSync: true})
}

func TestStoreReopenResumes(t *testing.T) {
	dir := t.TempDir()
	tp := storeTape()
	opt := StoreOptions{NoSync: true}
	want := uncrashedDigest(t, opt)

	// Run to epoch 5, close cleanly, reopen, finish.
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlayTape(tp, 5, nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recovery()
	if rec.Epoch != 5 {
		t.Fatalf("recovered to epoch %d, want 5 (%+v)", rec.Epoch, rec)
	}
	if rec.ReplayedEvents == 0 && rec.ReplayedEpochs == 0 && rec.FromCheckpoint == "" {
		t.Fatalf("recovery found nothing: %+v", rec)
	}
	if err := playStore(s, tp); err != nil {
		t.Fatal(err)
	}
	if s.Digest() != want {
		t.Fatalf("resumed digest %016x, uncrashed %016x", s.Digest(), want)
	}
	s.Close()
}

// crashNow is the sentinel the in-process crash sweep panics with.
type crashNow struct{ point int }

// TestStoreCrashSweep is the in-process half of the acceptance criterion:
// kill the store (via a panic out of the fsync hook) at EVERY durability
// boundary along the tape, reopen, finish the run, and require the final
// digest to be bit-identical to the uncrashed run's. The process-level
// half (SIGKILL between fsyncs) lives in cmd/impserve's
// sweep mode and the e2e test.
func TestStoreCrashSweep(t *testing.T) {
	// One pass, under the subtest name it had when the sweep ran once
	// per dispatch engine, so the sweep's test names stay stable.
	t.Run("engine=0", storeCrashSweep)
}

func storeCrashSweep(t *testing.T) {
	opt := StoreOptions{}
	want := uncrashedDigest(t, opt)

	// Count the fsync boundaries of an uncrashed run.
	total := 0
	countOpt := opt
	countOpt.AfterSync = func() { total++ }
	s, err := OpenStore(t.TempDir(), countOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := playStore(s, storeTape()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if total < 20 {
		t.Fatalf("only %d fsync boundaries — the tape is not exercising the WAL", total)
	}

	for point := 1; point <= total; point++ {
		point := point
		t.Run(fmt.Sprintf("kill@%d", point), func(t *testing.T) {
			dir := t.TempDir()
			crashOpt := opt
			n := 0
			crashOpt.AfterSync = func() {
				n++
				if n == point {
					panic(crashNow{point})
				}
			}

			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("kill point %d never reached (total %d)", point, total)
					}
					if _, ok := r.(crashNow); !ok {
						panic(r)
					}
				}()
				s, err := OpenStore(dir, crashOpt)
				if err != nil {
					t.Fatal(err)
				}
				// No Close: a crash leaks the fd, exactly like a
				// real kill. The reopen below works regardless.
				_ = playStore(s, storeTape())
				t.Fatalf("run with kill point %d finished without crashing", point)
			}()

			s, err := OpenStore(dir, opt)
			if err != nil {
				t.Fatalf("recovery after kill %d: %v", point, err)
			}
			if err := playStore(s, storeTape()); err != nil {
				t.Fatalf("resume after kill %d: %v", point, err)
			}
			if s.Digest() != want {
				t.Errorf("kill point %d: digest %016x, uncrashed %016x",
					point, s.Digest(), want)
			}
			s.Close()
		})
	}
}

// TestStoreCheckpointFallback corrupts the newest checkpoint generation
// and requires recovery to fall back to the previous good one and still
// reach the uncrashed digest.
func TestStoreCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	opt := StoreOptions{NoSync: true, Generations: 3}
	want := uncrashedDigest(t, opt)

	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlayTape(storeTape(), 9, func(rep EpochReport) {
		if _, err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}
	s.Close()

	paths, err := listCheckpoints(dir)
	if err != nil || len(paths) < 2 {
		t.Fatalf("need ≥2 checkpoint generations, have %d (%v)", len(paths), err)
	}
	// Flip one bit inside the newest generation's payload.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x04
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = OpenStore(dir, opt)
	if err != nil {
		t.Fatalf("recovery with corrupt newest checkpoint: %v", err)
	}
	rec := s.Recovery()
	if rec.CheckpointFallbacks != 1 {
		t.Errorf("fallbacks %d, want 1 (%+v)", rec.CheckpointFallbacks, rec)
	}
	if rec.FromCheckpoint != paths[1] {
		t.Errorf("recovered from %s, want %s", rec.FromCheckpoint, paths[1])
	}
	if err := playStore(s, storeTape()); err != nil {
		t.Fatal(err)
	}
	if s.Digest() != want {
		t.Fatalf("fallback digest %016x, uncrashed %016x", s.Digest(), want)
	}
	s.Close()
}

// TestStoreRejectsWrongTape: the persisted event cursor must catch a
// restart against a shorter (wrong) tape.
func TestStoreRejectsWrongTape(t *testing.T) {
	dir := t.TempDir()
	opt := StoreOptions{NoSync: true}
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := playStore(s, storeTape()); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	short := &Tape{Events: storeTape().Events[:2]}
	if err := s.PlayTape(short, storeHorizon+5, nil, nil, tolerateStale); err == nil ||
		!strings.Contains(err.Error(), "wrong tape") {
		t.Fatalf("short tape accepted: %v", err)
	}
}

// TestStoreReplayDivergence: a journal whose epoch record lies about the
// digest must be refused with ErrReplayDivergence, not silently served.
func TestStoreReplayDivergence(t *testing.T) {
	dir := t.TempDir()
	opt := StoreOptions{NoSync: true}
	s, err := OpenStore(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlayTape(storeTape(), 4, nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt a digest inside an epoch record — but re-frame it so the
	// CRC is valid (simulating code-version skew rather than bit rot).
	// Easiest valid-CRC mutation: replay against a different seed.
	opt2 := opt
	opt2.Runtime.Seed = 999
	if _, err := OpenStore(dir, opt2); !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("divergent replay error %v, want ErrReplayDivergence", err)
	}
}

// TestCheckpointFileCorruption is the satellite's contract on the framed
// format itself: truncation and bit flips anywhere must come back as
// ErrCorruptCheckpoint (or the version error), never a raw JSON error or
// a silently-wrong runtime.
func TestCheckpointFileCorruption(t *testing.T) {
	r := mkRuntime(t, Options{})
	mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 6, 2)})
	if _, err := r.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	fc := &FileCheckpoint{WALIndex: 7, EventsApplied: 1, Checkpoint: r.Checkpoint()}
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := WriteCheckpointFile(path, fc, nil); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Round trip.
	fc2, rt2, err := DecodeCheckpointFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if fc2.WALIndex != 7 || fc2.EventsApplied != 1 || rt2.Digest() != r.Digest() {
		t.Fatalf("round trip changed state: %+v digest %016x want %016x",
			fc2, rt2.Digest(), r.Digest())
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated-header":  func(b []byte) []byte { return b[:10] },
		"truncated-payload": func(b []byte) []byte { return b[:len(b)-30] },
		"empty":             func(b []byte) []byte { return nil },
		"bad-magic":         func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bit-flip-payload":  func(b []byte) []byte { b[len(b)-40] ^= 0x10; return b },
		"bit-flip-length":   func(b []byte) []byte { b[13] ^= 0x01; return b },
	} {
		t.Run(name, func(t *testing.T) {
			data := mutate(append([]byte(nil), good...))
			_, _, err := DecodeCheckpointFile(data)
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("corrupt file (%s) returned %v, want ErrCorruptCheckpoint", name, err)
			}
		})
	}

	// Unknown file-format version is the version error, not corruption.
	vdata := append([]byte(nil), good...)
	vdata[8] = 99
	if _, _, err := DecodeCheckpointFile(vdata); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("future version returned %v, want ErrCheckpointVersion", err)
	}

	// Legacy raw-JSON snapshots still restore.
	var legacy strings.Builder
	if err := EncodeCheckpoint(&legacy, r.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	_, rt3, err := DecodeCheckpointFile([]byte(legacy.String()))
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	if rt3.Digest() != r.Digest() {
		t.Fatalf("legacy restore digest %016x, want %016x", rt3.Digest(), r.Digest())
	}
}

// TestCheckpointFileIgnoresRetiredEngineKey pins that durable directories
// written while Options still carried a dispatch-engine kind reopen: their
// framed checkpoints hold an "engine" key under options, which the framed
// reader ignores. The strict raw-JSON reader (Restore) rejects the key,
// and a negative epoch length in the options is rejected as corrupt.
func TestCheckpointFileIgnoresRetiredEngineKey(t *testing.T) {
	r := mkRuntime(t, Options{Seed: 5})
	mustAdd(t, r, TaskSpec{Task: mkTask("a", 20, 6, 2)})
	if _, err := r.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// withOption re-encodes the snapshot with one options key set to raw.
	withOption := func(key, raw string) []byte {
		t.Helper()
		payload, err := json.Marshal(&FileCheckpoint{WALIndex: 3, EventsApplied: 1, Checkpoint: r.Checkpoint()})
		if err != nil {
			t.Fatal(err)
		}
		var top, cp, opts map[string]json.RawMessage
		if err := json.Unmarshal(payload, &top); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(top["checkpoint"], &cp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(cp["options"], &opts); err != nil {
			t.Fatal(err)
		}
		opts[key] = json.RawMessage(raw)
		remarshal := func(m map[string]json.RawMessage) json.RawMessage {
			out, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		cp["options"] = remarshal(opts)
		top["checkpoint"] = remarshal(cp)
		return remarshal(top)
	}

	old := withOption("engine", "0")
	fc, rt, err := DecodeCheckpointFile(frameCheckpoint(old))
	if err != nil {
		t.Fatalf("framed checkpoint with the retired engine key rejected: %v", err)
	}
	if fc.WALIndex != 3 || rt.Digest() != r.Digest() || rt.Epoch() != r.Epoch() {
		t.Fatalf("restored %+v at epoch %d digest %016x, want epoch %d digest %016x",
			fc, rt.Epoch(), rt.Digest(), r.Epoch(), r.Digest())
	}

	var cp struct {
		Checkpoint json.RawMessage `json:"checkpoint"`
	}
	if err := json.Unmarshal(old, &cp); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(cp.Checkpoint)); !errors.Is(err, ErrCheckpointCorrupt) ||
		!strings.Contains(err.Error(), `unknown field "engine"`) {
		t.Fatalf("raw snapshot with the retired engine key: %v, want unknown field \"engine\"", err)
	}

	if _, _, err := DecodeCheckpointFile(frameCheckpoint(withOption("epoch_hyperperiods", "-3"))); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("negative epoch_hyperperiods returned %v, want ErrCheckpointCorrupt", err)
	}
}
