package runtime

import (
	"fmt"
	"testing"

	"nprt/internal/sim"
	"nprt/internal/task"
)

// batchTape is storeTape's busier sibling: multiple events share epochs so
// the batched driver forms real multi-record commit groups, including
// groups that mix admissions, rejections and stale requests.
func batchTape() *Tape {
	spec := func(name string, p, w, x task.Time, crit int) *TaskSpec {
		t := mkTask(name, p, w, x)
		return &TaskSpec{Task: t, Criticality: crit}
	}
	return &Tape{Events: []Event{
		{Epoch: 0, Op: "add", Task: spec("a", 20, 6, 2, 2)},
		{Epoch: 0, Op: "add", Task: spec("b", 40, 10, 3, 0)},
		{Epoch: 0, Op: "add", Task: spec("c", 40, 12, 4, 1)},
		{Epoch: 2, Op: "overload", Overload: &OverloadSpec{
			Rates:  sim.FaultRates{OverrunProb: 0.3, OverrunFactor: 3},
			Epochs: 4,
		}},
		{Epoch: 2, Op: "remove", Name: "ghost"}, // stale: never admitted
		{Epoch: 4, Op: "remove", Name: "b"},
		{Epoch: 4, Op: "add", Task: spec("d", 20, 18, 2, 3)}, // degraded or rejected
		{Epoch: 4, Op: "add", Task: spec("a", 20, 6, 2, 2)},  // stale: duplicate
		{Epoch: 6, Op: "add", Task: spec("e", 80, 9, 3, 1)},
	}}
}

// playStoreBatched drives the tape through ApplyBatch — all of an epoch's
// due events in one commit group — with the same epoch cadence, checkpoint
// rhythm, and stale tolerance as playStore. The resume cursor is
// EventsApplied, exactly like PlayTape: every tape event is journaled
// (stale ones fail only at apply), so the count restarts the tape
// mid-epoch after a crash.
func playStoreBatched(s *Store, tp *Tape, horizon int64) error {
	i := int(s.EventsApplied())
	if i > len(tp.Events) {
		return fmt.Errorf("store applied %d events, tape has %d", i, len(tp.Events))
	}
	for s.Epoch() < horizon {
		var batch []Event
		for i < len(tp.Events) && tp.Events[i].Epoch <= s.Epoch() {
			batch = append(batch, tp.Events[i])
			i++
		}
		if len(batch) > 0 {
			_, errs, err := s.ApplyBatch(batch)
			if err != nil {
				return err
			}
			for j, e := range errs {
				if e != nil && !IsStaleRequest(e) {
					return fmt.Errorf("batched event %d: %w", j, e)
				}
			}
		}
		rep, err := s.RunEpoch()
		if err != nil {
			return err
		}
		if rep.Epoch%3 == 2 {
			if _, err := s.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestStoreApplyBatchParity: a batched run must be indistinguishable from
// the serial run of the same tape — same digest as serial Apply on a
// second store AND as a plain in-memory runtime — while actually
// amortizing (more records than syncs).
func TestStoreApplyBatchParity(t *testing.T) {
	tp := batchTape()
	opt := StoreOptions{NoSync: true}
	tol := func(ev Event, err error) error {
		if IsStaleRequest(err) {
			return nil
		}
		return err
	}

	serial, err := OpenStore(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.PlayTape(tp, storeHorizon, nil, nil, tol); err != nil {
		t.Fatal(err)
	}
	want := serial.Digest()
	wantEvents := serial.EventsApplied()
	serial.Close()

	r := mkRuntime(t, opt.Runtime)
	if err := r.Play(tp, storeHorizon, nil, nil, tol); err != nil {
		t.Fatal(err)
	}
	if r.Digest() != want {
		t.Fatalf("serial store digest %016x != in-memory %016x", want, r.Digest())
	}

	batched, err := OpenStore(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	if err := playStoreBatched(batched, tp, storeHorizon); err != nil {
		t.Fatal(err)
	}
	if batched.Digest() != want {
		t.Fatalf("batched digest %016x != serial %016x — ApplyBatch changed the run", batched.Digest(), want)
	}
	if batched.EventsApplied() != wantEvents {
		t.Fatalf("batched journaled %d events, serial %d", batched.EventsApplied(), wantEvents)
	}
	st := batched.CommitStats()
	if st.RecordsPerSync() <= 1 {
		t.Fatalf("batched run never amortized: %+v", st)
	}
	if st.MaxGroup < 3 {
		t.Fatalf("largest commit group %d, want ≥3 (epoch-0 batch)", st.MaxGroup)
	}
}

// TestStoreCrashSweepBatched extends the crash-point sweep to batched
// commit boundaries: kill the store at EVERY fsync of a batched-ingest
// run — including the syncs covering multi-record groups — reopen, finish
// the run (batched), and require the digest of the SERIAL uncrashed run.
// Recovery cannot tell batched frames from serial ones; this proves it.
func TestStoreCrashSweepBatched(t *testing.T) {
	// One pass, under the subtest name it had when the sweep ran once
	// per dispatch engine, so the sweep's test names stay stable.
	t.Run("engine=0", storeCrashSweepBatched)
}

func storeCrashSweepBatched(t *testing.T) {
	tp := batchTape()
	tol := func(ev Event, err error) error {
		if IsStaleRequest(err) {
			return nil
		}
		return err
	}
	opt := StoreOptions{}

	// Serial uncrashed baseline digest.
	s, err := OpenStore(t.TempDir(), StoreOptions{Runtime: opt.Runtime, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlayTape(tp, storeHorizon, nil, nil, tol); err != nil {
		t.Fatal(err)
	}
	want := s.Digest()
	s.Close()

	// Count the batched run's fsync boundaries.
	total := 0
	countOpt := opt
	countOpt.AfterSync = func() { total++ }
	s, err = OpenStore(t.TempDir(), countOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := playStoreBatched(s, tp, storeHorizon); err != nil {
		t.Fatal(err)
	}
	if got := s.Digest(); got != want {
		t.Fatalf("uncrashed batched digest %016x != serial %016x", got, want)
	}
	st := s.CommitStats()
	if st.MaxGroup < 3 {
		t.Fatalf("sweep would not cross a multi-record boundary: %+v", st)
	}
	s.Close()
	if total < 20 {
		t.Fatalf("only %d fsync boundaries — batched tape not exercising the WAL", total)
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
				_ = playStoreBatched(s, tp, storeHorizon)
				t.Fatalf("run with kill point %d finished without crashing", point)
			}()

			s, err := OpenStore(dir, opt)
			if err != nil {
				t.Fatalf("recovery after kill %d: %v", point, err)
			}
			if err := playStoreBatched(s, tp, storeHorizon); err != nil {
				t.Fatalf("resume after kill %d: %v", point, err)
			}
			if s.Digest() != want {
				t.Errorf("kill point %d: digest %016x, uncrashed serial %016x",
					point, s.Digest(), want)
			}
			s.Close()
		})
	}
}

// TestStoreApplyBatchRejectsInvalid: a structurally invalid event must be
// rejected per-event without touching the journal, while the rest of the
// batch commits and applies.
func TestStoreApplyBatchRejectsInvalid(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := Event{Op: "add", Task: &TaskSpec{Task: mkTask("a", 20, 6, 2)}}
	bad := Event{Op: "launch-the-missiles"}
	decs, errs, err := s.ApplyBatch([]Event{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil {
		t.Fatalf("valid event rejected: %v", errs[0])
	}
	if decs[0].Verdict == Rejected {
		t.Fatalf("valid event got no admission: %+v", decs[0])
	}
	if errs[1] == nil {
		t.Fatal("invalid op accepted")
	}
	if s.LastIndex() != 1 {
		t.Fatalf("journal has %d records, want 1 — the invalid event must not be journaled", s.LastIndex())
	}
	if s.EventsApplied() != 1 {
		t.Fatalf("eventsApplied %d, want 1", s.EventsApplied())
	}
}
