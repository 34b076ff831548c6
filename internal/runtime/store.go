package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nprt/internal/journal"
)

// Store is the durable, crash-only wrapper around a Runtime: every state
// mutation is journaled to a write-ahead log *before* it is applied, and
// periodic checkpoints fold the sealed journal prefix into a framed
// snapshot. Killing the process at any instruction and reopening the store
// recovers a runtime bit-identical to one that was never killed — the
// crash-point sweep in cmd/impserve holds that proof obligation at every
// fsync boundary.
//
// The write-ahead discipline per mutation kind:
//
//   - requests (add/remove/overload): validate → journal → fsync → apply.
//     A crash after the fsync replays the request on recovery; a crash
//     before it never happened. Either way the journal and the state agree.
//   - epochs: run → journal {epoch, digest, governor action} → fsync.
//     An epoch is a pure function of the state before it, so a crash
//     mid-epoch (or before the record lands) simply reruns it on recovery
//     and must reproduce the recorded digest — the replay cross-checks
//     this, turning silent divergence (bit rot, version skew) into a
//     structured ErrReplayDivergence.
//   - checkpoints: framed snapshot (see ckptfile.go) written atomically,
//     then the journal is compacted to the snapshot's index. The snapshot
//     names the last journal index it covers, so recovery = newest good
//     checkpoint + replay of the records past it.
//
// Layout under the store directory:
//
//	wal/seg-*.wal          journal segments
//	ckpt-<index>.ckpt      framed snapshots, named by covered journal index
//
// A Store, like the Runtime it wraps, is not safe for concurrent use.
type Store struct {
	dir string
	opt StoreOptions

	rt  *Runtime
	wal *journal.Writer
	gc  *journal.GroupCommitter

	eventsApplied uint64 // lifetime count of journaled requests
	maxSeq        uint64 // highest Event.Seq journaled (cluster tape cursor)
	rec           RecoveryInfo
}

// StoreOptions parameterizes OpenStore.
type StoreOptions struct {
	// Runtime configures a fresh runtime when no checkpoint exists.
	Runtime Options
	// SegmentBytes is the journal rotation threshold (journal.Options).
	SegmentBytes int64
	// Generations is how many checkpoint files to keep (≥1; default 2).
	// The extras are the fallback chain when the newest is corrupt.
	Generations int
	// AfterSync fires after every fsync the store performs — journal
	// segments, checkpoint temp files, directory entries. The crash-point
	// sweep kills the process inside this hook.
	AfterSync func()
	// NoSync disables fsync (fast tests; no durability).
	NoSync bool
	// Inject, when non-nil, intercepts the journal's writes and fsyncs for
	// deterministic storage-fault injection (journal.FaultFS). Checkpoint
	// files are not injected: the WAL is the durability-critical path, and
	// a lost checkpoint only costs replay distance, never state.
	Inject journal.Injector
	// Clock supplies time for the journal's per-op latency capture
	// (journal.Options.Clock). Defaults to the wall clock.
	Clock journal.Clock
	// Observe, when non-nil, receives the sojourn of every WAL write
	// (sync=false) and fsync (sync=true) — the latency-health feed.
	Observe func(sync bool, d time.Duration)
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.Generations <= 0 {
		o.Generations = 2
	}
	return o
}

// RecoveryInfo reports what OpenStore found and rebuilt.
type RecoveryInfo struct {
	// FromCheckpoint is the path of the snapshot used, "" when none.
	FromCheckpoint string `json:"from_checkpoint,omitempty"`
	// CheckpointFallbacks counts newer snapshots rejected as corrupt
	// before a good one was found.
	CheckpointFallbacks int `json:"checkpoint_fallbacks,omitempty"`
	// ReplayedEvents / ReplayedEpochs count journal records re-applied.
	ReplayedEvents int `json:"replayed_events"`
	ReplayedEpochs int `json:"replayed_epochs"`
	// Epoch and Digest are the recovered runtime position.
	Epoch  int64  `json:"epoch"`
	Digest uint64 `json:"digest"`
}

// ErrReplayDivergence reports that rerunning a journaled epoch produced a
// different digest than the journal recorded — the store's data does not
// describe a run that ever happened (corruption the checksums cannot see,
// or a code-version skew), so recovery must stop rather than serve it.
var ErrReplayDivergence = errors.New("runtime: journal replay diverged from recorded state")

// epochRecord is the TypeEpoch payload: the epoch's identity plus the
// governor transition it triggered, cross-checked on replay.
type epochRecord struct {
	Epoch    int64  `json:"epoch"`
	Seed     uint64 `json:"seed"`
	Digest   uint64 `json:"digest"`
	Action   string `json:"action,omitempty"`
	Shed     string `json:"shed,omitempty"`
	Restored string `json:"restored,omitempty"`
}

// markRecord is the TypeMark payload (observability only).
type markRecord struct {
	Epoch    int64  `json:"epoch"`
	WALIndex uint64 `json:"wal_index"`
}

const ckptSuffix = ".ckpt"

// ckptName formats a checkpoint file name from the journal index it
// covers; fixed-width hex keeps lexicographic order equal to recency.
func ckptName(idx uint64) string {
	return fmt.Sprintf("ckpt-%016x%s", idx, ckptSuffix)
}

// listCheckpoints returns checkpoint paths, newest first.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), ckptSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// OpenStore recovers (or initializes) the durable runtime in dir:
// newest good checkpoint — falling back a generation when one is corrupt —
// plus a replay of every journal record past it, digest-cross-checked.
func OpenStore(dir string, opt StoreOptions) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	s := &Store{dir: dir, opt: opt}

	// 1. Newest good checkpoint, if any.
	var fc *FileCheckpoint
	paths, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		cand, rt, err := ReadCheckpointFile(p)
		if err != nil {
			// Corrupt or unreadable generation: fall back to the previous
			// one. This is the crash-only bargain — a torn checkpoint
			// write costs one generation of replay distance, never the
			// store.
			s.rec.CheckpointFallbacks++
			continue
		}
		fc, s.rt = cand, rt
		s.rec.FromCheckpoint = p
		break
	}
	if s.rt == nil {
		rt, err := New(opt.Runtime)
		if err != nil {
			return nil, err
		}
		s.rt = rt
		fc = &FileCheckpoint{}
	}
	s.eventsApplied = fc.EventsApplied
	s.maxSeq = fc.MaxSeq

	// 2. Journal: repair (truncate torn tail, drop unreachable segments)
	// and position for append.
	wal, err := journal.Open(filepath.Join(dir, "wal"), journal.Options{
		SegmentBytes: opt.SegmentBytes,
		AfterSync:    opt.AfterSync,
		NoSync:       opt.NoSync,
		Inject:       opt.Inject,
		Clock:        opt.Clock,
		Observe:      opt.Observe,
	})
	if err != nil {
		return nil, err
	}
	s.wal = wal
	if wal.LastIndex() < fc.WALIndex {
		// The journal ends before the checkpoint's coverage: its tail was
		// lost (or the whole log was). Everything missing is inside the
		// snapshot, so nothing is gone — but appends must continue the
		// index sequence the snapshot expects.
		if err := wal.Reset(fc.WALIndex); err != nil {
			wal.Close()
			return nil, err
		}
	}
	// All request/epoch/mark journaling goes through the committer: every
	// write is one AppendBatch plus one covering Sync.
	s.gc = journal.NewGroupCommitter(wal, journal.GroupOptions{})

	// 3. Replay the suffix, write-ahead semantics in reverse: requests are
	// re-applied, epochs are re-run and must reproduce their recorded
	// digests.
	_, err = journal.Replay(filepath.Join(dir, "wal"), fc.WALIndex, func(r journal.Record) error {
		switch r.Type {
		case journal.TypeEvent:
			var ev Event
			if err := json.Unmarshal(r.Payload, &ev); err != nil {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
			s.eventsApplied++
			if ev.Seq > s.maxSeq {
				s.maxSeq = ev.Seq
			}
			s.rec.ReplayedEvents++
			if _, err := s.rt.Apply(ev); err != nil && !IsStaleRequest(err) {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
			return nil
		case journal.TypeEpoch:
			var er epochRecord
			if err := json.Unmarshal(r.Payload, &er); err != nil {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
			rep, err := s.rt.RunEpoch()
			if err != nil {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
			s.rec.ReplayedEpochs++
			if rep.Epoch != er.Epoch || s.rt.Digest() != er.Digest {
				return fmt.Errorf("%w: record %d says epoch %d digest %016x, replay produced epoch %d digest %016x",
					ErrReplayDivergence, r.Index, er.Epoch, er.Digest, rep.Epoch, s.rt.Digest())
			}
			return nil
		default: // TypeMark: informational
			return nil
		}
	})
	if err != nil {
		wal.Close()
		return nil, err
	}
	s.rec.Epoch = s.rt.Epoch()
	s.rec.Digest = s.rt.Digest()
	return s, nil
}

// InspectStore rebuilds the runtime a recovery of dir would produce —
// newest good checkpoint plus a replay of the journal suffix — WITHOUT
// opening the journal for append or repairing it. This is the
// checkpoint-handoff export path: a failed shard's last durable task state
// can be read even while its writer is wedged (the injector only
// intercepts writer I/O; reads go straight to the files), and reading
// never races an appender because the caller has already fenced the shard.
// A torn journal tail simply ends the replay, exactly where Open's repair
// would truncate.
func InspectStore(dir string, opt StoreOptions) (*Runtime, error) {
	opt = opt.withDefaults()
	var rt *Runtime
	fc := &FileCheckpoint{}
	paths, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		cand, r, err := ReadCheckpointFile(p)
		if err != nil {
			continue
		}
		fc, rt = cand, r
		break
	}
	if rt == nil {
		r, err := New(opt.Runtime)
		if err != nil {
			return nil, err
		}
		rt = r
	}
	_, err = journal.Replay(filepath.Join(dir, "wal"), fc.WALIndex, func(r journal.Record) error {
		switch r.Type {
		case journal.TypeEvent:
			var ev Event
			if err := json.Unmarshal(r.Payload, &ev); err != nil {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
			if _, err := rt.Apply(ev); err != nil && !IsStaleRequest(err) {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
		case journal.TypeEpoch:
			var er epochRecord
			if err := json.Unmarshal(r.Payload, &er); err != nil {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
			rep, err := rt.RunEpoch()
			if err != nil {
				return fmt.Errorf("record %d: %w", r.Index, err)
			}
			if rep.Epoch != er.Epoch || rt.Digest() != er.Digest {
				return fmt.Errorf("%w: record %d says epoch %d digest %016x, replay produced epoch %d digest %016x",
					ErrReplayDivergence, r.Index, er.Epoch, er.Digest, rep.Epoch, rt.Digest())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// Runtime exposes the recovered runtime (read-only use; mutate through the
// store or the journal will miss the mutation).
func (s *Store) Runtime() *Runtime { return s.rt }

// Recovery reports what OpenStore rebuilt.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// EventsApplied returns the lifetime count of journaled requests — the
// tape cursor for tape-driven drivers.
func (s *Store) EventsApplied() uint64 { return s.eventsApplied }

// MaxSeq returns the highest Event.Seq this store has journaled — the
// per-shard cluster tape cursor, persisted through WAL replay and
// checkpoints. Zero when the store has never seen sequenced events.
func (s *Store) MaxSeq() uint64 { return s.maxSeq }

// LastIndex returns the journal position (last appended record index).
func (s *Store) LastIndex() uint64 { return s.wal.LastIndex() }

// SequenceRequests numbers the requests this store journaled without a
// sequence number (a single-store driver never stamps Event.Seq) as
// 1..EventsApplied, by raising MaxSeq to EventsApplied, and checkpoints so
// the new MaxSeq is durable. A cluster that adopts the store as a shard
// reads MaxSeq as its tape cursor, so it resumes the tape right after the
// requests the store already holds — where the store itself would have.
func (s *Store) SequenceRequests() error {
	if s.maxSeq >= s.eventsApplied {
		return nil
	}
	s.maxSeq = s.eventsApplied
	_, err := s.Checkpoint()
	return err
}

// Epoch and Digest proxy the runtime's position.
func (s *Store) Epoch() int64   { return s.rt.Epoch() }
func (s *Store) Digest() uint64 { return s.rt.Digest() }

// Apply journals the request, makes it durable, then applies it: ApplyBatch
// of one event. A request that fails structural validation is rejected
// before it touches the journal (it would poison every future replay);
// stale-request errors happen after journaling, exactly as they would on
// replay.
func (s *Store) Apply(ev Event) (Decision, error) {
	decs, errs, err := s.ApplyBatch([]Event{ev})
	if err == nil {
		err = errs[0]
	}
	return decs[0], err
}

// ApplyBatch journals every structurally valid event of the batch under ONE
// multi-record write and ONE covering fsync, then applies them in order —
// the group-commit ingest path: N admissions, ~1 disk sync. Per-event
// results come back positionally: decs[i]/errs[i] mirror evs[i], where
// errs[i] is a validation or stale-request rejection of that event alone.
// The returned error is fatal (journal write/sync failure, or an apply
// error replay would also refuse): the batch's durability or the store's
// integrity is in doubt and the caller must stop.
//
// Ordering is exactly serial Apply semantics: invalid events are rejected
// before touching the journal, valid ones land in the journal in slice
// order and are applied in that same order after the covering sync.
func (s *Store) ApplyBatch(evs []Event) ([]Decision, []error, error) {
	decs := make([]Decision, len(evs))
	errs := make([]error, len(evs))
	recs := make([]journal.Pending, 0, len(evs))
	idx := make([]int, 0, len(evs)) // positions of journaled events
	for i := range evs {
		decs[i] = Decision{Op: evs[i].Op}
		if err := evs[i].Validate(); err != nil {
			errs[i] = err
			continue
		}
		payload, err := json.Marshal(evs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		recs = append(recs, journal.Pending{Type: journal.TypeEvent, Payload: payload})
		idx = append(idx, i)
	}
	if len(recs) == 0 {
		return decs, errs, nil
	}
	if _, err := s.gc.CommitAll(recs); err != nil {
		return decs, errs, err
	}
	s.eventsApplied += uint64(len(recs))
	for _, i := range idx {
		if evs[i].Seq > s.maxSeq {
			s.maxSeq = evs[i].Seq
		}
	}
	for _, i := range idx {
		d, err := s.rt.Apply(evs[i])
		if err != nil {
			if IsStaleRequest(err) {
				errs[i] = err
				continue
			}
			// A journaled event replay would also fail on: recovery and the
			// live state have diverged, stop before serving either.
			return decs, errs, err
		}
		decs[i] = d
	}
	return decs, errs, nil
}

// CommitStats reports the committer's amortization counters (records per
// sync, largest batch) for /state observability.
func (s *Store) CommitStats() journal.GroupStats { return s.gc.Stats() }

// RunEpoch runs one epoch and journals its result (epoch number, digest,
// governor transition). The record is the epoch's commit: recovery re-runs
// any epoch whose record did not land, and cross-checks the digest of any
// that did.
func (s *Store) RunEpoch() (EpochReport, error) {
	rep, err := s.rt.RunEpoch()
	if err != nil {
		return rep, err
	}
	payload, err := json.Marshal(epochRecord{
		Epoch:    rep.Epoch,
		Seed:     rep.Seed,
		Digest:   s.rt.Digest(),
		Action:   rep.ActionName,
		Shed:     rep.ShedTask,
		Restored: rep.RestoredTask,
	})
	if err != nil {
		return rep, err
	}
	_, err = s.gc.CommitAll([]journal.Pending{{Type: journal.TypeEpoch, Payload: payload}})
	return rep, err
}

// Checkpoint writes a framed snapshot covering the journal so far, prunes
// old generations beyond Generations, and compacts sealed journal
// segments the snapshot made redundant. Crash-safe at every step: the
// snapshot write is atomic, pruning and compaction only destroy data the
// new snapshot already covers.
func (s *Store) Checkpoint() (string, error) {
	idx := s.wal.LastIndex()
	path := filepath.Join(s.dir, ckptName(idx))
	fc := &FileCheckpoint{
		WALIndex:      idx,
		EventsApplied: s.eventsApplied,
		MaxSeq:        s.maxSeq,
		Checkpoint:    s.rt.Checkpoint(),
	}
	sync := s.opt.AfterSync
	if s.opt.NoSync {
		sync = nil
	}
	if err := writeCheckpointMaybeSync(path, fc, sync, s.opt.NoSync); err != nil {
		return "", err
	}

	// Mark the checkpoint in the log (observability; replay ignores it).
	if payload, err := json.Marshal(markRecord{Epoch: s.rt.Epoch(), WALIndex: idx}); err == nil {
		if _, err := s.gc.CommitAll([]journal.Pending{{Type: journal.TypeMark, Payload: payload}}); err != nil {
			return "", err
		}
	}

	// Prune old checkpoint generations.
	paths, err := listCheckpoints(s.dir)
	if err != nil {
		return "", err
	}
	for i, p := range paths {
		if i >= s.opt.Generations {
			if err := os.Remove(p); err != nil {
				return "", err
			}
		}
	}

	return path, s.wal.CompactTo(idx)
}

// writeCheckpointMaybeSync is WriteCheckpointFile with fsync elided under
// NoSync (tests that measure logic, not durability).
func writeCheckpointMaybeSync(path string, fc *FileCheckpoint, afterSync func(), noSync bool) error {
	if !noSync {
		return WriteCheckpointFile(path, fc, afterSync)
	}
	buf, err := EncodeCheckpointFile(fc)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// PlayTape advances a tape-driven store to the horizon: pending tape
// events fire (durably) before the epoch they are scheduled at, epochs run
// durably, and the store's event cursor — persisted in every checkpoint —
// resumes the tape exactly where the previous process died, even mid-epoch
// between two events. Precondition: every request this store has ever
// applied came from this tape, in order (impserve's tape mode guarantees
// it). onEpoch/onDecision/onDecisionErr as in Runtime.Play.
func (s *Store) PlayTape(tp *Tape, horizon int64,
	onEpoch func(EpochReport), onDecision func(Event, Decision),
	onDecisionErr func(Event, error) error) error {
	if s.eventsApplied > uint64(len(tp.Events)) {
		return fmt.Errorf("runtime: store has applied %d events but the tape has %d — wrong tape?",
			s.eventsApplied, len(tp.Events))
	}
	i := int(s.eventsApplied)
	for s.rt.Epoch() < horizon {
		for i < len(tp.Events) && tp.Events[i].Epoch <= s.rt.Epoch() {
			ev := tp.Events[i]
			i++
			d, err := s.Apply(ev)
			if err != nil {
				if onDecisionErr == nil {
					return fmt.Errorf("runtime: event at epoch %d: %w", ev.Epoch, err)
				}
				if err := onDecisionErr(ev, err); err != nil {
					return err
				}
				continue
			}
			if onDecision != nil {
				onDecision(ev, d)
			}
		}
		rep, err := s.RunEpoch()
		if err != nil {
			return err
		}
		if onEpoch != nil {
			onEpoch(rep)
		}
	}
	return nil
}

// Close retires the committer and closes the journal. Every write was
// synced before it was acknowledged, so nothing is pending. The store must
// not be used after.
func (s *Store) Close() error {
	err := s.gc.Close()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
