// Group commit: coalescing concurrent Append+Sync callers into shared
// fsyncs.
//
// A write-ahead journal acknowledges a mutation only after the fsync that
// covers it, so a serial ingest path admits at disk-sync rate: N callers,
// N fsyncs. The classical fix — group commit — observes that one fsync
// covers every byte written before it, so N concurrent callers can share
// one. GroupCommitter implements the leader/follower variant: the first
// caller to find no group open becomes the leader of a new one, later
// callers append themselves to the open group, and the leader writes the
// whole group as one multi-record append followed by one fsync, then wakes
// every member. Because groups are written under a serializing lock, a
// group naturally keeps collecting members for as long as the *previous*
// group's fsync is in flight — the disk's own latency is the batching
// window, which is what makes the amortization self-tuning: the slower the
// disk, the bigger the groups.
//
// Two bounds keep the window honest:
//
//   - MaxBatch caps the records per group; a full group is sealed
//     immediately and overflow callers start the next one.
//   - MaxDelay is the Postgres-style commit_delay: a leader that observes
//     company (≥2 members when it reaches the write lock) may stall the
//     sync briefly to let the group fill. A lone caller never waits — the
//     serial path keeps serial latency.
//
// Durability semantics are exactly Append+Sync: Commit returns only after
// the fsync covering the record, errors from the write or the sync fan out
// to every member of the group, and the on-disk format is unchanged (a
// batched write is indistinguishable from serial writes on recovery).
package journal

import (
	"sync"
	"time"
)

// Sink is the journal surface a GroupCommitter drives. *Writer implements
// it; tests substitute gated or failing sinks. The committer guarantees
// that all Sink calls are serialized, so the Sink itself need not be safe
// for concurrent use.
type Sink interface {
	AppendBatch([]Pending) (uint64, error)
	Sync() error
}

// GroupOptions parameterizes a GroupCommitter. The zero value is usable.
type GroupOptions struct {
	// MaxBatch caps the records per commit group (default 64).
	MaxBatch int
	// MaxDelay is how long a leader that observed concurrency may stall
	// its sync to let the group fill. Zero defaults to 500µs; negative
	// disables the stall entirely (groups still form during fsyncs).
	MaxDelay time.Duration
}

func (o GroupOptions) withDefaults() GroupOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 500 * time.Microsecond
	}
	return o
}

// GroupStats counts the committer's amortization. Records/Syncs is the
// figure of merit: 1.0 means no batching (serial behaviour), higher means
// that many admissions per disk sync.
type GroupStats struct {
	// Records is the number of records acknowledged (durably committed).
	Records uint64 `json:"records"`
	// Syncs is the number of fsyncs issued for those records.
	Syncs uint64 `json:"syncs"`
	// Groups is the number of commit groups written (== Syncs unless a
	// group failed).
	Groups uint64 `json:"groups"`
	// MaxGroup is the largest group observed.
	MaxGroup int `json:"max_group"`
	// Stalls counts groups whose leader delayed the sync (the MaxDelay
	// window) to let the group fill — syncs deliberately held back.
	Stalls uint64 `json:"stalls"`
	// Sealed counts groups closed early by hitting MaxBatch — demand
	// exceeded the batch bound and overflow callers waited for the next
	// group.
	Sealed uint64 `json:"sealed"`
	// Errors counts groups whose write or sync failed (the failure was
	// fanned out to every member).
	Errors uint64 `json:"errors"`
}

// RecordsPerSync returns the amortization ratio (0 when nothing synced).
func (s GroupStats) RecordsPerSync() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Syncs)
}

// commitGroup is one in-flight batch. Members learn their fate through
// done; first+position is their assigned index.
type commitGroup struct {
	recs   []Pending
	full   chan struct{} // closed when MaxBatch is reached (wakes a stalling leader)
	done   chan struct{} // closed after the covering sync (or its failure)
	first  uint64
	err    error
	sealed bool // no longer accepting members
}

// GroupCommitter coalesces concurrent Commit calls into shared
// multi-record writes and fsyncs. Safe for concurrent use; a lone caller
// degenerates to plain Append+Sync with no added latency.
type GroupCommitter struct {
	sink Sink
	opt  GroupOptions

	// writeMu serializes group writes: append order == index order ==
	// wake-up order. Holding it across AppendBatch+Sync is what turns the
	// previous group's fsync into the next group's collection window.
	writeMu sync.Mutex

	mu     sync.Mutex // guards open, closed, stats
	open   *commitGroup
	closed bool
	stats  GroupStats
}

// NewGroupCommitter wraps sink. The committer owns all append/sync access
// to the sink from then on; callers must not touch it concurrently except
// through the committer (or after Flush, from the committer's goroutine
// discipline — see Store).
func NewGroupCommitter(sink Sink, opt GroupOptions) *GroupCommitter {
	return &GroupCommitter{sink: sink, opt: opt.withDefaults()}
}

// Stats returns a snapshot of the amortization counters.
func (g *GroupCommitter) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Commit appends one record and returns after the fsync covering it — the
// concurrent equivalent of Append+Sync. The returned index is the
// record's journal position. Concurrent callers share writes and syncs;
// any write/sync error is delivered to every caller of the failed group.
func (g *GroupCommitter) Commit(t Type, payload []byte) (uint64, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrClosed
	}
	if grp := g.open; grp != nil {
		// Follower: join the open group and wait for its leader's sync.
		pos := len(grp.recs)
		grp.recs = append(grp.recs, Pending{Type: t, Payload: payload})
		if len(grp.recs) >= g.opt.MaxBatch {
			grp.sealed = true
			g.open = nil
			g.stats.Sealed++
			close(grp.full)
		}
		g.mu.Unlock()
		<-grp.done
		if grp.err != nil {
			return 0, grp.err
		}
		return grp.first + uint64(pos), nil
	}
	// Leader: open a group, then queue for the write lock. Followers keep
	// joining while the previous group's fsync runs.
	grp := &commitGroup{
		recs: append(make([]Pending, 0, 4), Pending{Type: t, Payload: payload}),
		full: make(chan struct{}),
		done: make(chan struct{}),
	}
	g.open = grp
	g.mu.Unlock()

	g.writeMu.Lock()
	err := g.lead(grp)
	if err != nil {
		return 0, err
	}
	return grp.first, nil // the leader holds position 0
}

// lead runs the leader's half of a group commit with writeMu held:
// optional fill stall, seal, one multi-record write, one sync, fan-out.
// A panic out of the sink (the crash-point sweep kills the process inside
// the fsync hook) still releases the members and the lock before it
// propagates, so an in-process "crash" cannot strand followers.
func (g *GroupCommitter) lead(grp *commitGroup) error {
	completed := false
	defer func() {
		if !completed { // panicking out of the sink
			grp.err = ErrClosed
			close(grp.done)
			g.writeMu.Unlock()
		}
	}()

	// The commit_delay stall: only when the group already has company —
	// a lone caller commits immediately, so the serial path pays nothing.
	g.mu.Lock()
	stall := !grp.sealed && len(grp.recs) > 1 && g.opt.MaxDelay > 0
	if stall {
		g.stats.Stalls++
	}
	g.mu.Unlock()
	if stall {
		timer := time.NewTimer(g.opt.MaxDelay)
		select {
		case <-grp.full:
		case <-timer.C:
		}
		timer.Stop()
	}

	// Seal: no members may join once the write starts.
	g.mu.Lock()
	if g.open == grp {
		grp.sealed = true
		g.open = nil
	}
	recs := grp.recs
	g.mu.Unlock()

	first, err := g.sink.AppendBatch(recs)
	if err == nil {
		err = g.sink.Sync()
	}

	g.mu.Lock()
	g.stats.Groups++
	if err == nil {
		g.stats.Syncs++
		g.stats.Records += uint64(len(recs))
		if len(recs) > g.stats.MaxGroup {
			g.stats.MaxGroup = len(recs)
		}
	} else {
		g.stats.Errors++
	}
	g.mu.Unlock()

	grp.first, grp.err = first, err
	completed = true
	close(grp.done)
	g.writeMu.Unlock()
	return err
}

// CommitAll appends the whole slice as one group of its own — one
// multi-record write, one covering fsync — and returns the index of the
// first record (record i carries first+i). It does not merge with
// concurrent Commit groups; the batch drain of an admission queue is
// already a formed group, so there is nothing to wait for. Group size is
// caller-bounded: CommitAll ignores MaxBatch.
func (g *GroupCommitter) CommitAll(recs []Pending) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrClosed
	}
	g.mu.Unlock()

	g.writeMu.Lock()
	first, err := g.sink.AppendBatch(recs)
	if err == nil {
		err = g.sink.Sync()
	}
	g.mu.Lock()
	g.stats.Groups++
	if err == nil {
		g.stats.Syncs++
		g.stats.Records += uint64(len(recs))
		if len(recs) > g.stats.MaxGroup {
			g.stats.MaxGroup = len(recs)
		}
	} else {
		g.stats.Errors++
	}
	g.mu.Unlock()
	g.writeMu.Unlock()
	if err != nil {
		return 0, err
	}
	return first, nil
}

// Flush waits until every group that exists right now has been written
// and synced (or failed). New Commit calls may still arrive; a drained
// shutdown bars the door first (cluster.Server.Shutdown), making Flush the
// "no acknowledged-pending records" guarantee before the journal closes.
func (g *GroupCommitter) Flush() error {
	g.mu.Lock()
	grp := g.open
	g.mu.Unlock()
	if grp != nil {
		<-grp.done
		if grp.err != nil {
			return grp.err
		}
	}
	// Sealed-but-writing groups finish under writeMu.
	g.writeMu.Lock()
	g.writeMu.Unlock() //nolint:staticcheck // empty critical section IS the barrier
	return nil
}

// Close rejects further Commits and flushes everything in flight. It does
// NOT close the underlying sink — the owner does, after Close returns.
func (g *GroupCommitter) Close() error {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	return g.Flush()
}
