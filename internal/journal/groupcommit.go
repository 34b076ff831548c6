// Group commit: one multi-record write and one covering fsync per batch.
//
// A write-ahead journal acknowledges a mutation only after the fsync that
// covers it, so a store that syncs per record admits at disk-sync rate.
// One fsync covers every byte written before it, so a batch of N records
// written together needs one sync, not N. GroupCommitter is that write:
// CommitAll appends the caller's batch as one multi-record append followed
// by one fsync, and counts the amortization.
//
// The committer does not form batches itself. Each store has a single
// owner at a time — its shard's engine goroutine in serve mode, the
// cluster router otherwise — and the owner hands over whole batches (a
// caller's ApplyBatch slice, or what the serve-mode engine's gather
// collected), so there are no concurrent callers to merge.
//
// Durability semantics are exactly AppendBatch+Sync: CommitAll returns only
// after the fsync covering the batch, and the on-disk format is unchanged
// (a batched write is indistinguishable from serial writes on recovery).
package journal

// Sink is the journal surface a GroupCommitter drives. *Writer implements
// it; tests substitute failing sinks.
type Sink interface {
	AppendBatch([]Pending) (uint64, error)
	Sync() error
}

// GroupOptions parameterizes a GroupCommitter. It has no fields; it stays
// only because the benchmark in perfbench/ constructs one, and goes with
// the next change to that benchmark.
type GroupOptions struct{}

// GroupStats counts the committer's amortization. Records/Syncs is the
// figure of merit: 1.0 means one sync per record, higher means that many
// admissions per disk sync.
type GroupStats struct {
	// Records is the number of records acknowledged (durably committed).
	Records uint64 `json:"records"`
	// Syncs is the number of fsyncs issued for those records.
	Syncs uint64 `json:"syncs"`
	// Groups is the number of batches written (== Syncs unless a batch
	// failed).
	Groups uint64 `json:"groups"`
	// MaxGroup is the largest batch observed.
	MaxGroup int `json:"max_group"`
	// Stalls is always 0: the committer never delays a sync. It stays
	// only because the benchmark in perfbench/ reads it, and goes with the
	// next change to that benchmark.
	Stalls uint64 `json:"stalls"`
	// Errors counts batches whose write or sync failed.
	Errors uint64 `json:"errors"`
}

// RecordsPerSync returns the amortization ratio (0 when nothing synced).
func (s GroupStats) RecordsPerSync() float64 {
	if s.Syncs == 0 {
		return 0
	}
	return float64(s.Records) / float64(s.Syncs)
}

// GroupCommitter writes caller-formed batches, one fsync each. Like the
// Writer and the Store that own it, it has a single owner and is not safe
// for concurrent use.
type GroupCommitter struct {
	sink   Sink
	closed bool
	stats  GroupStats
}

// NewGroupCommitter wraps sink. The committer owns all append/sync access
// to the sink from then on.
func NewGroupCommitter(sink Sink, _ GroupOptions) *GroupCommitter {
	return &GroupCommitter{sink: sink}
}

// Stats returns a snapshot of the amortization counters.
func (g *GroupCommitter) Stats() GroupStats { return g.stats }

// CommitAll appends the whole slice as one multi-record write followed by
// one covering fsync, and returns the index of the first record (record i
// carries first+i). An empty slice writes nothing.
func (g *GroupCommitter) CommitAll(recs []Pending) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if g.closed {
		return 0, ErrClosed
	}
	first, err := g.sink.AppendBatch(recs)
	if err == nil {
		err = g.sink.Sync()
	}
	g.stats.Groups++
	if err != nil {
		g.stats.Errors++
		return 0, err
	}
	g.stats.Syncs++
	g.stats.Records += uint64(len(recs))
	g.stats.MaxGroup = max(g.stats.MaxGroup, len(recs))
	return first, nil
}

// Close rejects further commits. Every CommitAll has already synced before
// returning, so nothing is left to flush. It does NOT close the underlying
// sink — the owner does, after Close returns.
func (g *GroupCommitter) Close() error {
	g.closed = true
	return nil
}
