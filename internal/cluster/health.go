// Shard health: the failure-containment state machine and the transient-
// error retry loop around every shard store operation.
//
// Failure model. A shard store fails through its journal: an fsync is
// refused, a write tears, the disk fills or wedges. After any such error
// the WAL writer poisons itself (journal.ErrJournalPoisoned) — the only
// legal continuation is a reopen, which re-derives the durable prefix from
// the bytes actually on disk. The router therefore treats every shard
// store error the same way: degrade the shard, reopen it (recovery IS the
// repair path), and retry the operation against the recovered state, with
// bounded exponential backoff and deterministic jitter between attempts.
// A shard that keeps failing past the attempt budget transitions to
// Failed: the router fences it (no placements, no removes, no broadcasts
// reach it) and sheds only the events routed to it — the healthy
// partitions keep serving. A Failed shard leaves that state only through
// EvacuateShard (migrate.go), which drains its tasks to survivors and
// re-images it empty.
//
//	Healthy ──op error──▶ Degraded ──budget exhausted──▶ Failed
//	   ▲                      │                             │
//	   └──────op success──────┘            Healthy ◀── evacuate+re-image
package cluster

import (
	"errors"
	"fmt"
	"time"

	"nprt/internal/rng"
	"nprt/internal/runtime"
	"nprt/internal/task"
)

// HealthState is a shard's position in the containment state machine.
type HealthState uint8

const (
	// Healthy: serving normally.
	Healthy HealthState = iota
	// Degraded: at least one recent op failed; the retry loop is (or was)
	// reopening the store. Still serving — the next success heals it.
	Degraded
	// Failed: the retry budget was exhausted (or the driver declared the
	// shard dead). Fenced from routing until evacuated and re-imaged.
	Failed
	// Slow: the shard serves correctly but its WAL p99 sojourn breached
	// the latency SLO (gray failure), or its engine is stuck inside one op
	// (watchdog). Fenced from placement; existing tasks still served.
	// Cleared by the latency check once p99 recovers or by a proactive
	// promotion away from the slow primary. Appended after Failed so the
	// numeric values of the original states are stable.
	Slow
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	case Slow:
		return "slow"
	}
	return fmt.Sprintf("state%d", uint8(s))
}

// ShardHealth is one shard's containment state, exposed through
// Cluster.Health and the serve layer's /state.
type ShardHealth struct {
	State HealthState `json:"-"`
	// StateName is State rendered for JSON consumers (loadgen, /state).
	StateName string `json:"state"`
	// ConsecErrs counts consecutive failed ops (reset on success).
	ConsecErrs int `json:"consec_errs,omitempty"`
	// TotalErrs counts lifetime failed ops.
	TotalErrs uint64 `json:"total_errs,omitempty"`
	// Reopens counts store reopen-recoveries the retry loop performed.
	Reopens uint64 `json:"reopens,omitempty"`
	// Reimages counts evacuate-and-re-image cycles.
	Reimages uint64 `json:"reimages,omitempty"`
	// Promotions counts follower promotions (failovers) on this shard.
	Promotions uint64 `json:"promotions,omitempty"`
	// ReplicaDemotions counts followers dropped out of sync (ship
	// failures, digest divergence, failover demotions of old primaries);
	// ReplicaReseeds counts followers rebuilt back into sync.
	ReplicaDemotions uint64 `json:"replica_demotions,omitempty"`
	ReplicaReseeds   uint64 `json:"replica_reseeds,omitempty"`
	// SlowEvents counts latency-SLO breaches (and watchdog triggers) that
	// transitioned the shard into Slow.
	SlowEvents uint64 `json:"slow_events,omitempty"`
	// DeadlineSheds counts events shed at routing because the shard was
	// Slow and the cluster's admit deadline could not be met.
	DeadlineSheds uint64 `json:"deadline_sheds,omitempty"`
	// LatencyP99Ms is the last evaluated WAL p99 sojourn in milliseconds
	// (0 until the latency tracker has enough samples).
	LatencyP99Ms float64 `json:"latency_p99_ms,omitempty"`
	// LastError is the most recent op error, "" when none.
	LastError string `json:"last_error,omitempty"`
}

// ErrShardFailed reports that an event was routed to (or an operation
// targeted) a shard in the Failed state. The serve layer maps it to
// partition-scoped load shedding: 503 + Retry-After for this event only.
var ErrShardFailed = errors.New("cluster: shard failed")

// ErrShardSlow reports that an event targeting a Slow shard was shed
// because the cluster's admit deadline could not be met at the shard's
// current latency. Like ErrShardFailed, the serve layer maps it to a
// partition-scoped 503 — but the shard is alive, so Retry-After hints at
// the promotion/recovery horizon rather than evacuation.
var ErrShardSlow = errors.New("cluster: shard over latency SLO")

// RetryOptions bounds the transient-failure containment loop.
type RetryOptions struct {
	// MaxAttempts is the total tries per shard op before the shard is
	// declared Failed (default 4: one try + three reopen-retries).
	MaxAttempts int
	// BackoffBase/BackoffCap bound the exponential backoff between
	// attempts (defaults 5ms / 250ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed keys the deterministic jitter (pure in seed, shard, attempt).
	Seed uint64
	// Sleep is the delay function; injectable so deterministic soaks spend
	// no wall-clock. Defaults to time.Sleep.
	Sleep func(time.Duration)
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 250 * time.Millisecond
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// delay computes the backoff before retry `attempt` (1-based): exponential
// from BackoffBase, capped, with deterministic jitter in [50%, 100%] keyed
// by (seed, shard, attempt) — the same pure-in-index discipline as every
// other random draw in the system.
func (o RetryOptions) delay(shard, attempt int) time.Duration {
	d := o.BackoffBase
	for i := 1; i < attempt && d < o.BackoffCap; i++ {
		d *= 2
	}
	if d > o.BackoffCap {
		d = o.BackoffCap
	}
	key := o.Seed ^ uint64(shard+1)*0x9e3779b97f4a7c15 ^ uint64(attempt)*0xd1b54a32d192ed03
	j := rng.New(key).Float64() // [0, 1)
	return d/2 + time.Duration(float64(d/2)*j)
}

// Health returns shard si's containment state.
func (c *Cluster) Health(si int) ShardHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthLocked(si)
}

// Healths returns every shard's containment state, by shard index.
func (c *Cluster) Healths() []ShardHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardHealth, len(c.health))
	for i := range c.health {
		out[i] = c.healthLocked(i)
	}
	return out
}

func (c *Cluster) healthLocked(si int) ShardHealth {
	h := c.health[si]
	h.StateName = h.State.String()
	return h
}

// setHealthStateLocked transitions shard si to state s, maintaining the
// fenced-shard counters (c.failed, c.slow) that route() consults. The only
// legal way to change a shard's State field.
func (c *Cluster) setHealthStateLocked(si int, s HealthState) {
	h := &c.health[si]
	if h.State == s {
		return
	}
	switch h.State {
	case Failed:
		c.failed--
	case Slow:
		c.slow--
	}
	switch s {
	case Failed:
		c.failed++
	case Slow:
		c.slow++
	}
	h.State = s
}

// FailShard declares shard si Failed without consuming the retry budget —
// the driver-side path for a failure detected outside an op (the chaos
// soak wedging a device it owns, or an operator decision). Idempotent.
func (c *Cluster) FailShard(si int, cause string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setHealthStateLocked(si, Failed)
	c.health[si].LastError = cause
}

// NoteStuck flags shard si as Slow from outside the op path — the serve
// layer's per-shard watchdog calls it when an engine goroutine has been
// inside a single store op longer than its stuck threshold. Idempotent
// while already Slow or Failed.
func (c *Cluster) NoteStuck(si int, cause string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := &c.health[si]
	if h.State != Healthy && h.State != Degraded {
		return
	}
	c.setHealthStateLocked(si, Slow)
	h.SlowEvents++
	h.LastError = cause
}

// runShardOp drives one store operation through the containment loop:
// run the op; on error, degrade the shard, reopen its store (recovery is
// the repair — torn tails truncate, poisoned writers are replaced), back
// off with deterministic jitter, and retry the op against the recovered
// state. Exhausting MaxAttempts marks the shard Failed and returns
// ErrShardFailed (wrapped around the last cause).
//
// locked says the caller already holds c.mu (the serial Apply path and
// migration handoffs); the batch/epoch paths run unlocked so independent
// shards retry concurrently. rebuilt reports that at least one reopen
// happened — the shard's mirror was re-derived from recovered state, so
// the caller's optimistic mirror deltas may have been discarded (complete
// reconciles by membership, not by memory, for exactly this reason).
func (c *Cluster) runShardOp(si int, locked bool, op func(st *runtime.Store) error) (rebuilt bool, err error) {
	lock := func() {
		if !locked {
			c.mu.Lock()
		}
	}
	unlock := func() {
		if !locked {
			c.mu.Unlock()
		}
	}
	lock()
	if c.health[si].State == Failed {
		cause := c.health[si].LastError
		unlock()
		return false, fmt.Errorf("%w: shard %d: %s", ErrShardFailed, si, cause)
	}
	ro := c.retry
	unlock()

	for attempt := 1; ; attempt++ {
		err = nil
		if attempt > 1 {
			if rerr := c.reopenShard(si, locked); rerr != nil {
				err = fmt.Errorf("shard %d reopen: %w", si, rerr)
			} else {
				rebuilt = true
			}
		}
		if err == nil {
			lock()
			st := c.shards[si].Store
			unlock()
			err = op(st)
		}
		lock()
		h := &c.health[si]
		if err == nil {
			h.ConsecErrs = 0
			// Slow is NOT healed here: op success says nothing about
			// latency; only the latency check (p99 back under SLO, or a
			// promotion away from the slow device) clears it.
			if h.State == Degraded {
				c.setHealthStateLocked(si, Healthy)
			}
			if rebuilt {
				c.rebuildMirrorLocked(si)
			}
			// Synchronous replication: the op is not acknowledged until
			// every in-sync follower holds its bytes (acked ⇒ shipped, the
			// failover's exactly-once invariant). Ship failures demote the
			// follower, never the op.
			c.shipShardLocked(si)
			unlock()
			return rebuilt, nil
		}
		h.ConsecErrs++
		h.TotalErrs++
		h.LastError = err.Error()
		if h.State == Healthy || h.State == Slow {
			c.setHealthStateLocked(si, Degraded)
		}
		if attempt >= ro.MaxAttempts {
			// Before declaring the shard Failed, try failover: promote an
			// in-sync follower and retry the op against it with a fresh
			// budget. The promoted store holds exactly the acked prefix, so
			// the retry falls under the same MaxSeq dedup guard as any
			// reopen retry.
			if c.promoteShardLocked(si) {
				rebuilt = true
				attempt = 0
				unlock()
				continue
			}
			c.setHealthStateLocked(si, Failed)
			if rebuilt {
				c.rebuildMirrorLocked(si)
			}
			unlock()
			return rebuilt, fmt.Errorf("%w: shard %d after %d attempt(s): %v", ErrShardFailed, si, attempt, err)
		}
		unlock()
		ro.Sleep(ro.delay(si, attempt))
	}
}

// reopenShard replaces shard si's store with a fresh recovery of its
// directory. The old writer is closed first (two appenders on one WAL
// would be corruption, and its close error is exactly what brought us
// here); if the reopen itself fails the old store object stays in place —
// closed for writes, but its in-memory runtime still answers reads — and
// the retry loop will try again.
func (c *Cluster) reopenShard(si int, locked bool) error {
	if !locked {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	sh := c.shards[si]
	if !sh.closed {
		sh.Store.Close() // error already accounted by the failed op
		sh.closed = true
	}
	st, err := runtime.OpenStore(c.primaryDir(si), c.shardStoreOptions(si))
	if err != nil {
		return err
	}
	sh.Store, sh.closed = st, false
	c.health[si].Reopens++
	return nil
}

// rebuildMirrorLocked re-derives shard si's feasibility mirror from its
// store's (recovered) task set — the post-reopen resync.
func (c *Cluster) rebuildMirrorLocked(si int) {
	specs := c.shards[si].Store.Runtime().Tasks()
	tasks := make([]task.Task, len(specs))
	for j := range specs {
		tasks[j] = specs[j].Task
	}
	c.shards[si].inc.Reset(tasks)
}

// CrashShard simulates a shard process kill and restart at a quiescent
// boundary: the store is closed and re-recovered from disk — checkpoint
// plus WAL replay, exactly the path a real restart takes. Deterministic
// chaos drivers call it at tick boundaries (where every acked write is on
// disk), so serial and batched drives see identical recoveries.
func (c *Cluster) CrashShard(si int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.reopenShard(si, true); err != nil {
		return fmt.Errorf("cluster: crash-restart shard %d: %w", si, err)
	}
	c.rebuildMirrorLocked(si)
	return nil
}

// synthRecovered answers an event that is already durable on st: it was
// journaled by an attempt whose "failed" sync had in fact landed the bytes
// (fsyncgate ambiguity), and the reopen replayed it. Re-applying would
// double it in the WAL, so the decision is reconstructed from recovered
// state instead — the same answer replay itself settled on.
func synthRecovered(st *runtime.Store, ev *runtime.Event) runtime.Decision {
	switch ev.Op {
	case "add":
		name := ev.Task.Task.Name
		d := runtime.Decision{Op: "add", Task: name, Reason: "recovered during shard retry"}
		for _, sp := range st.Runtime().Tasks() {
			if sp.Task.Name == name {
				d.Verdict = runtime.Admitted
				return d
			}
		}
		d.Verdict = runtime.Rejected
		return d
	case "remove":
		return runtime.Decision{Op: "remove", Task: ev.Name, Verdict: runtime.Admitted,
			Reason: "recovered during shard retry"}
	default:
		return runtime.Decision{Op: ev.Op, Verdict: runtime.Admitted,
			Reason: "recovered during shard retry"}
	}
}

// shardApplyBatch is Store.ApplyBatch under the containment loop, with the
// already-durable dedup guard: on a retry after reopen, events the
// recovered store already holds (their batch's sync "failed" after the
// bytes landed, or a torn write kept a prefix) are answered from recovered
// state; only the genuinely missing suffix is re-applied. Returns the
// per-event decisions and (validation or stale-request) errors, whether a
// reopen happened, and the fatal error. locked is runShardOp's: the caller
// already holds c.mu.
//
// The guard is consulted only on RETRY attempts. On the first attempt no
// event of the batch can be durable yet, and the Seq-vs-MaxSeq test is not
// a membership test: a migration handoff stamps the moved add with a fresh
// router sequence, which can push the target's MaxSeq far past events
// still in flight from older stamps — deduping those on arrival would
// swallow them whole. After a reopen the test is sound, because the only
// records in question are the ones this very op just tried to append.
func (c *Cluster) shardApplyBatch(si int, locked bool, evs []runtime.Event) ([]runtime.Decision, []error, bool, error) {
	decs := make([]runtime.Decision, len(evs))
	errs := make([]error, len(evs))
	tried := false
	rebuilt, err := c.runShardOp(si, locked, func(st *runtime.Store) error {
		pend := make([]runtime.Event, 0, len(evs))
		pendIdx := make([]int, 0, len(evs))
		max := st.MaxSeq()
		for i := range evs {
			if tried && evs[i].Seq != 0 && evs[i].Seq <= max {
				decs[i], errs[i] = synthRecovered(st, &evs[i]), nil
				continue
			}
			pend = append(pend, evs[i])
			pendIdx = append(pendIdx, i)
		}
		tried = true
		if len(pend) == 0 {
			return nil
		}
		d, e, fatal := st.ApplyBatch(pend)
		if fatal != nil {
			return fatal
		}
		for j, i := range pendIdx {
			decs[i], errs[i] = d[j], e[j]
		}
		return nil
	})
	return decs, errs, rebuilt, err
}

// shardEpoch is Store.RunEpoch under the containment loop. The target
// epoch is captured on the first attempt: if a retry's recovered store is
// already there, the epoch record landed despite the reported failure and
// replay has re-run it — synthesize the report instead of running it
// twice.
func (c *Cluster) shardEpoch(si int) (runtime.EpochReport, error) {
	var rep runtime.EpochReport
	want := int64(-1)
	_, err := c.runShardOp(si, false, func(st *runtime.Store) error {
		if want < 0 {
			want = st.Epoch() + 1
		}
		if st.Epoch() >= want {
			rep = runtime.EpochReport{Epoch: st.Epoch()}
			return nil
		}
		r, rerr := st.RunEpoch()
		if rerr != nil {
			return rerr
		}
		rep = r
		return nil
	})
	return rep, err
}
