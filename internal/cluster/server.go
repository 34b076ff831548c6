package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nprt/internal/journal"
	"nprt/internal/runtime"
	"nprt/internal/serve"
	"nprt/internal/task"
)

// Server is the HTTP control plane over a cluster — at any width, a single
// node included (a one-shard cluster). Each shard's store is owned by one
// engine goroutine, fed through its own bounded queue; the handlers only
// touch published snapshots and the queues. The handler routes every event
// to its shard at the door (placement policy for adds, partition map for
// removes), so N independent engines journal, group-commit and fsync
// concurrently — the parallelism the sharding exists to buy — while the
// router's mutex only covers the microseconds of placement itself.
//
// Queueing contract per shard: a full queue sheds with 503 + Retry-After
// at the door, and everything accepted is applied before the engine exits
// (drain-on-shutdown), so there is no accepted-then-dropped window.
type Server struct {
	opt ServeOptions
	c   *Cluster

	mu       sync.Mutex // guards draining and the accept/drain race
	draining bool

	queues []chan sticket
	rows   []atomic.Pointer[ShardRow]
	ctls   []*serve.QueueCtl // per-shard drain-rate + adaptive admission

	// opStart[si] is the wall-clock nanos when shard si's engine entered
	// its current store op (0 while idle) — the watchdog's heartbeat. An
	// engine stuck inside ONE op (a device that neither errors nor
	// returns) never trips the error-driven health machine; the watchdog
	// flags it Slow from outside.
	opStart []atomic.Int64

	ready       atomic.Bool
	stop        chan struct{}
	enginesDone sync.WaitGroup
	fatal       chan error

	admitted     atomic.Uint64
	rejected     atomic.Uint64
	shedCount    atomic.Uint64
	deadlineShed atomic.Uint64
	codelShed    atomic.Uint64
	lastErr      atomic.Pointer[string]
}

// ServeOptions parameterizes NewServer.
type ServeOptions struct {
	// QueueDepth bounds each shard's admission queue, in events
	// (default 256 — a cluster queue slot is one event, not one request).
	QueueDepth int
	// RequestTimeout bounds how long a handler waits for engine replies
	// (default 5s).
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with every 503 (default 1s).
	RetryAfter time.Duration
	// EpochInterval, when positive, has every shard engine run epochs on a
	// timer. Zero disables automatic epochs.
	EpochInterval time.Duration
	// CheckpointEvery checkpoints a shard after every Nth of its epochs
	// (0 = never). Shard 0 also snapshots the router meta state.
	CheckpointEvery int
	// MaxBatchEvents caps /admit/batch (default 256).
	MaxBatchEvents int
	// CoDelTarget/CoDelInterval arm per-shard CoDel-style adaptive queue
	// control (see serve.QueueCtl): once a shard queue's sojourn stands
	// above the target for the interval (default 100ms), new arrivals for
	// it are shed with sqrt-spaced pacing. A zero target disables it;
	// deadline sheds and drain-rate hints need only the rate estimate.
	CoDelTarget   time.Duration
	CoDelInterval time.Duration
	// StuckOpAfter, when positive, arms the per-shard watchdog: an engine
	// goroutine inside a single store op longer than this is flagged Slow
	// via Cluster.NoteStuck (0 = watchdog off).
	StuckOpAfter time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBatchEvents <= 0 {
		o.MaxBatchEvents = 256
	}
	return o
}

// sticket is one routed event in flight to a shard engine. Broadcast
// events put one sticket on every queue, sharing a reply channel buffered
// for all of them.
type sticket struct {
	ev    runtime.Event
	tk    ticket
	pos   int // caller's slot, echoed in the reply
	reply chan sreply
	enq   time.Time // when the sticket entered the shard queue
}

// sreply is one engine's answer for one sticket.
type sreply struct {
	pos   int
	shard int
	dec   runtime.Decision
	err   error // per-event (stale) or fatal store error
	fatal bool
}

// ShardRow is one shard's slice of /state, published atomically by its
// engine so readers never touch the store.
type ShardRow struct {
	Shard         int     `json:"shard"`
	Epoch         int64   `json:"epoch"`
	Digest        string  `json:"digest"`
	Tasks         int     `json:"tasks"`
	UtilAccurate  float64 `json:"util_accurate"`
	EventsApplied uint64  `json:"events_applied"`
	WALIndex      uint64  `json:"wal_index"`
	MaxSeq        uint64  `json:"max_seq"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`

	// Health is the shard's containment state (health.go): state name,
	// consecutive/lifetime error counts, reopen and re-image counts, and
	// the most recent error string.
	Health ShardHealth `json:"health"`

	// PrimarySlot and Replicas surface the failover state (replica.go):
	// which slot directory currently serves the partition, and each
	// follower's sync state. Replicas is absent when replication is off.
	PrimarySlot int           `json:"primary_slot"`
	Replicas    []ReplicaInfo `json:"replicas,omitempty"`

	// WALP99Ms is the shard's windowed WAL p99 sojourn in milliseconds
	// (0 when latency tracking is off); QueueWaitMs / DrainPerSec are the
	// shard queue's last observed sojourn and measured drain rate.
	WALP99Ms    float64 `json:"wal_p99_ms,omitempty"`
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	DrainPerSec float64 `json:"drain_per_sec,omitempty"`

	Commit *CommitState `json:"commit,omitempty"`

	digest uint64 // Digest as a number, for the cluster fold
}

// CommitState is the group-commit amortization view on /state: the shard
// journal's counters plus the derived records-per-sync ratio.
type CommitState struct {
	journal.GroupStats
	RecordsPerSync float64 `json:"records_per_sync"`
}

// ClusterState is the /state document: aggregated router counters plus one
// row per shard.
type ClusterState struct {
	Ready     bool   `json:"ready"`
	Draining  bool   `json:"draining"`
	Shards    int    `json:"shards"`
	Placement string `json:"placement"`
	Epoch     int64  `json:"epoch"` // cluster clock: min shard epoch
	Tasks     int    `json:"tasks"` // partition-map size
	Pending   int    `json:"pending"`
	RR        uint64 `json:"rr"`
	Seq       uint64 `json:"seq"`

	// Digest is the cluster's run identity (foldDigests over the shard
	// rows: a one-shard cluster shows its store's digest); EventsApplied
	// sums the requests the shards have journaled.
	Digest        string `json:"digest"`
	EventsApplied uint64 `json:"events_applied"`

	// FailedShards counts shards currently fenced in the Failed state;
	// their partitions shed (503) until evacuation while the rest serve.
	FailedShards int `json:"failed_shards,omitempty"`
	// SlowShards counts shards currently fenced in the Slow state (over
	// the latency SLO); they serve removes but take no new placements.
	SlowShards int `json:"slow_shards,omitempty"`

	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	LoadShed  uint64 `json:"load_shed"`
	LastError string `json:"last_error,omitempty"`

	// DeadlineShed / CoDelShed break out the enqueue-gate sheds by cause.
	DeadlineShed uint64 `json:"deadline_shed,omitempty"`
	CoDelShed    uint64 `json:"codel_shed,omitempty"`

	PerShard []ShardRow `json:"per_shard"`
}

// NewServer builds the serving layer in the not-ready state; Attach hands
// it the recovered cluster and starts the shard engines.
func NewServer(opt ServeOptions) *Server {
	opt = opt.withDefaults()
	return &Server{
		opt:   opt,
		stop:  make(chan struct{}),
		fatal: make(chan error, 1),
	}
}

// Attach hands the server a recovered cluster, starts one engine per
// shard, and flips readiness. Call exactly once.
func (s *Server) Attach(c *Cluster) {
	s.c = c
	n := len(c.shards)
	s.queues = make([]chan sticket, n)
	s.rows = make([]atomic.Pointer[ShardRow], n)
	s.ctls = make([]*serve.QueueCtl, n)
	s.opStart = make([]atomic.Int64, n)
	for i := 0; i < n; i++ {
		s.queues[i] = make(chan sticket, s.opt.QueueDepth)
		s.ctls[i] = serve.NewQueueCtl(s.opt.CoDelTarget, s.opt.CoDelInterval)
		s.publishShard(i)
		s.enginesDone.Add(1)
		go s.engine(i)
	}
	if s.opt.StuckOpAfter > 0 {
		go s.watchdog()
	}
	s.ready.Store(true)
}

// watchdog periodically scans every shard engine's in-op heartbeat and
// flags the ones stuck inside a single store op. It exits with the server.
func (s *Server) watchdog() {
	period := s.opt.StuckOpAfter / 2
	if period <= 0 {
		period = time.Millisecond
	}
	tk := time.NewTicker(period)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			s.scanStuck(time.Now())
		case <-s.stop:
			return
		}
	}
}

// scanStuck is one watchdog pass (split out for tests): any engine whose
// current op began more than StuckOpAfter ago is reported to the health
// machine as Slow.
func (s *Server) scanStuck(now time.Time) {
	for si := range s.opStart {
		start := s.opStart[si].Load()
		if start == 0 {
			continue
		}
		if stuck := now.Sub(time.Unix(0, start)); stuck > s.opt.StuckOpAfter {
			s.c.NoteStuck(si, fmt.Sprintf("engine stuck in one store op for %v", stuck))
		}
	}
}

// enterOp/leaveOp bracket a shard engine's store ops for the watchdog.
func (s *Server) enterOp(si int) { s.opStart[si].Store(time.Now().UnixNano()) }
func (s *Server) leaveOp(si int) { s.opStart[si].Store(0) }

// Fatal delivers at most one unrecoverable engine error.
func (s *Server) Fatal() <-chan error { return s.fatal }

// Shutdown bars the door, lets every engine drain its queue, and waits.
// The cluster is left open — the caller closes it after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.ready.Store(false)
	if already || s.c == nil {
		return nil
	}
	close(s.stop)
	done := make(chan struct{})
	go func() {
		s.enginesDone.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// engine owns shard si's store: admissions from the queue, timed epochs,
// checkpoints. Router state (mirrors, map, meta journal) is only touched
// under the cluster mutex, in this shard's apply order.
func (s *Server) engine(si int) {
	defer s.enginesDone.Done()
	q := s.queues[si]
	var tick <-chan time.Time
	if s.opt.EpochInterval > 0 {
		tk := time.NewTicker(s.opt.EpochInterval)
		defer tk.Stop()
		tick = tk.C
	}
	epochs := 0
	buf := make([]sticket, 0, cap(q))
	for {
		select {
		case t := <-q:
			if !s.serveBatch(si, s.gather(buf[:0], t, q)) {
				return
			}
		case <-tick:
			s.enterOp(si)
			_, err := s.c.shardEpoch(si)
			s.leaveOp(si)
			s.c.CheckLatency(si) // latency health rides the epoch cadence
			if err != nil {
				if errors.Is(err, ErrShardFailed) {
					// Containment: this shard is fenced and sheds until an
					// operator evacuates it; the other engines keep serving.
					s.logf("shard %d epoch skipped: %v", si, err)
					s.publishShard(si)
					continue
				}
				s.fail(fmt.Errorf("shard %d epoch: %w", si, err))
				return
			}
			epochs++
			if s.opt.CheckpointEvery > 0 && epochs%s.opt.CheckpointEvery == 0 {
				s.enterOp(si)
				_, err := s.c.runShardOp(si, false, func(st *runtime.Store) error {
					_, cerr := st.Checkpoint()
					return cerr
				})
				s.leaveOp(si)
				if err != nil && !errors.Is(err, ErrShardFailed) {
					s.fail(fmt.Errorf("shard %d checkpoint: %w", si, err))
					return
				}
				if si == 0 {
					s.c.mu.Lock()
					err := s.c.snapshotMetaLocked()
					s.c.mu.Unlock()
					if err != nil {
						s.fail(fmt.Errorf("meta snapshot: %w", err))
						return
					}
				}
			}
			s.publishShard(si)
		case <-s.stop:
			for {
				select {
				case t := <-q:
					if !s.serveBatch(si, s.gather(buf[:0], t, q)) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// gather collects one commit group: the waking ticket, everything queued,
// and — only when it has company — a brief yield-spin for the stragglers
// racing this drain (clients resubmitting right after the previous batch's
// replies). A lone ticket commits at once: the serial path keeps serial
// latency.
func (s *Server) gather(batch []sticket, t sticket, q chan sticket) []sticket {
	batch = append(batch, t)
	drain := func() {
		for len(batch) < cap(batch) {
			select {
			case t2 := <-q:
				batch = append(batch, t2)
			default:
				return
			}
		}
	}
	drain()
	if len(batch) == 1 {
		goruntime.Gosched()
		drain()
	}
	if len(batch) > 1 {
		for empty := 0; len(batch) < cap(batch) && empty < 4; {
			before := len(batch)
			goruntime.Gosched()
			drain()
			if len(batch) == before {
				empty++
			} else {
				empty = 0
			}
		}
	}
	return batch
}

// serveBatch applies one gathered batch to shard si under one covering
// fsync — through the containment loop, so a transient journal fault is
// reopened-and-retried and a shard that exhausts its budget fails only
// this partition — reconciles the router (in apply order, under the
// cluster mutex), publishes, then replies. false = a genuinely fatal,
// non-containable failure.
func (s *Server) serveBatch(si int, batch []sticket) bool {
	start := time.Now()
	epoch := s.c.shards[si].Store.Epoch()
	evs := make([]runtime.Event, len(batch))
	for i := range batch {
		evs[i] = batch[i].ev
		evs[i].Epoch = epoch // journaled events replay at the live position
	}
	s.enterOp(si)
	decs, errs, _, err := s.c.shardApplyBatch(si, evs)
	s.leaveOp(si)
	now := time.Now()
	s.ctls[si].Observe(len(batch), now.Sub(start), start.Sub(batch[0].enq), now)
	if err != nil && !errors.Is(err, ErrShardFailed) {
		s.fail(fmt.Errorf("shard %d admit: %w", si, err))
		for i := range batch {
			batch[i].reply <- sreply{pos: batch[i].pos, shard: si, err: err, fatal: true}
		}
		return false
	}
	if err != nil {
		// Partition-scoped containment: this shard's batch failed as a
		// unit. Each event completes as failed (the optimistic router state
		// rolls back; removes stay owned for evacuation) and the client
		// sees a retryable shard failure, not a server death.
		s.logf("shard %d failed, shedding its batch: %v", si, err)
		s.c.mu.Lock()
		for i := range batch {
			if batch[i].tk.op == "overload" {
				continue
			}
			s.c.complete(batch[i].tk, &evs[i], decs[i], err)
		}
		s.c.mu.Unlock()
		s.publishShard(si)
		for i := range batch {
			s.shedCount.Add(1)
			batch[i].reply <- sreply{pos: batch[i].pos, shard: si, err: err}
		}
		return true
	}
	s.c.mu.Lock()
	var cerr error
	for i := range batch {
		if batch[i].tk.op == "overload" {
			continue // broadcasts carry no router state
		}
		if e := s.c.complete(batch[i].tk, &evs[i], decs[i], errs[i]); e != nil && cerr == nil {
			cerr = e
		}
	}
	s.c.mu.Unlock()
	if cerr != nil {
		s.fail(fmt.Errorf("shard %d meta journal: %w", si, cerr))
		for i := range batch {
			batch[i].reply <- sreply{pos: batch[i].pos, shard: si, err: cerr, fatal: true}
		}
		return false
	}
	for i := range batch {
		if batch[i].tk.op == "overload" {
			continue // counted once at route time, not per broadcast leg
		}
		if errs[i] != nil || decs[i].Verdict == runtime.Rejected {
			s.rejected.Add(1)
		} else {
			s.admitted.Add(1)
		}
	}
	s.publishShard(si)
	for i := range batch {
		batch[i].reply <- sreply{pos: batch[i].pos, shard: si, dec: decs[i], err: errs[i]}
	}
	return true
}

// publishShard refreshes shard si's /state row from its engine's view.
func (s *Server) publishShard(si int) {
	sh := s.c.shards[si]
	cs := sh.Store.CommitStats()
	row := &ShardRow{
		Shard:         si,
		Epoch:         sh.Store.Epoch(),
		Digest:        fmt.Sprintf("%016x", sh.Store.Digest()),
		Tasks:         len(sh.Store.Runtime().Tasks()),
		EventsApplied: sh.Store.EventsApplied(),
		WALIndex:      sh.Store.LastIndex(),
		MaxSeq:        sh.Store.MaxSeq(),
		QueueDepth:    len(s.queues[si]),
		QueueCap:      cap(s.queues[si]),
		Commit:        &CommitState{GroupStats: cs, RecordsPerSync: cs.RecordsPerSync()},
		digest:        sh.Store.Digest(),
	}
	if s.ctls != nil {
		row.QueueWaitMs = float64(s.ctls[si].LastSojourn()) / float64(time.Millisecond)
		row.DrainPerSec = s.ctls[si].DrainPerSec()
	}
	row.WALP99Ms = float64(s.c.ShardLatencyP99(si)) / float64(time.Millisecond)
	// Mirror, health, and replica roles are router state: read them under
	// the router lock.
	s.c.mu.Lock()
	row.UtilAccurate = sh.Util(task.Accurate)
	row.Health = s.c.healthLocked(si)
	row.PrimarySlot = s.c.primary[si]
	row.Replicas = s.c.replicaInfoLocked(si)
	s.c.mu.Unlock()
	s.rows[si].Store(row)
}

func (s *Server) fail(err error) {
	s.logf("engine: fatal: %v", err)
	s.ready.Store(false)
	msg := err.Error()
	s.lastErr.Store(&msg)
	select {
	case s.fatal <- err:
	default:
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Snapshot composes the current /state document.
func (s *Server) Snapshot() ClusterState {
	st := ClusterState{Ready: s.ready.Load()}
	s.mu.Lock()
	st.Draining = s.draining
	s.mu.Unlock()
	st.Admitted = s.admitted.Load()
	st.Rejected = s.rejected.Load()
	st.LoadShed = s.shedCount.Load()
	st.DeadlineShed = s.deadlineShed.Load()
	st.CoDelShed = s.codelShed.Load()
	if msg := s.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	if s.c == nil {
		return st
	}
	st.Shards = len(s.c.shards)
	st.Placement = s.c.policy.Name()
	s.c.mu.Lock()
	st.Tasks = len(s.c.owner)
	st.Pending = len(s.c.pending)
	st.RR = s.c.rr
	st.Seq = s.c.seq
	st.FailedShards = s.c.failed
	st.SlowShards = s.c.slow
	s.c.mu.Unlock()
	first := true
	var digests []uint64
	for i := range s.rows {
		p := s.rows[i].Load()
		if p == nil {
			continue
		}
		row := *p                         // the published row is shared: copy before
		row.QueueDepth = len(s.queues[i]) // refreshing the only live field
		st.PerShard = append(st.PerShard, row)
		digests = append(digests, row.digest)
		st.EventsApplied += row.EventsApplied
		if first || row.Epoch < st.Epoch {
			st.Epoch = row.Epoch
			first = false
		}
	}
	st.Digest = fmt.Sprintf("%016x", foldDigests(digests))
	return st
}

// errAdmitDeadline is the serve-layer deadline shed: the predicted queue
// wait at the target shard already exceeds the client's X-Deadline-Ms.
var errAdmitDeadline = errors.New("cluster: predicted queue wait exceeds request deadline")

// errAdmitCoDel is the adaptive shed: the target shard's queue has been
// standing over the CoDel target, and this arrival drew the paced drop.
var errAdmitCoDel = errors.New("cluster: admission queue standing over target")

// errQueueFull is the plain backpressure shed: the target queue is full,
// or the server is draining.
var errQueueFull = errors.New("admission queue full or draining")

// routed is routeIn's answer for one event. Either it was accepted and
// expect replies will arrive on the reply channel, or the router answered
// it itself (synth), or it was shed (shedErr != nil): sick names the
// fenced shard when the shed is partition-scoped (-1 otherwise), and retry
// is the target queue's predicted drain time (0 when unknown).
type routed struct {
	expect  int
	synth   *sreply
	shedErr error
	sick    int
	retry   time.Duration
}

// routeIn routes one decoded event under the router locks and fans it out
// to the shard queues. deadline is the client's propagated budget (0 =
// none): the enqueue gate sheds when the target shard's predicted queue
// wait (measured drain rate × depth) already exceeds it, and the CoDel
// controller may shed while the target queue stands over its target.
func (s *Server) routeIn(ev runtime.Event, pos int, reply chan sreply, deadline time.Duration) routed {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return routed{shedErr: errQueueFull, sick: -1}
	}
	now := time.Now()
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if ev.Op == "overload" {
		// Failed shards are fenced from the fan-out (broadcastLocked skips
		// them too — they rejoin empty after evacuation). Broadcasts carry
		// no deadline gate: they are control events, not client admissions.
		targets := make([]int, 0, len(s.queues))
		for si, q := range s.queues {
			if s.c.health[si].State == Failed {
				continue
			}
			if len(q) == cap(q) {
				return routed{shedErr: errQueueFull, sick: -1, retry: s.ctls[si].PredictWait(len(q))}
			}
			targets = append(targets, si)
		}
		if len(targets) == 0 {
			return routed{shedErr: errQueueFull, sick: -1}
		}
		s.c.stamp(&ev)
		for _, si := range targets {
			s.queues[si] <- sticket{ev: ev, tk: ticket{shard: si, op: "overload"}, pos: pos, reply: reply, enq: now}
		}
		s.admitted.Add(1)
		return routed{expect: len(targets)}
	}
	var gateErr error
	var retry time.Duration
	gate := func(si int) bool {
		depth := len(s.queues[si])
		if depth >= cap(s.queues[si]) {
			gateErr, retry = errQueueFull, s.ctls[si].PredictWait(depth)
			return false
		}
		reason, hint := s.ctls[si].Admit(now, depth, deadline)
		switch reason {
		case "deadline":
			gateErr, retry = errAdmitDeadline, hint
			return false
		case "codel":
			gateErr, retry = errAdmitCoDel, hint
			return false
		}
		return true
	}
	tk, routeShed := s.c.route(&ev, gate)
	if routeShed {
		return routed{shedErr: gateErr, sick: -1, retry: retry}
	}
	if tk.shard < 0 {
		if errors.Is(tk.err, ErrShardFailed) || errors.Is(tk.err, ErrShardSlow) {
			// Partition-scoped load shedding: only events routed to a sick
			// (dead or over-SLO) shard are shed; the rest keep serving.
			return routed{shedErr: tk.err, sick: tk.sick}
		}
		res := synthResult(&ev, tk)
		return routed{synth: &sreply{pos: pos, shard: -1, dec: res.Decision, err: tk.err}}
	}
	// Space was gated above and only lock-holders enqueue, so this send
	// cannot block.
	s.queues[tk.shard] <- sticket{ev: ev, tk: tk, pos: pos, reply: reply, enq: now}
	return routed{expect: 1}
}

// shed accounts one shed event by cause and returns the Retry-After hint
// for it: a fenced shard's containment backoff, else the target queue's
// predicted drain (0 leaves the static RetryAfter option to apply).
func (s *Server) shed(r routed) time.Duration {
	s.shedCount.Add(1)
	switch {
	case r.sick >= 0:
		return s.c.RetryAfterHint(r.sick)
	case errors.Is(r.shedErr, errAdmitDeadline):
		s.deadlineShed.Add(1)
	case errors.Is(r.shedErr, errAdmitCoDel):
		s.codelShed.Add(1)
	}
	return r.retry
}

// Handler returns the control-plane mux:
//
//	GET  /healthz  200 while the process is alive (liveness)
//	GET  /readyz   200 between Attach (recovery done) and Shutdown while
//	               any shard can serve
//	GET  /state    the ClusterState snapshot, JSON
//	POST /admit    an Event {"op": "add"|"remove"|"overload", ...};
//	               200 decision JSON · 400 malformed · 409 stale ·
//	               503 + Retry-After when shedding, saturated or not ready
//	POST /admit/batch  a JSON array of Events (≤ MaxBatchEvents); 200 with
//	               {"decisions": [...]} — one entry per event, in order,
//	               each carrying its decision or its own error
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			s.unavailable(w, "not ready", 0)
			return
		}
		// Per-shard health: ready (200) while ANY shard can serve — failed
		// partitions shed individually — and 503 only when none can.
		healths := s.c.Healths()
		alive := 0
		for _, h := range healths {
			if h.State != Failed {
				alive++
			}
		}
		if alive == 0 {
			s.unavailable(w, "no healthy shards", 0)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ready %d/%d shards serving\n", alive, len(healths))
		// Degraded shards are reported; so are shards serving from a
		// promoted follower — ready, but with reduced redundancy until the
		// demoted drive is re-seeded.
		for i, h := range healths {
			if h.State != Healthy || h.Promotions > 0 {
				fmt.Fprintf(w, "shard %d: %s slot=%d promotions=%d consec_errs=%d last_error=%q\n",
					i, h.StateName, s.c.PrimarySlot(i), h.Promotions, h.ConsecErrs, h.LastError)
			}
		}
	})
	mux.HandleFunc("GET /state", func(w http.ResponseWriter, r *http.Request) {
		st := s.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&st)
	})
	mux.HandleFunc("POST /admit", s.handleAdmit)
	mux.HandleFunc("POST /admit/batch", s.handleAdmitBatch)
	return mux
}

// decisionEntry is one per-event result in an admit response.
type decisionEntry struct {
	Shard    int              `json:"shard"`
	Decision runtime.Decision `json:"decision"`
	Error    string           `json:"error,omitempty"`
}

// deadlineMs parses the X-Deadline-Ms request header (0 when absent or
// malformed — a bad hint must not reject the request itself).
func deadlineMs(r *http.Request) time.Duration {
	ms, err := strconv.Atoi(r.Header.Get("X-Deadline-Ms"))
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// replyWait bounds a handler's wait for the engines: the request timeout,
// tightened to the client's own deadline when one was propagated.
func (s *Server) replyWait(deadline time.Duration) time.Duration {
	if deadline > 0 && deadline < s.opt.RequestTimeout {
		return deadline
	}
	return s.opt.RequestTimeout
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.shedCount.Add(1)
		s.unavailable(w, "not ready", 0)
		return
	}
	// Pooled zero-allocation decode; the event's Task/Overload payloads
	// alias the decoder scratch, so it is recycled only after the engine's
	// reply — and deliberately leaked to the GC on timeout, when an engine
	// may still read it.
	d := serve.GetDecoder()
	evs, err := d.Decode(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		serve.PutDecoder(d)
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding event: %v", err))
		return
	}
	ev := evs[0]
	ev.Epoch = 0 // each shard engine stamps its live epoch
	if err := ev.Validate(); err != nil {
		serve.PutDecoder(d)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	deadline := deadlineMs(r)
	reply := make(chan sreply, len(s.queues))
	rt := s.routeIn(ev, 0, reply, deadline)
	if rt.shedErr != nil {
		serve.PutDecoder(d)
		s.unavailable(w, rt.shedErr.Error(), s.shed(rt))
		return
	}
	if rt.synth != nil {
		serve.PutDecoder(d)
		s.rejected.Add(1)
		writeEntry(w, http.StatusConflict, decisionEntry{Shard: -1, Decision: rt.synth.dec, Error: rt.synth.err.Error()})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.replyWait(deadline))
	defer cancel()
	var got sreply
	for i := 0; i < rt.expect; i++ {
		select {
		case rep := <-reply:
			if rep.fatal {
				serve.PutDecoder(d)
				httpError(w, http.StatusInternalServerError, rep.err.Error())
				return
			}
			if i == 0 {
				got = rep
			}
		case <-ctx.Done():
			// The engine is saturated: the request was accepted and WILL be
			// applied (durably), but this client's wait is over. Shed it
			// with the same 503 + Retry-After contract as the front door,
			// so clients see one overload signal, not two.
			s.shedCount.Add(1)
			s.unavailable(w, "engine saturated; accepted admission still pending", 0)
			return
		}
	}
	serve.PutDecoder(d)
	if errors.Is(got.err, ErrShardFailed) || errors.Is(got.err, ErrShardSlow) {
		// The owning shard exhausted its containment budget (or fell over
		// the latency SLO) mid-request: retryable partition-scoped
		// failure, not a server error.
		s.unavailable(w, got.err.Error(), s.c.RetryAfterHint(got.shard))
		return
	}
	if got.err != nil && !runtime.IsStaleRequest(got.err) {
		httpError(w, http.StatusInternalServerError, got.err.Error())
		return
	}
	status := http.StatusOK
	out := decisionEntry{Shard: got.shard, Decision: got.dec}
	if ev.Op == "overload" {
		out.Shard = -1
	}
	if got.err != nil {
		status = http.StatusConflict
		out.Error = got.err.Error()
	}
	writeEntry(w, status, out)
}

func (s *Server) handleAdmitBatch(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.shedCount.Add(1)
		s.unavailable(w, "not ready", 0)
		return
	}
	var evs []runtime.Event
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&evs); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding events: %v", err))
		return
	}
	if len(evs) > s.opt.MaxBatchEvents {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d events exceeds the %d-event limit", len(evs), s.opt.MaxBatchEvents))
		return
	}
	out := struct {
		Decisions []decisionEntry `json:"decisions"`
	}{Decisions: make([]decisionEntry, len(evs))}
	if len(evs) == 0 {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
		return
	}

	deadline := deadlineMs(r)
	reply := make(chan sreply, len(evs)*len(s.queues))
	expect := 0
	for i := range evs {
		evs[i].Epoch = 0
		if err := evs[i].Validate(); err != nil {
			out.Decisions[i] = decisionEntry{Shard: -1, Decision: runtime.Decision{Op: evs[i].Op}, Error: err.Error()}
			continue
		}
		rt := s.routeIn(evs[i], i, reply, deadline)
		switch {
		case rt.shedErr != nil:
			// A batch sheds per event: the entry names the cause and the
			// backoff the whole-request 503 would have carried.
			hint := s.shed(rt)
			msg := "load shed: " + rt.shedErr.Error()
			if hint > 0 {
				msg += fmt.Sprintf("; retry after %dms", hint.Milliseconds())
			}
			out.Decisions[i] = decisionEntry{Shard: -1, Decision: runtime.Decision{Op: evs[i].Op}, Error: msg}
		case rt.synth != nil:
			s.rejected.Add(1)
			out.Decisions[i] = decisionEntry{Shard: -1, Decision: rt.synth.dec, Error: rt.synth.err.Error()}
		default:
			expect += rt.expect
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.replyWait(deadline))
	defer cancel()
	seen := make(map[int]bool)
	for got := 0; got < expect; got++ {
		select {
		case rep := <-reply:
			if rep.fatal {
				httpError(w, http.StatusInternalServerError, rep.err.Error())
				return
			}
			if seen[rep.pos] {
				continue // later broadcast legs: first reply wins
			}
			seen[rep.pos] = true
			e := decisionEntry{Shard: rep.shard, Decision: rep.dec}
			if evs[rep.pos].Op == "overload" {
				e.Shard = -1
			}
			if rep.err != nil {
				e.Error = rep.err.Error()
			}
			out.Decisions[rep.pos] = e
		case <-ctx.Done():
			s.shedCount.Add(1)
			s.unavailable(w, "engine saturated; accepted batch still pending", 0)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

func writeEntry(w http.ResponseWriter, status int, e decisionEntry) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(e)
}

// unavailable writes a load-shedding 503 with its backoff hint in
// Retry-After and Retry-After-Ms (serve.SetRetryAfter) and in the body's
// retry_after_ms; a hint ≤ 0 falls back to the static RetryAfter option.
func (s *Server) unavailable(w http.ResponseWriter, msg string, hint time.Duration) {
	if hint <= 0 {
		hint = s.opt.RetryAfter
	}
	serve.SetRetryAfter(w.Header(), hint)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]any{"error": msg, "retry_after_ms": hint.Milliseconds()})
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
