// Package cluster partitions the scheduler across N durable shard runtimes
// behind a placement-aware router. Each shard is a full runtime.Store — its
// own WAL, checkpoints, guarded EDF+ESR engine — so the cluster's admission
// capacity and journal bandwidth scale with the shard count while every
// per-shard guarantee (zero clean misses, crash-only recovery, digest
// determinism) is inherited unchanged.
//
// The router owns three pieces of state the shards cannot see:
//
//   - the partition map (task name → shard), which makes removes routable
//     and add names cluster-unique;
//   - a per-shard incremental Theorem-1 mirror (feasibility.Incremental)
//     that placement policies probe without touching the shards; and
//   - the cluster sequence counter, stamped into every routed event
//     (Event.Seq) before it reaches a shard WAL.
//
// Durability of the router state is write-behind: placements are journaled
// to a meta log *after* the shard admission they describe is durable, so a
// crash between the two leaves a task that is live on a shard but missing
// from the map — recovery reconciles by adopting it (the shard state is
// authoritative; the map is an index, never the truth). The sequence
// counter needs no log of its own: each shard persists the maximum Seq it
// has journaled (Store.MaxSeq), and because the serial router makes event
// n durable before stamping n+1, max over shards of MaxSeq is exactly the
// durable prefix of the event sequence — the cluster's tape cursor.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nprt/internal/feasibility"
	"nprt/internal/journal"
	"nprt/internal/runtime"
	"nprt/internal/task"
)

// Shard is one partition: a durable store plus the router's incremental
// feasibility mirror of its admitted set. The mirror is rebuilt from the
// store on open and maintained by the router on every admission result, so
// placement probes never touch the shard itself.
type Shard struct {
	ID    int
	Store *runtime.Store
	// inc is the router's mirror of the shard's resident set, probed
	// before the shard applies an event. The shard runtime screens the
	// commit on its own curve of the same type (runtime.Runtime.Add).
	inc *feasibility.Incremental

	// closed marks the Store's writer as closed (reopen in progress or
	// permanently failed); guards against double-close in the retry loop.
	closed bool
}

// Probe asks the router's mirror whether c fits this shard, in the
// accurate and deepest-imprecise profiles (verdict-identical to a full
// feasibility.Profiles over the mirrored set plus c). It only suggests: the
// shard's own screen decides when the event applies.
func (s *Shard) Probe(c *task.Task) (accurateOK, deepestOK bool) { return s.inc.Probe(c) }

// Util returns the mirror's utilization in mode m.
func (s *Shard) Util(m task.Mode) float64 { return s.inc.Utilization(m) }

// Resident returns the mirror's task count.
func (s *Shard) Resident() int { return s.inc.Len() }

// Options parameterizes Open.
type Options struct {
	// Shards is the partition count (default 1). Reopening a directory with
	// fewer shards than it holds is refused — tasks would be stranded.
	Shards int
	// Placement names the policy (see ParsePolicy; default first-fit).
	Placement string
	// Store is the per-shard store template. Runtime.Seed is decorrelated
	// per shard; NoSync/AfterSync/commit options apply to every shard and
	// to the meta journal.
	Store runtime.StoreOptions
	// RelaxedMeta skips the per-record fsync on the meta journal (the
	// serving path: a lost meta suffix only costs adoptions on recovery).
	// Tape and sweep drivers leave it false. Migration-protocol records
	// are always fsynced regardless — their ordering carries the
	// exactly-once handoff argument.
	RelaxedMeta bool
	// Inject, when non-nil, supplies a per-shard storage-fault injector
	// for the shard WALs (deterministic chaos testing). The meta journal
	// is never injected: router durability is a separate failure domain,
	// and reconciliation already covers its loss.
	Inject func(shard int) journal.Injector
	// Replicas is the synchronous follower count per shard (default 0:
	// replication off). Each shard keeps Replicas byte-identical copies
	// of its store directory, shipped after every acknowledged op; when
	// the primary exhausts its retry budget the health machine promotes a
	// follower instead of failing the shard (see replica.go). Reopening a
	// directory with fewer replicas than it holds is refused.
	Replicas int
	// InjectReplica, when non-nil, supplies the follower-drive injector
	// for (shard, slot), slot ≥ 1 — slot 0 is the primary drive (Inject).
	// The injector follows the DRIVE (the slot directory), not the role:
	// after a promotion the store opened from slot k keeps slot k's
	// injector.
	InjectReplica func(shard, slot int) journal.Injector
	// Retry bounds the per-shard transient-failure containment loop.
	Retry RetryOptions

	// LatencySLO, when > 0, arms the gray-failure health machine: each
	// shard's WAL write/fsync sojourns feed a windowed p99 tracker, and a
	// shard whose p99 breaches the SLO transitions to Slow — fenced from
	// placement, and (when replicas exist) proactively failed over via the
	// promotion path.
	LatencySLO time.Duration
	// LatencyWindow is the tracker's sliding window in epochs (default 4;
	// 1 means "current epoch only" — the deterministic-soak setting).
	LatencyWindow int
	// LatencyMinSamples gates the SLO evaluation: fewer samples in the
	// window than this and the check abstains (default 2).
	LatencyMinSamples int
	// AdmitDeadline, when > 0 with LatencySLO armed, sheds events routed
	// to a Slow shard with ErrShardSlow when no fast candidate exists —
	// the cluster-level deadline propagation for drivers that bypass the
	// serve layer.
	AdmitDeadline time.Duration
	// Clock, when non-nil, supplies the per-shard journal clock
	// (runtime.StoreOptions.Clock) so deterministic soaks share one
	// virtual clock between a shard's injectors and its WAL writer.
	Clock func(shard int) journal.Clock
}

// Recovery reports what Open rebuilt.
type Recovery struct {
	// Shards holds each store's own recovery report, by shard index.
	Shards []runtime.RecoveryInfo `json:"shards"`
	// ReplayedPlacements counts place records applied from the meta log.
	ReplayedPlacements int `json:"replayed_placements"`
	// Adopted counts tasks found live on a shard but absent from the
	// replayed map (the write-behind crash window); Dropped counts map
	// entries whose task was not live on its shard (a lost unplace).
	Adopted int `json:"adopted"`
	Dropped int `json:"dropped"`
	// Cursor is the durable event-sequence prefix (tape resume point).
	Cursor uint64 `json:"cursor"`
	// MigrationsCompleted / MigrationsAborted count in-flight migration
	// handoffs recovery rolled forward (task live on target) or back.
	MigrationsCompleted int `json:"migrations_completed,omitempty"`
	MigrationsAborted   int `json:"migrations_aborted,omitempty"`
	// ResetsReplayed counts evacuation re-images recovery re-executed.
	ResetsReplayed int `json:"resets_replayed,omitempty"`
	// AdoptedStore reports that this Open turned a single-store directory
	// into shard 0 (adoptSingleStore).
	AdoptedStore bool `json:"adopted_store,omitempty"`
}

// Result is the router's answer to one event: the shard that served it
// (-1 when the event was broadcast, or synthesized at the router without
// touching any shard) and that shard's decision.
type Result struct {
	Shard    int              `json:"shard"`
	Decision runtime.Decision `json:"decision"`
}

// Cluster is the partition-aware router. Apply/ApplyBatch/RunEpoch are safe
// for concurrent callers (one internal mutex guards router state; shard
// stores are only ever driven from one goroutine at a time by construction
// of the apply paths).
type Cluster struct {
	dir    string
	opt    Options
	policy Policy
	shards []*Shard

	mu      sync.Mutex
	meta    *journal.Writer
	seq     uint64                // last stamped event sequence number
	rr      uint64                // successful placements (round-robin cursor)
	owner   map[string]int        // partition map: task name → shard
	pending map[string]pendingAdd // routed-but-unresolved adds (concurrent path)
	// ownerSeq is the sequence number of the event that last resolved each
	// name's owner entry. Completes from different shards interleave in
	// arbitrary order, so every owner mutation is last-writer-wins by
	// sequence — a stale add's complete must not clobber the placement a
	// later re-add (of the same, reused name) already confirmed elsewhere.
	ownerSeq map[string]uint64
	cursor   uint64 // resolved tape prefix: durable at open, advanced by PlayTape
	rec      Recovery

	retry  RetryOptions
	health []ShardHealth // containment state, by shard index (under mu)
	failed int           // shards currently in the Failed state (under mu)
	slow   int           // shards currently in the Slow state (under mu)

	// lat[si] tracks shard si's WAL sojourn p99 (nil when LatencySLO is
	// unset). The trackers are internally locked: Record fires from the
	// journal Observe hook on whatever goroutine drives the shard.
	lat []*LatencyTracker

	// primary[si] is the slot directory currently holding shard si's
	// primary store (0 until a promotion moves it); replicas[si] is its
	// follower set. Both under mu; see replica.go.
	primary  []int
	replicas [][]*replica
}

// metaRecord is one meta-journal entry. Kind "place" binds a name to a
// shard at a sequence number; "unplace" releases it. The migration
// protocol (migrate.go) adds five kinds: "mbegin" declares an in-flight
// handoff Shard→To, "mcommit" marks the target copy durable, "mabort"
// rolls an uncommitted handoff back, "mevict" records an explicit
// eviction (no surviving shard could re-admit the task), and "mreset"
// fences an evacuation's re-image (Seq is the fence: the wipe re-executes
// on recovery only while the shard's durable state is still ≤ it).
type metaRecord struct {
	Kind  string `json:"kind"`
	Seq   uint64 `json:"seq"`
	Name  string `json:"name,omitempty"`
	Shard int    `json:"shard"`
	To    int    `json:"to,omitempty"`
}

// metaSnap is the meta journal's checkpoint (dir/meta.snap): router state
// as of meta-journal index Index, after which the journal is reset.
type metaSnap struct {
	Index uint64         `json:"index"`
	Seq   uint64         `json:"seq"`
	RR    uint64         `json:"rr"`
	Owner map[string]int `json:"owner"`
	// Roles is each shard's primary slot (omitted while all are 0), so a
	// promoted cluster reopens on the promoted stores even after the meta
	// journal's promote records are compacted into the snapshot.
	Roles []int `json:"roles,omitempty"`
}

const metaSnapName = "meta.snap"

// shardSeedSalt decorrelates per-shard runtime seeds (splitmix increment):
// shard i runs seed root + i·salt, so shard 0 runs the root seed — exactly
// the runtime a single store opened with the same options runs.
const shardSeedSalt = 0x9e3779b97f4a7c15

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// shardStoreOptions instantiates the per-shard store template: the seed is
// decorrelated per shard (identical across that shard's replica slots —
// the slots are one logical shard), and the current primary slot's fault
// injector (if any) is attached. Reopen/recovery paths use the same
// construction so a recovered shard is configured identically to a
// freshly opened one.
func (c *Cluster) shardStoreOptions(i int) runtime.StoreOptions {
	return c.slotStoreOptions(i, c.primary[i])
}

// Open recovers (or initializes) a sharded cluster in dir: every shard
// store recovers independently, the partition map replays from the meta
// snapshot and journal, and the map is reconciled against the shards —
// entries whose task is gone are dropped, live-but-unmapped tasks are
// adopted. The shard stores are the truth; the router state is derived.
func Open(dir string, opt Options) (*Cluster, error) {
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	policy, err := ParsePolicy(opt.Placement)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	adopted, err := adoptSingleStore(dir, opt.Store)
	if err != nil {
		return nil, fmt.Errorf("cluster: adopting the single store in %s: %w", dir, err)
	}
	// Refuse to strand shards: reopening with fewer shards than exist on
	// disk would orphan their tasks outside the router.
	for i := opt.Shards; ; i++ {
		if _, err := os.Stat(shardDir(dir, i)); err != nil {
			break
		}
		return nil, fmt.Errorf("cluster: %s exists but only %d shards requested", shardDir(dir, i), opt.Shards)
	}
	// Likewise replicas: a follower slot past the requested count could be
	// the promoted primary of a previous incarnation.
	if opt.Replicas < 0 {
		opt.Replicas = 0
	}
	for i := 0; i < opt.Shards; i++ {
		if _, err := os.Stat(replDir(dir, i, opt.Replicas+1)); err == nil {
			return nil, fmt.Errorf("cluster: %s exists but only %d replicas requested",
				replDir(dir, i, opt.Replicas+1), opt.Replicas)
		}
	}

	c := &Cluster{
		dir:      dir,
		opt:      opt,
		policy:   policy,
		owner:    make(map[string]int),
		pending:  make(map[string]pendingAdd),
		ownerSeq: make(map[string]uint64),
		retry:    opt.Retry.withDefaults(),
		health:   make([]ShardHealth, opt.Shards),
		primary:  make([]int, opt.Shards),
		replicas: make([][]*replica, opt.Shards),
	}
	c.rec.AdoptedStore = adopted
	// Latency trackers exist BEFORE the shard stores open: the stores'
	// Observe hooks (wired in slotStoreOptions) capture recovery I/O too.
	if opt.LatencySLO > 0 {
		win := opt.LatencyWindow
		if win <= 0 {
			win = 4
		}
		c.lat = make([]*LatencyTracker, opt.Shards)
		for i := range c.lat {
			c.lat[i] = NewLatencyTracker(win)
		}
	}
	closeAll := func() {
		for _, sh := range c.shards {
			sh.Store.Close()
		}
		if c.meta != nil {
			c.meta.Close()
		}
	}

	// Meta BEFORE the shard stores: the roles (snapshot + replayed promote
	// records) decide which slot directory each shard's primary opens from.
	snap, err := readMetaSnap(filepath.Join(dir, metaSnapName))
	if err != nil {
		closeAll()
		return nil, err
	}
	meta, err := journal.Open(filepath.Join(dir, "meta"), journal.Options{
		SegmentBytes: opt.Store.SegmentBytes,
		AfterSync:    opt.Store.AfterSync,
		NoSync:       opt.Store.NoSync,
	})
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("cluster: meta journal: %w", err)
	}
	c.meta = meta
	if meta.LastIndex() < snap.Index {
		// The journal was reset (or lost) behind the snapshot; appends must
		// continue the numbering the snapshot covers.
		if err := meta.Reset(snap.Index); err != nil {
			closeAll()
			return nil, err
		}
	}
	c.seq, c.rr = snap.Seq, snap.RR
	for name, si := range snap.Owner {
		c.owner[name] = si
	}
	for i, slot := range snap.Roles {
		if i >= opt.Shards {
			break
		}
		if slot < 0 || slot > opt.Replicas {
			closeAll()
			return nil, fmt.Errorf("cluster: shard %d primary is slot %d but only %d replicas requested", i, slot, opt.Replicas)
		}
		c.primary[i] = slot
	}
	seen := make(map[uint64]bool)
	nameSeq := make(map[string]uint64)
	// Migration-protocol records are collected in journal order and
	// completed after shard truth is known (completeMigrationsLocked):
	// migs keeps each name's LAST protocol record, resets every "mreset"
	// fence in order.
	migs := make(map[string]metaRecord)
	var migNames []string // insertion order, for deterministic completion
	var resets []metaRecord
	_, err = journal.Replay(filepath.Join(dir, "meta"), snap.Index, func(r journal.Record) error {
		if r.Type != journal.TypeEvent {
			return nil
		}
		var mr metaRecord
		if err := json.Unmarshal(r.Payload, &mr); err != nil {
			return fmt.Errorf("meta record %d: %w", r.Index, err)
		}
		switch mr.Kind {
		case "place":
			if mr.Seq != 0 && seen[mr.Seq] {
				return nil // replayed duplicate: one placement, one rr slot
			}
			seen[mr.Seq] = true
			// Records land in complete order, which in the concurrent serve
			// path can trail sequence order across shards — resolve each
			// name last-writer-wins by sequence, same as the live map.
			if mr.Seq >= nameSeq[mr.Name] {
				nameSeq[mr.Name] = mr.Seq
				c.owner[mr.Name] = mr.Shard
			}
			c.rr++
			c.rec.ReplayedPlacements++
		case "unplace":
			if mr.Seq >= nameSeq[mr.Name] {
				nameSeq[mr.Name] = mr.Seq
				delete(c.owner, mr.Name)
			}
		case "mbegin", "mcommit", "mabort", "mevict":
			if _, ok := migs[mr.Name]; !ok {
				migNames = append(migNames, mr.Name)
			}
			migs[mr.Name] = mr
		case "mreset":
			resets = append(resets, mr)
		case "promote":
			if mr.Shard < 0 || mr.Shard >= opt.Shards {
				return fmt.Errorf("meta record %d: promote for unknown shard %d", r.Index, mr.Shard)
			}
			if mr.To < 0 || mr.To > opt.Replicas {
				return fmt.Errorf("meta record %d: shard %d promoted to slot %d but only %d replicas requested",
					r.Index, mr.Shard, mr.To, opt.Replicas)
			}
			c.primary[mr.Shard] = mr.To
		}
		if mr.Seq > c.seq {
			c.seq = mr.Seq
		}
		return nil
	})
	if err != nil {
		closeAll()
		return nil, err
	}

	// With roles settled, recover every shard's primary store from its
	// current slot directory.
	for i := 0; i < opt.Shards; i++ {
		st, err := runtime.OpenStore(replDir(dir, i, c.primary[i]), c.shardStoreOptions(i))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		specs := st.Runtime().Tasks()
		tasks := make([]task.Task, len(specs))
		for j := range specs {
			tasks[j] = specs[j].Task
		}
		c.shards = append(c.shards, &Shard{ID: i, Store: st, inc: feasibility.NewIncremental(tasks)})
		c.rec.Shards = append(c.rec.Shards, st.Recovery())
	}
	// Build the follower sets: adopt byte-identical followers in-sync,
	// re-seed the rest (including a demoted old primary after failover).
	if opt.Replicas > 0 {
		for i := 0; i < opt.Shards; i++ {
			c.initReplicasLocked(i)
		}
	}

	// Complete interrupted evacuations and migrations against shard truth,
	// BEFORE reconciliation derives the owner map — the physical fixes
	// (re-image fenced shards, finish or roll back in-flight handoffs)
	// must land first so reconciliation sees exactly one copy per task.
	if err := c.replayResetsLocked(resets); err != nil {
		closeAll()
		return nil, err
	}
	if err := c.completeMigrationsLocked(migNames, migs); err != nil {
		closeAll()
		return nil, err
	}

	// Reconcile the derived map against the authoritative shard sets.
	live := make(map[string]int)
	for i, sh := range c.shards {
		for _, sp := range sh.Store.Runtime().Tasks() {
			live[sp.Task.Name] = i
		}
	}
	for name, si := range c.owner {
		li, ok := live[name]
		if !ok {
			delete(c.owner, name) // remove was durable, unplace was not
			c.rec.Dropped++
		} else if li != si {
			c.owner[name] = li
		}
	}
	for name, si := range live {
		if _, ok := c.owner[name]; !ok {
			c.owner[name] = si // admission was durable, place was not
			c.rr++
			c.rec.Adopted++
		}
	}

	for _, sh := range c.shards {
		if ms := sh.Store.MaxSeq(); ms > c.cursor {
			c.cursor = ms
		}
	}
	if c.cursor > c.seq {
		c.seq = c.cursor
	}
	c.rec.Cursor = c.cursor
	return c, nil
}

// adoptSingleStore turns the layout runtime.OpenStore writes (wal/ and
// ckpt-* at the top of dir), found with no shard-000 beside it, into shard
// 0. The entries move into a staging directory one rename at a time; the
// store is opened there once to number its unsequenced requests
// (Store.SequenceRequests), so a tape resumes after them; one final rename
// publishes the staging directory as shard-000. A crash before that rename
// leaves the staging directory, and perhaps some entries still at the
// top, for the next Open to finish; after it the adoption is done. Open's
// reconciliation then adopts the store's live tasks into the partition
// map. The store keeps its seed: shard 0 runs the root seed.
func adoptSingleStore(dir string, so runtime.StoreOptions) (bool, error) {
	if _, err := os.Stat(shardDir(dir, 0)); err == nil {
		return false, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	var moves []string
	for _, e := range ents {
		if e.Name() == "wal" || strings.HasPrefix(e.Name(), "ckpt-") {
			moves = append(moves, e.Name())
		}
	}
	staging := shardDir(dir, 0) + ".adopt"
	if _, err := os.Stat(staging); len(moves) == 0 && err != nil {
		return false, nil // a fresh or already-cluster directory
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return false, err
	}
	for _, name := range moves {
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(staging, name)); err != nil {
			return false, err
		}
	}
	if err := syncDir(staging, so); err != nil {
		return false, err
	}
	if err := syncDir(dir, so); err != nil {
		return false, err
	}
	st, err := runtime.OpenStore(staging, so)
	if err != nil {
		return false, err
	}
	err = st.SequenceRequests()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, err
	}
	if err := os.Rename(staging, shardDir(dir, 0)); err != nil {
		return false, err
	}
	return true, syncDir(dir, so)
}

// syncDir fsyncs a directory's entries and fires the crash hook, unless
// the store options elide syncs.
func syncDir(dir string, so runtime.StoreOptions) error {
	if so.NoSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	if err := d.Close(); err != nil {
		return err
	}
	if so.AfterSync != nil {
		so.AfterSync()
	}
	return nil
}

// readMetaSnap loads the meta snapshot, returning a zero snapshot when the
// file does not exist. The write is atomic (temp + rename), so a torn
// write leaves the previous generation readable.
func readMetaSnap(path string) (metaSnap, error) {
	var snap metaSnap
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return snap, nil
		}
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("cluster: corrupt meta snapshot %s: %w", path, err)
	}
	return snap, nil
}

// Shards exposes the shard slice (read via Probe/Util/Store accessors; the
// router's apply paths are the only writers).
func (c *Cluster) Shards() []*Shard { return c.shards }

// Policy returns the active placement policy.
func (c *Cluster) Policy() Policy { return c.policy }

// Recovery reports what Open rebuilt.
func (c *Cluster) Recovery() Recovery { return c.rec }

// Cursor returns the resolved event-sequence prefix — the durable prefix
// found at open, advanced past each tick PlayTape completes. It is the
// tape position a (re-)entering PlayTape resumes from.
func (c *Cluster) Cursor() uint64 { return c.cursor }

// Seq returns the last stamped sequence number.
func (c *Cluster) Seq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// RR returns the placement cursor (successful placements so far).
func (c *Cluster) RR() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rr
}

// Owners returns a copy of the partition map.
func (c *Cluster) Owners() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.owner))
	for k, v := range c.owner {
		out[k] = v
	}
	return out
}

// Epoch returns the cluster clock: the minimum epoch over non-Failed
// shards. Shards advance past it transiently inside RunEpoch (and across
// a mid-loop crash), never behind it. Failed shards are excluded — their
// clock is frozen until evacuation re-images them (after which they
// rejoin at epoch 0 and RunEpoch's min-rule walks them back to lockstep).
// With every shard failed the raw minimum is returned.
func (c *Cluster) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochLocked()
}

func (c *Cluster) epochLocked() int64 {
	min, got := int64(0), false
	for i, sh := range c.shards {
		if c.failed > 0 && c.health[i].State == Failed {
			continue
		}
		if e := sh.Store.Epoch(); !got || e < min {
			min, got = e, true
		}
	}
	if !got {
		for _, sh := range c.shards {
			if e := sh.Store.Epoch(); !got || e < min {
				min, got = e, true
			}
		}
	}
	return min
}

// Digests returns every shard's digest, by shard index — the cluster's run
// identity for determinism tests.
func (c *Cluster) Digests() []uint64 {
	out := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.Store.Digest()
	}
	return out
}

// Digest folds the shard digests into one run identity (foldDigests).
func (c *Cluster) Digest() uint64 { return foldDigests(c.Digests()) }

// foldDigests starts from shard 0's digest and FNV-1a-folds every further
// shard's into it, so a one-shard cluster's identity is its store's digest
// — the same number a single runtime prints for the same run.
func foldDigests(ds []uint64) uint64 {
	if len(ds) == 0 {
		return 0
	}
	d := ds[0]
	var buf [16]byte
	for _, x := range ds[1:] {
		binary.BigEndian.PutUint64(buf[:8], d)
		binary.BigEndian.PutUint64(buf[8:], x)
		h := fnv.New64a()
		h.Write(buf[:])
		d = h.Sum64()
	}
	return d
}

// Metrics sums the shard runtimes' lifetime counters.
func (c *Cluster) Metrics() runtime.Metrics {
	var m runtime.Metrics
	for _, sh := range c.shards {
		sm := sh.Store.Runtime().Metrics()
		m.Epochs += sm.Epochs
		m.Jobs += sm.Jobs
		m.Misses += sm.Misses
		m.MissesDegraded += sm.MissesDegraded
		m.MissesClean += sm.MissesClean
		m.Admits += sm.Admits
		m.AdmitsDegraded += sm.AdmitsDegraded
		m.Rejects += sm.Rejects
		m.Removes += sm.Removes
		m.Overloads += sm.Overloads
		m.Replans += sm.Replans
		m.Sheds += sm.Sheds
		m.Restores += sm.Restores
	}
	return m
}

// ticket is the router's record of one routed event, carried from route to
// complete. mirrored records whether route applied an optimistic mirror
// update that complete may need to reconcile against the shard's verdict.
type ticket struct {
	shard    int
	name     string
	op       string // "add" | "remove" | "overload"
	mirrored bool
	err      error // synthesized rejection; shard < 0
	sick     int   // the fenced shard when err is ErrShardFailed (-1: none specific)
}

// pendingAdd counts the routed-but-unresolved adds of one name and the
// shard they all went to.
type pendingAdd struct{ shard, n int }

// route picks the event's shard and stamps its sequence number, under the
// router lock. Synthesized results (duplicate add, unknown remove, unnamed
// add) return a ticket with shard < 0 and never touch a shard or consume a
// live-mode sequence number — re-processing them is free, which is what
// makes tape resume idempotent. An add whose name is only pending is not
// synthesized: its fate hangs on the earlier add's verdict, so it follows
// that add to the same shard (FIFO) and the shard answers it, exactly as a
// single store would. For adds the target's mirror is updated
// optimistically when the probe predicts admission; complete reconciles
// the prediction against the shard's actual verdict.
//
// gate, when non-nil, is consulted with the resolved target before ANY
// router state is mutated; a false answer aborts the route (shed=true)
// with nothing to roll back — the serving path's backpressure hook.
func (c *Cluster) route(ev *runtime.Event, gate func(si int) bool) (tk ticket, shed bool) {
	switch ev.Op {
	case "overload":
		c.stamp(ev)
		return ticket{shard: -1, op: "overload"}, false
	case "add":
		name := ev.Task.Task.Name
		if name == "" {
			return ticket{shard: -1, op: "add", err: runtime.ErrUnnamedTask}, false
		}
		if _, dup := c.owner[name]; dup {
			return ticket{shard: -1, op: "add", name: name, err: runtime.ErrDuplicateTask}, false
		}
		if p, ok := c.pending[name]; ok {
			if gate != nil && !gate(p.shard) {
				return ticket{}, true
			}
			c.stamp(ev)
			p.n++
			c.pending[name] = p
			return ticket{shard: p.shard, op: "add", name: name}, false
		}
		// Failed shards are fenced from placement: the policy sees only the
		// alive subset (indices mapped back through Shard.ID). Slow shards
		// are fenced too — placements prefer shards meeting the SLO — but
		// fall back into candidacy when nothing fast remains, unless an
		// admit deadline says a slow placement is worse than a shed. With
		// no shard alive the event is shed, not silently dropped.
		candidates := c.shards
		if c.failed > 0 || c.slow > 0 {
			candidates = c.fastShardsLocked()
			if len(candidates) == 0 {
				if c.opt.AdmitDeadline > 0 && c.slow > 0 && len(c.aliveShardsLocked()) > 0 {
					c.shedSlowLocked(-1)
					return ticket{shard: -1, op: "add", name: name, err: ErrShardSlow, sick: -1}, false
				}
				candidates = c.aliveShardsLocked()
			}
			if len(candidates) == 0 {
				return ticket{shard: -1, op: "add", name: name, err: ErrShardFailed, sick: -1}, false
			}
		}
		si := c.policy.Place(&ev.Task.Task, candidates, c.rr)
		if si < 0 || si >= len(candidates) {
			si = 0 // a broken policy must not crash the router
		}
		si = candidates[si].ID
		if gate != nil && !gate(si) {
			return ticket{}, true
		}
		c.stamp(ev)
		_, deepOK := c.shards[si].Probe(&ev.Task.Task)
		c.pending[name] = pendingAdd{shard: si, n: 1}
		if deepOK {
			// The probe is verdict-identical to the shard's own screen, so
			// mirror and placement cursor advance now — later routes in the
			// same batch must see them (round-robin would otherwise pin a
			// whole batch to one shard). complete reconciles if the shard
			// disagrees after all.
			c.shards[si].inc.Add(&ev.Task.Task)
			c.rr++
		}
		return ticket{shard: si, op: "add", name: name, mirrored: deepOK}, false
	default: // "remove", by Validate
		name := ev.Name
		si, ok := c.owner[name]
		if !ok {
			var p pendingAdd
			p, ok = c.pending[name] // remove races a routed add: same shard, FIFO
			si = p.shard
		}
		if !ok {
			return ticket{shard: -1, op: "remove", name: name, err: runtime.ErrUnknownTask}, false
		}
		if c.health[si].State == Failed {
			// Partition-scoped shed: the owning shard is fenced, so this
			// remove cannot be served — but nothing is mutated, so the task
			// is retained for evacuation rather than silently dropped.
			return ticket{shard: -1, op: "remove", name: name, err: ErrShardFailed, sick: si}, false
		}
		if c.health[si].State == Slow && c.opt.AdmitDeadline > 0 {
			// Deadline propagation: the owner is over the latency SLO, so
			// this op would miss the admit deadline — shed it now (nothing
			// mutated; the client retries after promotion/recovery).
			c.shedSlowLocked(si)
			return ticket{shard: -1, op: "remove", name: name, err: ErrShardSlow, sick: si}, false
		}
		if gate != nil && !gate(si) {
			return ticket{}, true
		}
		c.stamp(ev)
		mirrored := c.shards[si].inc.Remove(name)
		delete(c.owner, name)
		c.ownerSeq[name] = ev.Seq
		return ticket{shard: si, op: "remove", name: name, mirrored: mirrored}, false
	}
}

// aliveShardsLocked returns the shards not in the Failed state.
func (c *Cluster) aliveShardsLocked() []*Shard {
	alive := make([]*Shard, 0, len(c.shards))
	for i, sh := range c.shards {
		if c.health[i].State != Failed {
			alive = append(alive, sh)
		}
	}
	return alive
}

// fastShardsLocked returns the shards in neither Failed nor Slow state —
// the placement candidates meeting the latency SLO.
func (c *Cluster) fastShardsLocked() []*Shard {
	fast := make([]*Shard, 0, len(c.shards))
	for i, sh := range c.shards {
		if c.health[i].State != Failed && c.health[i].State != Slow {
			fast = append(fast, sh)
		}
	}
	return fast
}

// shedSlowLocked accounts one deadline shed against shard si, or — for
// placement sheds with no single culprit (si < 0) — against the first
// Slow shard, deterministically.
func (c *Cluster) shedSlowLocked(si int) {
	if si < 0 {
		for i := range c.health {
			if c.health[i].State == Slow {
				si = i
				break
			}
		}
	}
	if si >= 0 {
		c.health[si].DeadlineSheds++
	}
}

// stamp assigns the next sequence number, or folds a pre-stamped one
// (tape mode) into the counter.
func (c *Cluster) stamp(ev *runtime.Event) {
	if ev.Seq == 0 {
		c.seq++
		ev.Seq = c.seq
	} else if ev.Seq > c.seq {
		c.seq = ev.Seq
	}
}

// complete reconciles router state with the shard's actual result and
// journals the placement (write-behind: the shard admission is already
// durable). Must run under the router lock, in each shard's apply order.
func (c *Cluster) complete(tk ticket, ev *runtime.Event, dec runtime.Decision, applyErr error) error {
	switch tk.op {
	case "add":
		admitted := applyErr == nil && dec.Verdict != runtime.Rejected
		if p := c.pending[tk.name]; p.n > 1 {
			p.n--
			c.pending[tk.name] = p
		} else {
			delete(c.pending, tk.name)
		}
		if admitted {
			// Mirror by membership, cursor by prediction: a retry-reopen may
			// have rebuilt the mirror from recovered state (which already
			// holds this task), so the Add is membership-guarded — but rr
			// must advance exactly once per admitted add regardless of drive
			// mode, so it keeps following the route-time prediction.
			if !c.shards[tk.shard].inc.Has(tk.name) {
				c.shards[tk.shard].inc.Add(&ev.Task.Task)
			}
			if !tk.mirrored {
				c.rr++
			}
			// Last-writer-wins by sequence: a remove (or re-add of the same
			// reused name) with a higher sequence may already have resolved
			// this name — possibly on another shard, whose completes
			// interleave with ours — and a stale placement must not clobber
			// it. The shard's admission stands either way; only the map
			// entry is gated.
			if ev.Seq >= c.ownerSeq[tk.name] {
				c.ownerSeq[tk.name] = ev.Seq
				c.owner[tk.name] = tk.shard
			}
			return c.metaAppend(metaRecord{Kind: "place", Seq: ev.Seq, Name: tk.name, Shard: tk.shard})
		}
		if tk.mirrored {
			c.shards[tk.shard].inc.Remove(tk.name) // no-op if a rebuild dropped it
			c.rr--
		}
	case "remove":
		if applyErr == nil {
			// A retry-reopen rebuild may have restored the mirror entry that
			// route removed optimistically; the remove is now durable, so
			// re-drop it (no-op when already absent).
			c.shards[tk.shard].inc.Remove(tk.name)
			// route already deleted the map entry, but an add complete from
			// an interleaved batch may have re-inserted it — resolve again
			// here under the same sequence order, so the map ends where the
			// highest-sequence event left it.
			if ev.Seq >= c.ownerSeq[tk.name] {
				c.ownerSeq[tk.name] = ev.Seq
				delete(c.owner, tk.name)
			}
			return c.metaAppend(metaRecord{Kind: "unplace", Seq: ev.Seq, Name: tk.name, Shard: tk.shard})
		}
		// Stale at the shard: route's optimistic map/mirror deletion already
		// matches the truth (the task is not there).
	}
	return nil
}

// metaAppend journals one placement record, fsynced unless RelaxedMeta.
func (c *Cluster) metaAppend(mr metaRecord) error {
	payload, err := json.Marshal(mr)
	if err != nil {
		return err
	}
	if _, err := c.meta.Append(journal.TypeEvent, payload); err != nil {
		return err
	}
	if c.opt.RelaxedMeta {
		return nil
	}
	return c.meta.Sync()
}

// synthResult builds the Result for a router-synthesized rejection.
func synthResult(ev *runtime.Event, tk ticket) Result {
	d := runtime.Decision{Op: ev.Op, Task: tk.name}
	return Result{Shard: -1, Decision: d}
}

// Apply routes one event: broadcasts go to every shard, removes to the
// owning shard, adds to the shard the placement policy picks. Stale
// requests the router can answer itself (duplicate add, unknown remove)
// are synthesized without touching any shard — the same deterministic
// errors a single runtime returns, minus the journal write. The returned
// error is either a stale-request rejection (IsStaleRequest) or fatal.
func (c *Cluster) Apply(ev runtime.Event) (Result, error) {
	if err := ev.Validate(); err != nil {
		return Result{Shard: -1, Decision: runtime.Decision{Op: ev.Op}}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Op == "overload" {
		return c.broadcastLocked(&ev)
	}
	tk, _ := c.route(&ev, nil)
	if tk.shard < 0 {
		return synthResult(&ev, tk), tk.err
	}
	decs, evErrs, _, err := c.shardApplyBatch(tk.shard, true, []runtime.Event{ev})
	dec, evErr := decs[0], evErrs[0]
	if err != nil {
		// The shard exhausted its retry budget mid-event. complete with a
		// failed outcome rolls back the optimistic router state (pending
		// entry, mirror delta); for removes the task stays live on the
		// fenced shard — retained for evacuation, never silently lost.
		c.complete(tk, &ev, dec, err)
		return Result{Shard: tk.shard, Decision: dec}, err
	}
	err = evErr
	if cerr := c.complete(tk, &ev, dec, err); cerr != nil && err == nil {
		err = cerr
	}
	return Result{Shard: tk.shard, Decision: dec}, err
}

// broadcastLocked applies an overload window to every shard that has not
// journaled it yet. The per-shard MaxSeq guard is what makes a partially
// applied broadcast resumable: shards that committed the event before a
// crash skip it, laggards catch up, and every shard's event subsequence —
// hence its digest — is unchanged.
func (c *Cluster) broadcastLocked(ev *runtime.Event) (Result, error) {
	c.stamp(ev)
	var first runtime.Decision
	got := false
	for _, sh := range c.shards {
		if c.health[sh.ID].State == Failed {
			continue // fenced; it rejoins empty after evacuation anyway
		}
		if sh.Store.MaxSeq() >= ev.Seq {
			continue
		}
		decs, evErrs, _, err := c.shardApplyBatch(sh.ID, true, []runtime.Event{*ev})
		dec := decs[0]
		if err == nil {
			err = evErrs[0]
		}
		if err != nil {
			return Result{Shard: sh.ID, Decision: dec}, err
		}
		if !got {
			first, got = dec, true
		}
	}
	return Result{Shard: -1, Decision: first}, nil
}

// batchItem carries one routed event through a shard's apply bucket.
type batchItem struct {
	pos int // index in the caller's slice
	ev  runtime.Event
	tk  ticket
}

// ApplyBatch routes the whole slice serially (placement is inherently
// sequential — each decision conditions the next probe), then drives every
// shard's bucket concurrently, each under ONE group-committed journal
// write. Per-event results come back positionally, exactly like
// runtime.Store.ApplyBatch; the final error is fatal.
//
// Because routing is serial and each shard applies its bucket in route
// order, the per-shard event subsequences — and therefore every shard
// digest — are identical to N serial Apply calls. The cluster soak holds
// that equivalence as an invariant; the concurrency only buys wall-clock.
func (c *Cluster) ApplyBatch(evs []runtime.Event) ([]Result, []error, error) {
	results := make([]Result, len(evs))
	errs := make([]error, len(evs))
	buckets := make([][]batchItem, len(c.shards))

	c.mu.Lock()
	for i := range evs {
		ev := evs[i] // copy: stamping must not mutate the caller's slice
		results[i] = Result{Shard: -1, Decision: runtime.Decision{Op: ev.Op}}
		if err := ev.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if ev.Op == "overload" {
			c.stamp(&ev)
			for si := range c.shards {
				if c.health[si].State == Failed {
					continue
				}
				if c.shards[si].Store.MaxSeq() >= ev.Seq {
					continue
				}
				buckets[si] = append(buckets[si], batchItem{pos: i, ev: ev, tk: ticket{shard: si, op: "overload"}})
			}
			continue
		}
		tk, _ := c.route(&ev, nil)
		if tk.shard < 0 {
			results[i] = synthResult(&ev, tk)
			errs[i] = tk.err
			continue
		}
		buckets[tk.shard] = append(buckets[tk.shard], batchItem{pos: i, ev: ev, tk: tk})
	}
	c.mu.Unlock()

	// Apply every bucket concurrently; each shard group-commits its whole
	// bucket under one fsync.
	shardErrs := make([]error, len(c.shards))
	shardDecs := make([][]runtime.Decision, len(c.shards))
	shardEvErrs := make([][]error, len(c.shards))
	var wg sync.WaitGroup
	for si := range c.shards {
		if len(buckets[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			bucket := buckets[si]
			sevs := make([]runtime.Event, len(bucket))
			for j := range bucket {
				sevs[j] = bucket[j].ev
			}
			shardDecs[si], shardEvErrs[si], _, shardErrs[si] = c.shardApplyBatch(si, false, sevs)
		}(si)
	}
	wg.Wait()

	// Reconcile in shard order, each bucket in apply order. A shard that
	// exhausted its retry budget fails ONLY its own bucket (partition-
	// scoped containment): each of its events completes as failed — the
	// optimistic router state rolls back — and carries the shard error,
	// while every other bucket's results stand.
	c.mu.Lock()
	defer c.mu.Unlock()
	var fatal error
	overloadDone := make(map[int]bool)
	for si := range c.shards {
		shardErr := shardErrs[si]
		if shardErr != nil && !errors.Is(shardErr, ErrShardFailed) && fatal == nil {
			fatal = fmt.Errorf("cluster: shard %d: %w", si, shardErr)
		}
		for j, it := range buckets[si] {
			if shardDecs[si] == nil {
				continue // shard died before producing results
			}
			dec, aerr := shardDecs[si][j], shardEvErrs[si][j]
			if shardErr != nil {
				aerr = shardErr
			}
			if it.tk.op == "overload" {
				if !overloadDone[it.pos] && aerr == nil {
					results[it.pos] = Result{Shard: -1, Decision: dec}
					overloadDone[it.pos] = true
				}
				if aerr != nil {
					errs[it.pos] = aerr
				}
				continue
			}
			if cerr := c.complete(it.tk, &it.ev, dec, aerr); cerr != nil && fatal == nil {
				fatal = cerr
			}
			results[it.pos] = Result{Shard: it.tk.shard, Decision: dec}
			errs[it.pos] = aerr
		}
	}
	return results, errs, fatal
}

// ShardEpoch is one shard's epoch report.
type ShardEpoch struct {
	Shard  int                 `json:"shard"`
	Report runtime.EpochReport `json:"report"`
}

// RunEpoch advances the cluster clock by one tick: every shard sitting at
// the minimum epoch runs (and journals) one epoch. After an uninterrupted
// tick all shards are level; after a mid-tick crash the survivors are one
// ahead, and the next call advances only the laggards — which is exactly
// how a resumed run converges back to lockstep.
func (c *Cluster) RunEpoch(parallel bool) ([]ShardEpoch, error) {
	c.mu.Lock()
	min := c.epochLocked()
	var due []*Shard
	for _, sh := range c.shards {
		if c.health[sh.ID].State == Failed {
			continue // fenced; evacuation re-images it before it re-ticks
		}
		if sh.Store.Epoch() == min {
			due = append(due, sh)
		}
	}
	c.mu.Unlock()
	reps := make([]ShardEpoch, len(due))
	if !parallel {
		for i, sh := range due {
			rep, err := c.shardEpoch(sh.ID)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d epoch: %w", sh.ID, err)
			}
			reps[i] = ShardEpoch{Shard: sh.ID, Report: rep}
		}
		c.latencySweep(due, min+1)
		return reps, nil
	}
	errs := make([]error, len(due))
	var wg sync.WaitGroup
	for i, sh := range due {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			rep, err := c.shardEpoch(sh.ID)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: shard %d epoch: %w", sh.ID, err)
				return
			}
			reps[i] = ShardEpoch{Shard: sh.ID, Report: rep}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.latencySweep(due, min+1)
	return reps, nil
}

// latencySweep runs the latency-SLO check for every shard that just
// ticked, in shard order under the cluster lock — AFTER the tick's I/O
// completed in both serial and parallel drive modes, so health decisions
// land at identical boundaries regardless of execution mode.
func (c *Cluster) latencySweep(due []*Shard, epoch int64) {
	if c.lat == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range due {
		c.checkLatencyLocked(sh.ID, epoch)
	}
}

// checkLatencyLocked evaluates shard si's windowed WAL p99 against the
// SLO, drives the Healthy⇄Slow transitions, and — when replicas exist —
// proactively promotes away from a slow primary. The tracker advances to
// `epoch` afterwards, so the evaluation always covers the window ENDING at
// the epoch that just ran.
func (c *Cluster) checkLatencyLocked(si int, epoch int64) {
	t := c.lat[si]
	defer t.Advance(epoch)
	h := &c.health[si]
	minSamples := c.opt.LatencyMinSamples
	if minSamples <= 0 {
		minSamples = 2
	}
	if t.Count() < uint64(minSamples) {
		return // abstain: not enough signal to judge the device
	}
	p99 := t.Quantile(0.99)
	h.LatencyP99Ms = float64(p99) / float64(time.Millisecond)
	if p99 <= c.opt.LatencySLO {
		if h.State == Slow {
			// The device recovered on its own (brownout ended, queue
			// drained): lift the fence.
			c.setHealthStateLocked(si, Healthy)
			h.LastError = ""
		}
		return
	}
	if h.State == Healthy {
		c.setHealthStateLocked(si, Slow)
		h.SlowEvents++
		h.LastError = fmt.Sprintf("WAL p99 %v over latency SLO %v", p99, c.opt.LatencySLO)
	}
	// Proactive failover: a slow primary with an in-sync follower is
	// replaced now, before clients miss deadlines — the gray-failure
	// counterpart of the exhausted-retry promotion in runShardOp.
	if h.State == Slow && len(c.replicas[si]) > 0 && c.promoteShardLocked(si) {
		t.Reset() // the samples described the demoted device
		c.rebuildMirrorLocked(si)
		c.setHealthStateLocked(si, Healthy)
		h.ConsecErrs = 0
	}
}

// CheckLatency runs the latency-SLO check for shard si at its current
// epoch — the serve layer's per-engine hook, where each shard ticks on its
// own clock instead of through RunEpoch.
func (c *Cluster) CheckLatency(si int) {
	if c.lat == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if si < 0 || si >= len(c.shards) {
		return
	}
	c.checkLatencyLocked(si, c.shards[si].Store.Epoch())
}

// ShardLatencyP99 reports shard si's current windowed WAL p99 sojourn
// (zero when latency tracking is off or the window is empty).
func (c *Cluster) ShardLatencyP99(si int) time.Duration {
	if c.lat == nil || si < 0 || si >= len(c.lat) {
		return 0
	}
	return c.lat[si].Quantile(0.99)
}

// Checkpoint snapshots every shard store (compacting its WAL) and then the
// router's meta state: the partition map, placement cursor and sequence
// counter land in meta.snap atomically, after which the meta journal is
// reset. Ordering matters — the shard checkpoints persist MaxSeq first, so
// a crash anywhere inside Checkpoint leaves the usual recovery path
// (snapshot + replay + reconcile) fully informed.
func (c *Cluster) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards {
		if c.health[sh.ID].State == Failed {
			continue // fenced; its durable state is whatever the failure left
		}
		_, err := c.runShardOp(sh.ID, true, func(st *runtime.Store) error {
			_, cerr := st.Checkpoint()
			return cerr
		})
		if err != nil {
			if errors.Is(err, ErrShardFailed) {
				continue // containment: the failed shard awaits evacuation
			}
			return fmt.Errorf("cluster: shard %d checkpoint: %w", sh.ID, err)
		}
		// Checkpoint doubles as the replica scrub point: the shard is
		// quiescent and freshly shipped, so digest-verify every in-sync
		// follower (demoting silent divergence) and re-seed the demoted.
		if c.opt.Replicas > 0 {
			c.verifyReplicasLocked(sh.ID)
			c.reseedReplicasLocked(sh.ID)
		}
	}
	return c.snapshotMetaLocked()
}

func (c *Cluster) snapshotMetaLocked() error {
	if err := c.meta.Sync(); err != nil { // relaxed-mode records become durable here
		return err
	}
	idx := c.meta.LastIndex()
	snap := metaSnap{Index: idx, Seq: c.seq, RR: c.rr, Owner: c.owner}
	for _, slot := range c.primary {
		if slot != 0 {
			snap.Roles = append([]int(nil), c.primary...)
			break
		}
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(c.dir, metaSnapName), data, c.opt.Store.NoSync, c.opt.Store.AfterSync); err != nil {
		return err
	}
	return c.meta.Reset(idx)
}

// writeFileAtomic is temp + write + fsync + rename + dir fsync, with the
// crash hook fired after each sync (sweep coverage), syncs elided under
// NoSync.
func writeFileAtomic(path string, data []byte, noSync bool, afterSync func()) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func() { tmp.Close(); os.Remove(tmp.Name()) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if !noSync {
		if err := tmp.Sync(); err != nil {
			cleanup()
			return err
		}
		if afterSync != nil {
			afterSync()
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir, runtime.StoreOptions{NoSync: noSync, AfterSync: afterSync})
}

// ErrWrongTape mirrors the store's wrong-tape guard at cluster scope.
var ErrWrongTape = errors.New("cluster: store is ahead of the tape — wrong tape?")

// PlayTape drives the cluster through a shared churn tape to the horizon.
// Event i carries sequence number i+1, so the durable prefix found at open
// (Cursor) is also the resume position: events at or below it are skipped
// (their shards hold them), broadcasts re-apply only to lagging shards,
// and synthesized events re-synthesize for free. Epochs advance through
// RunEpoch's min-epoch rule, so a crash mid-tick converges back to
// lockstep before new events fire. checkpointEvery > 0 checkpoints the
// cluster after every that-many ticks.
func (c *Cluster) PlayTape(tp *runtime.Tape, horizon int64, parallel bool, checkpointEvery int,
	onEpoch func(ShardEpoch), onDecision func(runtime.Event, Result),
	onDecisionErr func(runtime.Event, error) error) error {
	if c.cursor > uint64(len(tp.Events)) {
		return fmt.Errorf("%w: durable prefix %d, tape has %d events", ErrWrongTape, c.cursor, len(tp.Events))
	}
	// Skip the fully-applied prefix: every shard's MaxSeq is at least the
	// minimum, so events up to it need no re-routing at all. Between the
	// minimum and the global cursor, broadcasts may still be partially
	// applied — those flow through the per-shard guard below.
	minSeq := c.shards[0].Store.MaxSeq()
	for _, sh := range c.shards[1:] {
		if ms := sh.Store.MaxSeq(); ms < minSeq {
			minSeq = ms
		}
	}
	i := int(minSeq)
	// The cursor covers events resolved by an EARLIER PlayTape call in this
	// process too (epoch-at-a-time drivers re-enter here): without it, a
	// re-entry would rescan from minSeq — which an empty shard pins at 0 —
	// and re-route events whose add/remove pair has already resolved,
	// re-applying them as if new.
	ticks := 0
	for c.Epoch() < horizon {
		start := i
		for i < len(tp.Events) && tp.Events[i].Epoch <= c.Epoch() {
			i++
		}
		due := make([]runtime.Event, 0, i-start)
		for j := start; j < i; j++ {
			ev := tp.Events[j]
			ev.Seq = uint64(j + 1)
			if ev.Op != "overload" && ev.Seq <= c.cursor {
				continue // durable on its shard already
			}
			due = append(due, ev)
		}
		if parallel {
			results, errs, err := c.ApplyBatch(due)
			if err != nil {
				return err
			}
			for j := range due {
				if errs[j] != nil {
					if onDecisionErr == nil {
						return fmt.Errorf("cluster: event at epoch %d: %w", due[j].Epoch, errs[j])
					}
					if err := onDecisionErr(due[j], errs[j]); err != nil {
						return err
					}
					continue
				}
				if onDecision != nil {
					onDecision(due[j], results[j])
				}
			}
		} else {
			for _, ev := range due {
				res, err := c.Apply(ev)
				if err != nil {
					if !runtime.IsStaleRequest(err) {
						return fmt.Errorf("cluster: event at epoch %d: %w", ev.Epoch, err)
					}
					if onDecisionErr == nil {
						return fmt.Errorf("cluster: event at epoch %d: %w", ev.Epoch, err)
					}
					if err := onDecisionErr(ev, err); err != nil {
						return err
					}
					continue
				}
				if onDecision != nil {
					onDecision(ev, res)
				}
			}
		}
		// Every event through index i is resolved — applied, synthesized
		// stale, or already durable on its shard — so the cursor advances to
		// keep a later re-entry from routing them again.
		c.mu.Lock()
		if uint64(i) > c.cursor {
			c.cursor = uint64(i)
		}
		c.mu.Unlock()
		reps, err := c.RunEpoch(parallel)
		if err != nil {
			return err
		}
		if onEpoch != nil {
			for _, rep := range reps {
				onEpoch(rep)
			}
		}
		ticks++
		if checkpointEvery > 0 && ticks%checkpointEvery == 0 {
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes the meta journal and closes every shard store. Shards whose
// writer the retry loop already closed (reopen in progress when the budget
// ran out) are skipped.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.meta != nil {
		err = c.meta.Close()
	}
	for _, sh := range c.shards {
		if sh.closed {
			continue
		}
		sh.closed = true
		if cerr := sh.Store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
