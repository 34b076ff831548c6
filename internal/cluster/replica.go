// Per-shard replication: every shard can carry R synchronous followers —
// byte-identical copies of the primary's store directory, maintained by
// journal.Mirror frame shipping after every acknowledged shard op. When
// the primary exhausts its retry budget, the health machine promotes a
// follower instead of declaring the shard Failed: the partition keeps
// serving through a dead disk, and the shed path (503) becomes the
// fallback of last resort rather than the failure handling.
//
// The failover argument, in three invariants:
//
//  1. Acked ⇒ shipped. runShardOp ships to every in-sync follower
//     before an op's success is returned, so any acknowledged event is
//     on every in-sync follower's disk. A ship failure demotes the
//     follower (out of the candidate set) rather than failing the op.
//  2. Promotion is deterministic: the candidate is the in-sync follower
//     with the highest replicated WAL high-water mark, lowest slot on
//     ties — a pure function of (health state, replica HWMs), pinned by
//     the parallel==serial chaos drives. The commit point is a fsynced
//     "promote" meta record; recovery replays it, so the cluster can
//     never reopen with two primaries for one shard.
//  3. Exactly-once across failover: the promoted store holds exactly
//     the acked prefix. An in-flight (unacked) op retries against it
//     under the same MaxSeq dedup guard as any reopen retry; bytes the
//     dying primary landed but never acked die with its demotion — the
//     old primary dir re-enters as an out-of-sync follower and is wiped
//     by re-seed before it can serve anything.
package cluster

import (
	"fmt"
	"os"
	"time"

	"nprt/internal/journal"
	"nprt/internal/runtime"
)

// replica is one follower slot of one shard.
type replica struct {
	slot    int // directory slot (0 = the base shard dir)
	mirror  *journal.Mirror
	inSync  bool
	lastErr string
}

// ReplicaInfo is a follower's state for /state and diagnostics.
type ReplicaInfo struct {
	Slot      int    `json:"slot"`
	InSync    bool   `json:"in_sync"`
	LastError string `json:"last_error,omitempty"`
}

// replDir names shard si's slot directory: slot 0 is the original shard
// directory (so unreplicated layouts are the degenerate case), slot k ≥ 1
// is "<shard>.rk" beside it.
func replDir(dir string, si, slot int) string {
	if slot == 0 {
		return shardDir(dir, si)
	}
	return shardDir(dir, si) + fmt.Sprintf(".r%d", slot)
}

// primaryDir is the directory shard si's primary store currently lives
// in — slot 0 until a promotion moves it.
func (c *Cluster) primaryDir(si int) string {
	return replDir(c.dir, si, c.primary[si])
}

// PrimarySlot reports which slot directory currently holds shard si's
// primary (0 when replication is off).
func (c *Cluster) PrimarySlot(si int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary[si]
}

// slotInjector resolves the fault injector for one (shard, slot) drive.
func (c *Cluster) slotInjector(si, slot int) journal.Injector {
	if slot == 0 {
		if c.opt.Inject != nil {
			return c.opt.Inject(si)
		}
		return nil
	}
	if c.opt.InjectReplica != nil {
		return c.opt.InjectReplica(si, slot)
	}
	return nil
}

// newReplicaMirror builds the shipping stream for one follower slot,
// sourced from the shard's current primary directory.
func (c *Cluster) newReplicaMirror(si, slot int) *journal.Mirror {
	return journal.NewMirror(c.primaryDir(si), replDir(c.dir, si, slot), journal.MirrorOptions{
		Inject:    c.slotInjector(si, slot),
		NoSync:    c.opt.Store.NoSync,
		AfterSync: c.opt.Store.AfterSync,
	})
}

// initReplicasLocked builds shard si's follower set at open: one replica
// per slot that is not the primary. Followers that already hold the
// primary's exact bytes are adopted in-sync; anything else — missing,
// diverged, or the demoted old primary after a failover — is re-seeded.
// A follower whose drive refuses the re-seed enters out-of-sync rather
// than failing Open: the primary must come up even with a dead follower
// disk.
func (c *Cluster) initReplicasLocked(si int) {
	var reps []*replica
	for slot := 0; slot <= c.opt.Replicas; slot++ {
		if slot == c.primary[si] {
			continue
		}
		r := &replica{slot: slot, mirror: c.newReplicaMirror(si, slot)}
		if err := r.mirror.Verify(); err == nil {
			r.inSync = true
		} else if err := c.reseedReplicaLocked(si, r); err != nil {
			r.lastErr = err.Error()
			c.health[si].ReplicaDemotions++
		}
		reps = append(reps, r)
	}
	c.replicas[si] = reps
}

// shipShardLocked streams the primary's new bytes to every in-sync
// follower. Called with c.mu held, after (and only after) a successful
// shard op — this is what makes the replication synchronous: the op's
// success is not returned until each in-sync follower holds its bytes. A
// failed ship demotes that follower; it never fails the primary op.
func (c *Cluster) shipShardLocked(si int) {
	for _, r := range c.replicas[si] {
		if !r.inSync {
			continue
		}
		if err := r.mirror.Sync(); err != nil {
			r.inSync = false
			r.lastErr = err.Error()
			c.health[si].ReplicaDemotions++
		}
	}
}

// reseedReplicaLocked rebuilds one follower from the primary's last
// checkpoint + WAL tail: wipe, ship everything through a fresh mirror,
// verify byte-identity, and prove the copy actually recovers by opening
// it read-only (InspectStore) and cross-checking the runtime digest
// against the live primary. On success the follower is in-sync.
func (c *Cluster) reseedReplicaLocked(si int, r *replica) error {
	dst := replDir(c.dir, si, r.slot)
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	r.mirror = c.newReplicaMirror(si, r.slot)
	r.inSync = false
	if err := r.mirror.Sync(); err != nil {
		return err
	}
	if err := r.mirror.Verify(); err != nil {
		return err
	}
	so := c.shardStoreOptions(si)
	so.Inject = nil // read-only pass; the scan consumes no device ops
	rt, err := runtime.InspectStore(dst, so)
	if err != nil {
		return fmt.Errorf("re-seeded replica does not recover: %w", err)
	}
	if sh := c.shards[si]; !sh.closed {
		if got, want := rt.Digest(), sh.Store.Digest(); got != want {
			return fmt.Errorf("re-seeded replica recovers to digest %016x, primary is %016x", got, want)
		}
	}
	r.inSync = true
	r.lastErr = ""
	c.health[si].ReplicaReseeds++
	return nil
}

// reseedReplicasLocked re-seeds every out-of-sync follower of shard si,
// returning how many came back. Failures leave the follower out-of-sync
// with the error recorded.
func (c *Cluster) reseedReplicasLocked(si int) int {
	n := 0
	for _, r := range c.replicas[si] {
		if r.inSync {
			continue
		}
		if err := c.reseedReplicaLocked(si, r); err != nil {
			r.lastErr = err.Error()
			continue
		}
		n++
	}
	return n
}

// ReseedReplicas is the maintenance entry point: re-seed every
// out-of-sync follower of shard si from the primary. The chaos driver
// calls it after healing a follower drive; operators would call it after
// replacing one.
func (c *Cluster) ReseedReplicas(si int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if si < 0 || si >= len(c.shards) {
		return 0, fmt.Errorf("cluster: reseed: no shard %d", si)
	}
	if c.shards[si].closed {
		return 0, fmt.Errorf("cluster: reseed shard %d: primary store is closed", si)
	}
	return c.reseedReplicasLocked(si), nil
}

// verifyReplicasLocked digest-checks every in-sync follower against the
// primary's bytes, demoting any that diverged (silent follower-disk
// corruption — the bit-rot case Verify exists for).
func (c *Cluster) verifyReplicasLocked(si int) {
	for _, r := range c.replicas[si] {
		if !r.inSync {
			continue
		}
		if err := r.mirror.Verify(); err != nil {
			r.inSync = false
			r.lastErr = err.Error()
			c.health[si].ReplicaDemotions++
		}
	}
}

// Replicas reports shard si's follower states, by slot order.
func (c *Cluster) Replicas(si int) []ReplicaInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicaInfoLocked(si)
}

func (c *Cluster) replicaInfoLocked(si int) []ReplicaInfo {
	var out []ReplicaInfo
	for _, r := range c.replicas[si] {
		out = append(out, ReplicaInfo{Slot: r.slot, InSync: r.inSync, LastError: r.lastErr})
	}
	return out
}

// promoteShardLocked is the failover: called with c.mu held when shard
// si's primary has exhausted its retry budget. It deterministically picks
// the in-sync follower with the highest replicated WAL high-water mark
// (lowest slot on ties), opens a store on its directory, commits the role
// change with a fsynced "promote" meta record, and swaps it in as the
// primary; the old primary's directory re-enters the set as an
// out-of-sync follower awaiting re-seed. Returns false (leaving the
// Failed path to the caller) when no in-sync follower exists or none can
// be opened.
func (c *Cluster) promoteShardLocked(si int) bool {
	reps := c.replicas[si]
	if len(reps) == 0 {
		return false
	}
	// Rank candidates: every in-sync follower, by (HWM desc, slot asc).
	type cand struct {
		r   *replica
		hwm uint64
	}
	var cands []cand
	for _, r := range reps {
		if !r.inSync {
			continue
		}
		hwm, err := journal.HighWater(replDir(c.dir, si, r.slot))
		if err != nil {
			r.inSync = false
			r.lastErr = err.Error()
			c.health[si].ReplicaDemotions++
			continue
		}
		cands = append(cands, cand{r, hwm})
	}
	for len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].hwm > cands[best].hwm ||
				(cands[i].hwm == cands[best].hwm && cands[i].r.slot < cands[best].r.slot) {
				best = i
			}
		}
		pick := cands[best]
		cands = append(cands[:best], cands[best+1:]...)

		newSlot := pick.r.slot
		st, err := runtime.OpenStore(replDir(c.dir, si, newSlot), c.slotStoreOptions(si, newSlot))
		if err != nil {
			// The follower's bytes verified but its store won't open —
			// demote it and try the next candidate.
			pick.r.inSync = false
			pick.r.lastErr = fmt.Sprintf("promotion open failed: %v", err)
			c.health[si].ReplicaDemotions++
			continue
		}
		// Commit point: the promote record. Before it is durable, recovery
		// opens the old primary (the acked prefix); after it, the new one
		// (the identical acked prefix). Either side of the boundary is
		// exactly-once.
		if err := c.metaAppendSynced(metaRecord{Kind: "promote", Seq: c.seq, Shard: si, To: newSlot}); err != nil {
			st.Close()
			return false // meta journal failure: no role change, shard fails
		}
		sh := c.shards[si]
		if !sh.closed {
			sh.Store.Close() // error already accounted by the failed op
			sh.closed = true
		}
		oldSlot := c.primary[si]
		sh.Store, sh.closed = st, false
		c.primary[si] = newSlot

		// Rebuild the follower set around the new primary: the old primary
		// dir becomes an out-of-sync follower (it may hold unacked bytes
		// past the acked prefix — only a re-seed wipe makes it safe);
		// surviving in-sync followers stay in-sync (their bytes equal the
		// new primary's) with mirrors re-pointed at the new source.
		var next []*replica
		for _, r := range reps {
			if r.slot == newSlot {
				continue
			}
			r.mirror = c.newReplicaMirror(si, r.slot)
			next = append(next, r)
		}
		next = append(next, &replica{
			slot:    oldSlot,
			mirror:  c.newReplicaMirror(si, oldSlot),
			lastErr: "demoted by failover; awaiting re-seed",
		})
		c.replicas[si] = next

		h := &c.health[si]
		h.Promotions++
		h.LastError = fmt.Sprintf("promoted follower slot %d after: %s", newSlot, h.LastError)
		return true
	}
	return false
}

// slotStoreOptions is shardStoreOptions pinned to an explicit slot drive
// (promotion opens a store on a follower slot before primary[] is
// updated).
func (c *Cluster) slotStoreOptions(si, slot int) runtime.StoreOptions {
	so := c.opt.Store
	so.Runtime.Seed = c.opt.Store.Runtime.Seed + uint64(si)*shardSeedSalt
	if inj := c.slotInjector(si, slot); inj != nil {
		so.Inject = inj
	}
	if c.opt.Clock != nil {
		so.Clock = c.opt.Clock(si)
	}
	// Latency capture follows the primary ROLE, not the drive: only the
	// primary's WAL writer is opened through this path, so after a
	// promotion the tracker automatically samples the new device. Mirror
	// ships never pass through here and never pollute the samples.
	if c.lat != nil {
		t := c.lat[si]
		so.Observe = func(sync bool, d time.Duration) { t.Record(d) }
	}
	return so
}

// RetryAfterHint derives a client backoff hint from shard si's actual
// containment state: the deterministic delay the retry loop itself would
// wait before the shard's next attempt, given its consecutive-error
// count. Healthy shards hint the first-attempt delay. The serve layer
// turns this into Retry-After on partition-scoped 503s, so clients back
// off in step with the recovery machinery instead of a fixed constant.
func (c *Cluster) RetryAfterHint(si int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if si < 0 || si >= len(c.health) {
		return 0
	}
	attempt := c.health[si].ConsecErrs
	if attempt < 1 {
		attempt = 1
	}
	if attempt > c.retry.MaxAttempts {
		attempt = c.retry.MaxAttempts
	}
	return c.retry.delay(si, attempt)
}
