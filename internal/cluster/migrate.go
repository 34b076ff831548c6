// Live task migration: checkpoint-handoff of tasks between shards, the
// evacuation path that drains a Failed shard, and the skew-triggered
// rebalancer that reuses the same handoff.
//
// Protocol. A handoff of task T from shard F to shard S is a three-phase
// write fenced by the meta journal (migration records are ALWAYS fsynced,
// even under RelaxedMeta — their ordering carries the exactly-once
// argument):
//
//	mbegin(T, F→S)  fsync     declare intent; nothing physical yet
//	add T on S      durable   re-screened by S's own Theorem-1 admission,
//	                          journaled in S's WAL under a fresh sequence
//	mcommit(T, F→S) fsync     the target copy is durable; T's home is S
//	remove T on F   durable   source copy released (skipped when F is a
//	                          wedged shard being evacuated — the re-image
//	                          wipes it wholesale)
//
// A crash at any boundary recovers to exactly one live copy
// (completeMigrationsLocked): after mbegin alone, the target either holds
// T (the add was durable — roll forward: append mcommit, remove the source
// copy) or it does not (roll back: append mabort; the source copy, if any,
// stands). After mcommit, the source copy — if the remove was lost — is
// removed. The screen can also reject T on S: the handoff then aborts
// (mabort) with the source intact, or — when the source is a dead shard
// being evacuated — records an explicit eviction (mevict) so the loss is
// an auditable decision, never silence.
//
// Evacuation ends with mreset(F, fence) + re-image: the shard directory is
// deleted and a fresh empty store opened. The fence is the cluster
// sequence at reset time; recovery re-executes the wipe only while the
// shard's durable state is still at or below it (replayResetsLocked), so a
// re-imaged shard that has since admitted new work is never wiped again.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"

	"nprt/internal/journal"
	"nprt/internal/runtime"
	"nprt/internal/task"
)

// Move reports one attempted handoff.
type Move struct {
	Name string `json:"name"`
	From int    `json:"from"`
	To   int    `json:"to"`
	// Moved: the target re-admitted the task (its copy is durable and it
	// now owns the name). Evicted: no shard could take it — the task was
	// explicitly dropped (mevict), never silently lost.
	Moved   bool `json:"moved"`
	Evicted bool `json:"evicted"`
	// Decision is the target shard's admission verdict.
	Decision runtime.Decision `json:"decision"`
}

// EvacReport summarizes one EvacuateShard.
type EvacReport struct {
	Shard    int    `json:"shard"`
	Moves    []Move `json:"moves"`
	Migrated int    `json:"migrated"`
	Evicted  int    `json:"evicted"`
}

// RebalanceOptions tunes the skew-triggered rebalancer. Hysteresis: moves
// start only at skew ≥ HighSkew and stop at skew ≤ LowSkew, so a cluster
// hovering at the threshold does not thrash tasks back and forth.
type RebalanceOptions struct {
	// HighSkew triggers rebalancing: max−min accurate utilization over the
	// alive shards (default 0.4).
	HighSkew float64
	// LowSkew is the stop target (default HighSkew/2).
	LowSkew float64
	// MaxMoves bounds one Rebalance call (default 8).
	MaxMoves int
}

func (o RebalanceOptions) withDefaults() RebalanceOptions {
	if o.HighSkew <= 0 {
		o.HighSkew = 0.4
	}
	if o.LowSkew <= 0 {
		o.LowSkew = o.HighSkew / 2
	}
	if o.MaxMoves <= 0 {
		o.MaxMoves = 8
	}
	return o
}

// metaAppendSynced journals one migration-protocol record and fsyncs it
// unconditionally: the handoff's crash-safety argument is an ordering
// argument over these records, so RelaxedMeta does not apply to them.
func (c *Cluster) metaAppendSynced(mr metaRecord) error {
	payload, err := json.Marshal(mr)
	if err != nil {
		return err
	}
	if _, err := c.meta.Append(journal.TypeEvent, payload); err != nil {
		return err
	}
	return c.meta.Sync()
}

// stampSeqLocked allocates the next cluster sequence number.
func (c *Cluster) stampSeqLocked() uint64 {
	c.seq++
	return c.seq
}

// taskLiveLocked reports whether shard si's runtime holds name.
func (c *Cluster) taskLiveLocked(si int, name string) bool {
	for _, sp := range c.shards[si].Store.Runtime().Tasks() {
		if sp.Task.Name == name {
			return true
		}
	}
	return false
}

// findSpecLocked returns shard si's live spec for name.
func (c *Cluster) findSpecLocked(si int, name string) (runtime.TaskSpec, bool) {
	for _, sp := range c.shards[si].Store.Runtime().Tasks() {
		if sp.Task.Name == name {
			return sp, true
		}
	}
	return runtime.TaskSpec{}, false
}

// handoffLocked runs the migration protocol for one task under c.mu.
// srcLive=true is the live path (source shard serving: remove the source
// copy durably after commit); srcLive=false is evacuation (the source is
// Failed — its copy is disposed of wholesale by the re-image, and a target
// rejection becomes an explicit eviction rather than an abort).
func (c *Cluster) handoffLocked(spec runtime.TaskSpec, from, to int, srcLive bool) (Move, error) {
	mv := Move{Name: spec.Task.Name, From: from, To: to}

	// Phase 1: declare intent. The add's sequence number doubles as the
	// migration's identity — recovery matches target state by name, but the
	// fence keeps the meta clock monotone across crashes.
	addSeq := c.stampSeqLocked()
	if err := c.metaAppendSynced(metaRecord{Kind: "mbegin", Seq: addSeq, Name: mv.Name, Shard: from, To: to}); err != nil {
		return mv, err
	}

	// Phase 2: durable, re-screened admission on the target. The event goes
	// through the containment loop like any routed add; Seq-dedup protects a
	// retry whose first attempt was durable after all.
	ev := runtime.Event{
		Epoch: c.shards[to].Store.Epoch(),
		Op:    "add",
		Task:  &spec,
		Seq:   addSeq,
	}
	decs, evErrs, _, err := c.shardApplyBatch(to, true, []runtime.Event{ev})
	dec, evErr := decs[0], evErrs[0]
	if err != nil {
		// Target shard failed mid-handoff: roll back so the source copy (or
		// the evacuation's eviction accounting) stays the single truth.
		if aerr := c.metaAppendSynced(metaRecord{Kind: "mabort", Seq: addSeq, Name: mv.Name, Shard: from, To: to}); aerr != nil {
			return mv, aerr
		}
		return mv, err
	}
	mv.Decision = dec
	admitted := evErr == nil && dec.Verdict != runtime.Rejected
	if !admitted {
		if !srcLive {
			// Evacuation with no shard able to take the task: explicit,
			// journaled eviction. The source copy disappears with the
			// re-image; the owner entry goes now.
			if err := c.metaAppendSynced(metaRecord{Kind: "mevict", Seq: addSeq, Name: mv.Name, Shard: from, To: to}); err != nil {
				return mv, err
			}
			if addSeq >= c.ownerSeq[mv.Name] {
				c.ownerSeq[mv.Name] = addSeq
				delete(c.owner, mv.Name)
			}
			mv.Evicted = true
			return mv, nil
		}
		if err := c.metaAppendSynced(metaRecord{Kind: "mabort", Seq: addSeq, Name: mv.Name, Shard: from, To: to}); err != nil {
			return mv, err
		}
		return mv, nil // source copy stands; not an error
	}

	// Phase 3: commit. From here on, recovery rolls the handoff forward.
	if err := c.metaAppendSynced(metaRecord{Kind: "mcommit", Seq: addSeq, Name: mv.Name, Shard: from, To: to}); err != nil {
		return mv, err
	}
	mv.Moved = true
	if !c.shards[to].inc.Has(mv.Name) {
		c.shards[to].inc.Add(&spec.Task)
	}
	if addSeq >= c.ownerSeq[mv.Name] {
		c.ownerSeq[mv.Name] = addSeq
		c.owner[mv.Name] = to
	}

	// Phase 4: release the source copy (live path only).
	if srcLive {
		rmSeq := c.stampSeqLocked()
		rmEv := runtime.Event{
			Epoch: c.shards[from].Store.Epoch(),
			Op:    "remove",
			Name:  mv.Name,
			Seq:   rmSeq,
		}
		// A stale remove (the copy was already gone) is fine; only a shard
		// failure matters.
		_, _, _, rmErr := c.shardApplyBatch(from, true, []runtime.Event{rmEv})
		c.shards[from].inc.Remove(mv.Name)
		if rmErr != nil {
			// The move is committed — the target owns the task — but the
			// source shard failed before releasing its copy. Recovery (or the
			// shard's eventual evacuation) finishes the release; surface the
			// shard failure without undoing the move.
			return mv, rmErr
		}
	}
	return mv, nil
}

// MigrateTask moves one live task to the given shard through the handoff
// protocol. A no-op when the task already lives there.
func (c *Cluster) MigrateTask(name string, to int) (Move, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if to < 0 || to >= len(c.shards) {
		return Move{Name: name, To: to}, fmt.Errorf("cluster: migrate %q: no shard %d", name, to)
	}
	from, ok := c.owner[name]
	if !ok {
		return Move{Name: name, To: to}, runtime.ErrUnknownTask
	}
	if from == to {
		return Move{Name: name, From: from, To: to, Moved: true}, nil
	}
	if c.health[to].State == Failed {
		return Move{Name: name, From: from, To: to}, fmt.Errorf("%w: migrate %q target shard %d", ErrShardFailed, name, to)
	}
	spec, ok := c.findSpecLocked(from, name)
	if !ok {
		return Move{Name: name, From: from, To: to}, runtime.ErrUnknownTask
	}
	return c.handoffLocked(spec, from, to, true)
}

// EvacuateShard drains a dead shard: its last durable state is recovered
// read-only (newest good checkpoint + WAL replay — no writer is opened on
// the possibly-wedged directory), every task is handed off to a surviving
// shard under that shard's own admission screen (or explicitly evicted
// when none accepts), and the shard is re-imaged empty behind an mreset
// fence. The shard rejoins the cluster Healthy at epoch 0; RunEpoch's
// min-rule walks it back to lockstep.
func (c *Cluster) EvacuateShard(si int) (EvacReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := EvacReport{Shard: si}
	if si < 0 || si >= len(c.shards) {
		return rep, fmt.Errorf("cluster: evacuate: no shard %d", si)
	}
	if len(c.shards) == 1 {
		return rep, fmt.Errorf("cluster: evacuate shard %d: single-shard cluster has nowhere to drain", si)
	}
	if c.health[si].State != Failed {
		c.setHealthStateLocked(si, Failed)
		if c.health[si].LastError == "" {
			c.health[si].LastError = "evacuated by operator"
		}
	}

	// Export from the last durable state, read-only. The live store object
	// may be poisoned or mid-reopen; disk is the truth.
	rt, err := runtime.InspectStore(c.primaryDir(si), c.shardStoreOptions(si))
	if err != nil {
		return rep, fmt.Errorf("cluster: evacuate shard %d: inspect: %w", si, err)
	}

	for _, spec := range rt.Tasks() {
		name := spec.Task.Name
		// Target: the policy's preference among survivors, then any survivor
		// whose mirror deep-accepts; with none accepting we still run the
		// handoff against the policy choice so the rejection (and eviction)
		// is the shard screen's durable decision, not the router's guess.
		cands := make([]*Shard, 0, len(c.shards)-1)
		for j, sh := range c.shards {
			if j == si || c.health[j].State == Failed {
				continue
			}
			cands = append(cands, sh)
		}
		if len(cands) == 0 {
			seq := c.stampSeqLocked()
			if err := c.metaAppendSynced(metaRecord{Kind: "mevict", Seq: seq, Name: name, Shard: si}); err != nil {
				return rep, err
			}
			if seq >= c.ownerSeq[name] {
				c.ownerSeq[name] = seq
				delete(c.owner, name)
			}
			rep.Moves = append(rep.Moves, Move{Name: name, From: si, To: -1, Evicted: true})
			rep.Evicted++
			continue
		}
		pi := c.policy.Place(&spec.Task, cands, c.rr)
		if pi < 0 || pi >= len(cands) {
			pi = 0
		}
		target := cands[pi]
		if _, deepOK := target.Probe(&spec.Task); !deepOK {
			for _, alt := range cands {
				if alt.ID == target.ID {
					continue
				}
				if _, ok := alt.Probe(&spec.Task); ok {
					target = alt
					break
				}
			}
		}
		mv, err := c.handoffLocked(spec, si, target.ID, false)
		if err != nil {
			return rep, err
		}
		rep.Moves = append(rep.Moves, mv)
		if mv.Moved {
			rep.Migrated++
		}
		if mv.Evicted {
			rep.Evicted++
		}
	}

	// Fence + re-image. The fence is the current cluster sequence: every
	// event the old incarnation ever journaled is at or below it, and every
	// event the fresh incarnation will journal is above it — which is what
	// lets recovery decide whether the wipe still applies.
	if err := c.metaAppendSynced(metaRecord{Kind: "mreset", Seq: c.seq, Shard: si}); err != nil {
		return rep, err
	}
	if err := c.reimageShardLocked(si); err != nil {
		return rep, err
	}
	return rep, nil
}

// reimageShardLocked wipes shard si's directory and opens a fresh empty
// store in its place, returning the shard to Healthy.
func (c *Cluster) reimageShardLocked(si int) error {
	sh := c.shards[si]
	if !sh.closed {
		sh.Store.Close() // poisoned writers close without flushing; fine
		sh.closed = true
	}
	if err := os.RemoveAll(c.primaryDir(si)); err != nil {
		return fmt.Errorf("cluster: re-image shard %d: %w", si, err)
	}
	st, err := runtime.OpenStore(c.primaryDir(si), c.shardStoreOptions(si))
	if err != nil {
		return fmt.Errorf("cluster: re-image shard %d: %w", si, err)
	}
	sh.Store, sh.closed = st, false
	sh.inc.Reset(nil)
	c.setHealthStateLocked(si, Healthy)
	h := &c.health[si]
	h.ConsecErrs = 0
	h.LastError = ""
	h.Reimages++
	// Followers mirror the re-image: their old bytes describe a store
	// that no longer exists, so demote and re-seed from the fresh primary.
	for _, r := range c.replicas[si] {
		if r.inSync {
			r.inSync = false
			h.ReplicaDemotions++
		}
	}
	c.reseedReplicasLocked(si)
	return nil
}

// Rebalance runs the skew-triggered rebalancer: while the accurate-
// utilization spread (max−min over alive shards) is at or above HighSkew,
// migrate tasks from the most- to the least-loaded shard through the live
// handoff path, stopping at LowSkew, MaxMoves, or when no candidate task
// both shrinks the gap and passes the receiver's screen.
func (c *Cluster) Rebalance(opt RebalanceOptions) ([]Move, error) {
	opt = opt.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	var moves []Move
	for len(moves) < opt.MaxMoves {
		donor, recv := -1, -1
		var maxU, minU float64
		for i := range c.shards {
			if c.health[i].State == Failed {
				continue
			}
			u := c.shards[i].Util(task.Accurate)
			if donor < 0 || u > maxU {
				donor, maxU = i, u
			}
			if recv < 0 || u < minU {
				recv, minU = i, u
			}
		}
		if donor < 0 || donor == recv {
			break
		}
		skew := maxU - minU
		if len(moves) == 0 && skew < opt.HighSkew {
			break // below trigger: hysteresis leaves the cluster alone
		}
		if skew <= opt.LowSkew {
			break // reached the stop target
		}
		// First donor task that strictly shrinks the gap and fits the
		// receiver (deep profile — the admission screen's own bar).
		var cand runtime.TaskSpec
		found := false
		for _, sp := range c.shards[donor].Store.Runtime().Tasks() {
			u := float64(sp.Task.WCET(task.Accurate)) / float64(sp.Task.Period)
			if u >= skew {
				continue // moving it would overshoot into reverse skew
			}
			if _, deepOK := c.shards[recv].Probe(&sp.Task); !deepOK {
				continue
			}
			cand, found = sp, true
			break
		}
		if !found {
			break
		}
		mv, err := c.handoffLocked(cand, donor, recv, true)
		if err != nil {
			return moves, err
		}
		moves = append(moves, mv)
		if !mv.Moved {
			break
		}
	}
	return moves, nil
}

// replayResetsLocked re-executes evacuation re-images whose wipe may have
// been lost: an mreset fence means "shard si restarts empty after sequence
// fence". If the shard's durable state is still at or below the fence and
// non-empty, the crash hit between the fence and the wipe — re-execute it.
// A shard already re-imaged (empty, or holding post-fence admissions) is
// left alone.
func (c *Cluster) replayResetsLocked(resets []metaRecord) error {
	for _, mr := range resets {
		si := mr.Shard
		if si < 0 || si >= len(c.shards) {
			continue
		}
		st := c.shards[si].Store
		if st.MaxSeq() > mr.Seq {
			continue // fresh incarnation has journaled past the fence
		}
		if len(st.Runtime().Tasks()) == 0 && st.MaxSeq() == 0 {
			continue // already empty: the wipe (or a fresh image) completed
		}
		if err := c.reimageShardLocked(si); err != nil {
			return err
		}
		c.rec.ResetsReplayed++
	}
	return nil
}

// completeMigrationsLocked rolls in-flight handoffs forward or back against
// shard truth during Open, before map reconciliation. For each name, only
// its LAST protocol record matters:
//
//	mbegin:  target holds the task → the add was durable: append mcommit
//	         and release any source copy (roll forward). Otherwise append
//	         mabort (roll back; the source copy, if any, stands).
//	mcommit: release the source copy if the post-commit remove was lost.
//	mabort / mevict: nothing physical. (An mevict whose evacuation never
//	         reached its mreset leaves the source copy live; reconciliation
//	         adopts it back — conservative retention, never silent loss.)
//
// Runs after replayResetsLocked so a completed evacuation's wipe cannot be
// mistaken for a lost target copy.
func (c *Cluster) completeMigrationsLocked(migNames []string, migs map[string]metaRecord) error {
	removeFrom := func(si int, name string) error {
		if si < 0 || si >= len(c.shards) || !c.taskLiveLocked(si, name) {
			return nil
		}
		ev := runtime.Event{
			Epoch: c.shards[si].Store.Epoch(),
			Op:    "remove",
			Name:  name,
			Seq:   c.stampSeqLocked(),
		}
		_, _, _, err := c.shardApplyBatch(si, true, []runtime.Event{ev})
		if err != nil {
			return err
		}
		c.shards[si].inc.Remove(name)
		return nil
	}
	for _, name := range migNames {
		mr := migs[name]
		switch mr.Kind {
		case "mbegin":
			if mr.To >= 0 && mr.To < len(c.shards) && c.taskLiveLocked(mr.To, name) {
				if err := c.metaAppendSynced(metaRecord{Kind: "mcommit", Seq: mr.Seq, Name: name, Shard: mr.Shard, To: mr.To}); err != nil {
					return err
				}
				if err := removeFrom(mr.Shard, name); err != nil {
					return err
				}
				c.rec.MigrationsCompleted++
			} else {
				if err := c.metaAppendSynced(metaRecord{Kind: "mabort", Seq: mr.Seq, Name: name, Shard: mr.Shard, To: mr.To}); err != nil {
					return err
				}
				c.rec.MigrationsAborted++
			}
		case "mcommit":
			if mr.To >= 0 && mr.To < len(c.shards) && c.taskLiveLocked(mr.To, name) && c.taskLiveLocked(mr.Shard, name) {
				if err := removeFrom(mr.Shard, name); err != nil {
					return err
				}
				c.rec.MigrationsCompleted++
			}
		case "mabort", "mevict":
			// Nothing physical to do; reconciliation derives the map.
		}
	}
	return nil
}
