package cluster_test

import (
	"errors"
	"fmt"
	"testing"

	"nprt/internal/cluster"
	"nprt/internal/experiments"
	"nprt/internal/feasibility"
	schedrt "nprt/internal/runtime"
	"nprt/internal/task"
)

const clusterSeed = 2018

// clusterTape is the shared churn script for the cluster tests: the same
// generator the soak uses, small enough for the kill sweep to visit every
// fsync boundary.
func clusterTape(events int) *schedrt.Tape {
	return experiments.GenerateChurnTape(clusterSeed, events)
}

func tapeHorizon(tp *schedrt.Tape) int64 {
	h := int64(8)
	if n := len(tp.Events); n > 0 {
		h += tp.Events[n-1].Epoch
	}
	return h
}

// playCluster drives the tape to its horizon, checkpointing every 5 ticks,
// tolerating the stale requests churn tapes deliberately contain.
func playCluster(c *cluster.Cluster, tp *schedrt.Tape) error {
	return c.PlayTape(tp, tapeHorizon(tp), 5, nil, nil, tolerateStale)
}

// playClusterBatched is playCluster through the concurrent drive: each
// tick's due events go to ApplyBatch (per-shard buckets committed in
// parallel) and the epoch runs with RunEpoch(true). It plays a fresh
// cluster only — unlike PlayTape it has no resume cursor.
func playClusterBatched(c *cluster.Cluster, tp *schedrt.Tape) error {
	horizon := tapeHorizon(tp)
	i := 0
	for ticks := 1; c.Epoch() < horizon; ticks++ {
		start := i
		for i < len(tp.Events) && tp.Events[i].Epoch <= c.Epoch() {
			i++
		}
		due := make([]schedrt.Event, 0, i-start)
		for j := start; j < i; j++ {
			ev := tp.Events[j]
			ev.Seq = uint64(j + 1)
			due = append(due, ev)
		}
		_, errs, err := c.ApplyBatch(due)
		if err != nil {
			return err
		}
		for j, err := range errs {
			if err != nil && !schedrt.IsStaleRequest(err) {
				return fmt.Errorf("event at epoch %d: %w", due[j].Epoch, err)
			}
		}
		if _, err := c.RunEpoch(true); err != nil {
			return err
		}
		if ticks%5 == 0 {
			if err := c.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// openCluster opens (and registers cleanup for) a cluster in dir.
func openCluster(t *testing.T, dir string, opt cluster.Options) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runFresh plays the tape on a fresh cluster — through PlayTape, or the
// concurrent drive when batched — and returns its final digests and
// partition map.
func runFresh(t *testing.T, opt cluster.Options, tp *schedrt.Tape, batched bool) ([]uint64, map[string]int) {
	t.Helper()
	c := openCluster(t, t.TempDir(), opt)
	play := playCluster
	if batched {
		play = playClusterBatched
	}
	if err := play(c, tp); err != nil {
		t.Fatal(err)
	}
	return c.Digests(), c.Owners()
}

func sameOwners(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func sameDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterParallelMatchesSerial is the soak invariant at test scale:
// routing is serial and each shard applies its bucket in route order, so
// the concurrent drive (ApplyBatch + RunEpoch(true)) must be bit-identical
// to PlayTape's serial Apply calls — same per-shard digests, same
// partition map.
func TestClusterParallelMatchesSerial(t *testing.T) {
	tp := clusterTape(400)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opt := cluster.Options{Shards: shards, Store: schedrt.StoreOptions{NoSync: true}}
			serialD, serialO := runFresh(t, opt, tp, false)
			parD, parO := runFresh(t, opt, tp, true)
			if !sameDigests(serialD, parD) {
				t.Errorf("parallel digests %x != serial %x", parD, serialD)
			}
			if !sameOwners(serialO, parO) {
				t.Errorf("parallel owners diverged from serial (%d vs %d entries)", len(parO), len(serialO))
			}
		})
	}
}

// TestPlayTapeReentry: driving the tape one epoch per PlayTape call (the
// CLI's signal-boundary loop) must be bit-identical to one call covering
// the whole horizon. Regression: a re-entry used to rescan from the
// minimum shard MaxSeq — which an empty shard pins at zero — and re-route
// events whose add/remove pair had already resolved, re-applying them.
func TestPlayTapeReentry(t *testing.T) {
	tp := clusterTape(200)
	opt := cluster.Options{Shards: 3, Store: schedrt.StoreOptions{NoSync: true}}
	oneShot, oneOwners := runFresh(t, opt, tp, false)

	c := openCluster(t, t.TempDir(), opt)
	horizon := tapeHorizon(tp)
	for c.Epoch() < horizon {
		if err := c.PlayTape(tp, c.Epoch()+1, 0, nil, nil, tolerateStale); err != nil {
			t.Fatal(err)
		}
	}
	if !sameDigests(oneShot, c.Digests()) {
		t.Errorf("epoch-at-a-time digests %x != one-shot %x", c.Digests(), oneShot)
	}
	if !sameOwners(oneOwners, c.Owners()) {
		t.Errorf("epoch-at-a-time owners diverged (%d vs %d entries)", len(c.Owners()), len(oneOwners))
	}
}

// TestPlacementDeterminism: the partition map is a pure function of
// (seed, tape, policy) — two fresh runs agree exactly, and the concurrent
// drive agrees with PlayTape, for every policy.
func TestPlacementDeterminism(t *testing.T) {
	tp := clusterTape(250)
	for _, policy := range cluster.PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			opt := cluster.Options{Shards: 3, Placement: policy, Store: schedrt.StoreOptions{NoSync: true}}
			d1, o1 := runFresh(t, opt, tp, false)
			d2, o2 := runFresh(t, opt, tp, false)
			if !sameDigests(d1, d2) || !sameOwners(o1, o2) {
				t.Fatalf("two serial runs diverged under %s", policy)
			}
			d3, o3 := runFresh(t, opt, tp, true)
			if !sameDigests(d1, d3) || !sameOwners(o1, o3) {
				t.Fatalf("parallel run diverged from serial under %s", policy)
			}
		})
	}
}

// TestMirrorMatchesShardTruth: after a churn run, every router mirror must
// agree with its shard's actual task set, and Probe must be verdict-
// identical to a full two-profile feasibility analysis over that set plus
// the candidate — the incremental screen is an optimization, never an
// approximation.
func TestMirrorMatchesShardTruth(t *testing.T) {
	tp := clusterTape(300)
	c := openCluster(t, t.TempDir(), cluster.Options{Shards: 4, Store: schedrt.StoreOptions{NoSync: true}})
	if err := playCluster(c, tp); err != nil {
		t.Fatal(err)
	}
	candidates := []task.Task{
		{Name: "probe-sm", Period: 80, WCETAccurate: 4, WCETImprecise: 1},
		{Name: "probe-md", Period: 160, WCETAccurate: 40, WCETImprecise: 8},
		{Name: "probe-lg", Period: 40, WCETAccurate: 30, WCETImprecise: 10},
	}
	total := 0
	for _, sh := range c.Shards() {
		specs := sh.Store.Runtime().Tasks()
		if sh.Resident() != len(specs) {
			t.Errorf("shard %d mirror holds %d tasks, store holds %d", sh.ID, sh.Resident(), len(specs))
		}
		total += len(specs)
		for _, cand := range candidates {
			cand := cand
			accGot, deepGot := sh.Probe(&cand)
			tasks := make([]task.Task, 0, len(specs)+1)
			for _, sp := range specs {
				tasks = append(tasks, sp.Task)
			}
			tasks = append(tasks, cand)
			set, err := task.New(tasks)
			if err != nil {
				t.Fatal(err)
			}
			acc, deep := feasibility.Profiles(set)
			if accGot != acc.Schedulable || deepGot != deep.Schedulable {
				t.Errorf("shard %d probe(%s) = (%v,%v), full analysis = (%v,%v)",
					sh.ID, cand.Name, accGot, deepGot, acc.Schedulable, deep.Schedulable)
			}
		}
	}
	if total == 0 {
		t.Fatal("churn run left no resident tasks — the tape is not exercising admission")
	}
	if len(c.Owners()) != total {
		t.Errorf("partition map has %d entries, shards hold %d tasks", len(c.Owners()), total)
	}
}

// TestClusterReopenResumes: a clean shutdown mid-tape must recover the
// partition map and resume to the uncrashed digests.
func TestClusterReopenResumes(t *testing.T) {
	tp := clusterTape(120)
	opt := cluster.Options{Shards: 3, Store: schedrt.StoreOptions{NoSync: true}}
	wantD, wantO := runFresh(t, opt, tp, false)

	dir := t.TempDir()
	c, err := cluster.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlayTape(tp, tapeHorizon(tp)/2, 5, nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}
	midOwners := c.Owners()
	c.Close()

	c = openCluster(t, dir, opt)
	rec := c.Recovery()
	if rec.Cursor == 0 {
		t.Fatalf("recovery found no durable prefix: %+v", rec)
	}
	if len(rec.Shards) != 3 {
		t.Fatalf("recovery has %d shard reports, want 3", len(rec.Shards))
	}
	if !sameOwners(midOwners, c.Owners()) {
		t.Fatalf("recovered map %v != pre-close map %v", c.Owners(), midOwners)
	}
	if err := playCluster(c, tp); err != nil {
		t.Fatal(err)
	}
	if !sameDigests(c.Digests(), wantD) {
		t.Errorf("resumed digests %x, uncrashed %x", c.Digests(), wantD)
	}
	if !sameOwners(c.Owners(), wantO) {
		t.Errorf("resumed owners diverged from uncrashed run")
	}
}

// crashNow is the sentinel the kill sweep panics with out of the fsync hook.
type crashNow struct{ point int }

// TestClusterKillSweep is the tentpole's durability criterion: kill the
// whole cluster (a panic out of the fsync hook — any shard journal, the
// meta journal, a checkpoint, the meta snapshot) at every durability
// boundary along the tape, reopen, finish the run, and require every
// shard's digest and the partition map to be bit-identical to the
// uncrashed run's.
//
// first-fit keeps nearly every event on shard 0, so it is swept again
// under round-robin, whose kill points fall between two shards' events of
// one tick. The first-fit points keep their top-level names.
func TestClusterKillSweep(t *testing.T) {
	killSweep(t, "first-fit")
	t.Run("round-robin", func(t *testing.T) { killSweep(t, "round-robin") })
}

func killSweep(t *testing.T, placement string) {
	tp := clusterTape(30)
	opt := cluster.Options{Shards: 3, Placement: placement, Store: schedrt.StoreOptions{}}
	wantD, wantO := runFresh(t, opt, tp, false)

	// Count the fsync boundaries of an uncrashed strict-sync run.
	total := 0
	countOpt := opt
	countOpt.Store.AfterSync = func() { total++ }
	{
		c := openCluster(t, t.TempDir(), countOpt)
		if err := playCluster(c, tp); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if total < 30 {
		t.Fatalf("only %d fsync boundaries — the tape is not exercising the WALs", total)
	}

	// Visit every boundary when cheap, stride when the tape is chatty.
	stride := 1
	if total > 120 {
		stride = total/120 + 1
	}
	for point := 1; point <= total; point += stride {
		point := point
		t.Run(fmt.Sprintf("kill@%d", point), func(t *testing.T) {
			dir := t.TempDir()
			crashOpt := opt
			n := 0
			crashOpt.Store.AfterSync = func() {
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
				c, err := cluster.Open(dir, crashOpt)
				if err != nil {
					t.Fatal(err)
				}
				// No Close: a crash leaks the fds, exactly like a real kill.
				_ = playCluster(c, tp)
				t.Fatalf("run with kill point %d finished without crashing", point)
			}()

			c, err := cluster.Open(dir, opt)
			if err != nil {
				t.Fatalf("recovery after kill %d: %v", point, err)
			}
			defer c.Close()
			if err := playCluster(c, tp); err != nil {
				t.Fatalf("resume after kill %d: %v", point, err)
			}
			if !sameDigests(c.Digests(), wantD) {
				t.Errorf("kill point %d: digests %x, uncrashed %x", point, c.Digests(), wantD)
			}
			if !sameOwners(c.Owners(), wantO) {
				t.Errorf("kill point %d: partition map diverged (recovered %v, want %v)",
					point, c.Owners(), wantO)
			}
		})
	}
}

// TestClusterRefusesFewerShards: shrinking the shard count on reopen would
// strand tasks outside the router — it must be refused loudly.
func TestClusterRefusesFewerShards(t *testing.T) {
	dir := t.TempDir()
	opt := cluster.Options{Shards: 3, Store: schedrt.StoreOptions{NoSync: true}}
	c, err := cluster.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	opt.Shards = 2
	if _, err := cluster.Open(dir, opt); err == nil {
		t.Fatal("reopen with fewer shards accepted")
	}

	// Growing is fine: the new shard starts empty.
	opt.Shards = 5
	c, err = cluster.Open(dir, opt)
	if err != nil {
		t.Fatalf("reopen with more shards: %v", err)
	}
	if len(c.Shards()) != 5 {
		t.Errorf("grew to %d shards, want 5", len(c.Shards()))
	}
	c.Close()
}

// TestClusterRejectsWrongTape: the durable sequence cursor must catch a
// restart against a shorter tape.
func TestClusterRejectsWrongTape(t *testing.T) {
	dir := t.TempDir()
	tp := clusterTape(80)
	opt := cluster.Options{Shards: 2, Store: schedrt.StoreOptions{NoSync: true}}
	c, err := cluster.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := playCluster(c, tp); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c = openCluster(t, dir, opt)
	short := &schedrt.Tape{Events: tp.Events[:3]}
	if err := c.PlayTape(short, tapeHorizon(tp), 0, nil, nil, nil); !errors.Is(err, cluster.ErrWrongTape) {
		t.Fatalf("short tape accepted: %v", err)
	}
}
