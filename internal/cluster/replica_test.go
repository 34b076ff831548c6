package cluster_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nprt/internal/cluster"
	"nprt/internal/journal"
	schedrt "nprt/internal/runtime"
)

// replicated returns Options for a 2-shard, 1-follower cluster whose
// shard-0 drives are individually wedgeable: prim is slot 0's injector,
// fol is slot 1's. Other drives run uninjected.
func replicated(prim, fol journal.Injector) cluster.Options {
	return cluster.Options{
		Shards:    2,
		Replicas:  1,
		Placement: "first-fit",
		Store:     schedrt.StoreOptions{NoSync: true},
		Inject: func(si int) journal.Injector {
			if si == 0 {
				return prim
			}
			return nil
		},
		InjectReplica: func(si, slot int) journal.Injector {
			if si == 0 && slot == 1 {
				return fol
			}
			return nil
		},
		Retry: cluster.RetryOptions{MaxAttempts: 3, Sleep: noSleep},
	}
}

// TestReplicaShipAndPromote: the zero-shed failover path end to end. A
// wedged primary drive used to mean ErrShardFailed and shed traffic
// (TestShardFailureContainment); with a follower the same wedge promotes
// mid-op, the caller sees plain success, and nothing acked is lost.
func TestReplicaShipAndPromote(t *testing.T) {
	prim := &flakyInjector{}
	c := openCluster(t, t.TempDir(), replicated(prim, nil))

	for i := 0; i < 3; i++ {
		if _, err := c.Apply(addEvent(fmt.Sprintf("s%d", i), 100, 10, 2)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	// Synchronous shipping: every acked op is already on the follower.
	reps := c.Replicas(0)
	if len(reps) != 1 || reps[0].Slot != 1 || !reps[0].InSync {
		t.Fatalf("follower set after seeding: %+v", reps)
	}

	// Kill the primary drive and route another event at shard 0.
	prim.wedged = true
	res, err := c.Apply(addEvent("after-failover", 100, 10, 2))
	if err != nil {
		t.Fatalf("apply across failover: %v", err)
	}
	if res.Shard != 0 {
		t.Fatalf("first-fit routed to shard %d, want 0", res.Shard)
	}
	if slot := c.PrimarySlot(0); slot != 1 {
		t.Fatalf("primary slot after failover: %d, want 1", slot)
	}
	h := c.Health(0)
	if h.Promotions != 1 {
		t.Fatalf("health after failover: %+v", h)
	}
	if h.State == cluster.Failed {
		t.Fatalf("shard failed despite an in-sync follower: %+v", h)
	}
	// Every task — the seeds and the op that crossed the failover — is
	// live on the promoted store.
	owners := c.Owners()
	for _, name := range []string{"s0", "s1", "s2", "after-failover"} {
		if si, ok := owners[name]; !ok || si != 0 {
			t.Fatalf("task %q lost across failover (owner %d/%v)", name, si, ok)
		}
	}
	// The demoted old primary is out-of-sync until its drive is replaced.
	reps = c.Replicas(0)
	if len(reps) != 1 || reps[0].Slot != 0 || reps[0].InSync {
		t.Fatalf("old primary not demoted: %+v", reps)
	}

	// Operator replaces the drive: re-seed restores full redundancy, and
	// the shard survives a second failover back to slot 0.
	prim.wedged = false
	n, err := c.ReseedReplicas(0)
	if err != nil || n != 1 {
		t.Fatalf("reseed: n=%d err=%v", n, err)
	}
	if reps = c.Replicas(0); !reps[0].InSync {
		t.Fatalf("old primary not in-sync after reseed: %+v", reps)
	}
	if _, err := c.Apply(addEvent("steady", 100, 10, 2)); err != nil {
		t.Fatalf("apply after reseed: %v", err)
	}
}

// TestPromotionDeterminism: failover is a pure function of (health state,
// replica high-water marks) — two runs of the same wedge scenario land on
// the same promoted slot, the same digests, and the same owner map.
func TestPromotionDeterminism(t *testing.T) {
	run := func() ([]uint64, map[string]int, int) {
		prim := &flakyInjector{}
		c := openCluster(t, t.TempDir(), replicated(prim, nil))
		for i := 0; i < 4; i++ {
			if _, err := c.Apply(addEvent(fmt.Sprintf("d%d", i), 100, 10, 2)); err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
		}
		prim.wedged = true
		for i := 0; i < 3; i++ {
			if _, err := c.Apply(addEvent(fmt.Sprintf("post%d", i), 100, 10, 2)); err != nil {
				t.Fatalf("post-wedge apply %d: %v", i, err)
			}
		}
		return c.Digests(), c.Owners(), c.PrimarySlot(0)
	}
	d1, o1, s1 := run()
	d2, o2, s2 := run()
	if s1 != s2 {
		t.Fatalf("promotion picked slot %d then slot %d for the same scenario", s1, s2)
	}
	if !sameDigests(d1, d2) {
		t.Fatalf("repeated failover runs diverged: %x vs %x", d1, d2)
	}
	if !sameOwners(o1, o2) {
		t.Fatalf("repeated failover runs disagree on owners: %v vs %v", o1, o2)
	}
}

// TestFollowerDivergence: a silent bit flip on the follower drive — the
// write succeeds, the bytes are wrong — must be caught by the checkpoint
// scrub, demote the follower, and re-seed it back to byte-identity.
func TestFollowerDivergence(t *testing.T) {
	dir := t.TempDir()
	fol := journal.NewFaultFS(7, journal.FaultRates{})
	c := openCluster(t, dir, replicated(nil, fol))

	for i := 0; i < 3; i++ {
		if _, err := c.Apply(addEvent(fmt.Sprintf("f%d", i), 100, 10, 2)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	seedReseeds := c.Health(0).ReplicaReseeds

	// Arm one silent flip: the next shipped frame lands corrupted, and
	// nothing notices at write time.
	fol.ArmFlip()
	if _, err := c.Apply(addEvent("flipped", 100, 10, 2)); err != nil {
		t.Fatalf("apply with armed flip: %v", err)
	}
	if st := fol.Stats(); st.BitFlips != 1 {
		t.Fatalf("flip did not land: %+v", st)
	}
	if reps := c.Replicas(0); !reps[0].InSync {
		t.Fatalf("flip was not silent — follower demoted before any scrub: %+v", reps)
	}

	// The checkpoint doubles as the scrub point: byte-verify catches the
	// divergence, demotes, and the re-seed restores identity in the same
	// pass.
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	h := c.Health(0)
	if h.ReplicaDemotions == 0 {
		t.Fatalf("silent corruption survived the scrub: %+v", h)
	}
	if h.ReplicaReseeds != seedReseeds+1 {
		t.Fatalf("demoted follower not re-seeded: %+v", h)
	}
	reps := c.Replicas(0)
	if !reps[0].InSync {
		t.Fatalf("follower not back in-sync after re-seed: %+v", reps)
	}
	// And the restored follower holds the primary's exact bytes again.
	primDir := filepath.Join(dir, "shard-000")
	if err := journal.VerifyReplica(primDir, primDir+".r1"); err != nil {
		t.Fatalf("re-seeded follower not byte-identical: %v", err)
	}
}

// TestPromotionPersistsAcrossReopen: the fsynced promote meta record is
// the commit point — a clean close/reopen after failover must come back
// with the same slot as primary and the old primary re-seeded as a
// follower, never with two primaries.
func TestPromotionPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	prim := &flakyInjector{}
	opt := replicated(prim, nil)
	c := openCluster(t, dir, opt)
	for i := 0; i < 3; i++ {
		if _, err := c.Apply(addEvent(fmt.Sprintf("r%d", i), 100, 10, 2)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	prim.wedged = true
	if _, err := c.Apply(addEvent("promoteme", 100, 10, 2)); err != nil {
		t.Fatalf("apply across failover: %v", err)
	}
	if slot := c.PrimarySlot(0); slot != 1 {
		t.Fatalf("primary slot: %d, want 1", slot)
	}
	owners := c.Owners()
	prim.wedged = false // drive replaced before shutdown
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2 := openCluster(t, dir, opt)
	if slot := c2.PrimarySlot(0); slot != 1 {
		t.Fatalf("reopen forgot the promotion: primary slot %d, want 1", slot)
	}
	if !sameOwners(owners, c2.Owners()) {
		t.Fatalf("owners across reopen: %v != %v", c2.Owners(), owners)
	}
	reps := c2.Replicas(0)
	if len(reps) != 1 || reps[0].Slot != 0 || !reps[0].InSync {
		t.Fatalf("old primary not re-seeded as follower on reopen: %+v", reps)
	}
	if _, err := c2.Apply(addEvent("after-reopen", 100, 10, 2)); err != nil {
		t.Fatalf("apply after reopen: %v", err)
	}
}

// TestClusterRefusesFewerReplicas: reopening with a smaller replica count
// would silently strand follower directories — and, after a failover, the
// directory currently holding the primary. It must be refused loudly.
func TestClusterRefusesFewerReplicas(t *testing.T) {
	dir := t.TempDir()
	opt := cluster.Options{Shards: 2, Replicas: 1, Store: schedrt.StoreOptions{NoSync: true}}
	c := openCluster(t, dir, opt)
	if _, err := c.Apply(addEvent("x", 100, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	opt.Replicas = 0
	if _, err := cluster.Open(dir, opt); err == nil ||
		!strings.Contains(err.Error(), "replica") {
		t.Fatalf("reopen with fewer replicas: %v, want refusal", err)
	}
}

// TestPromotionCrashSweep kills the cluster (panic out of the fsync hook)
// at EVERY fsync boundary across a forced failover and requires recovery
// to come back with exactly one primary per shard and every acked task
// live exactly once. The promote meta record is the commit point: killed
// before it, recovery serves from the old primary's acked prefix; killed
// after, from the byte-identical promoted follower. No boundary may yield
// zero or two holders of any task.
func TestPromotionCrashSweep(t *testing.T) {
	// One pass, under the subtest name it had when the sweep ran once
	// per dispatch engine, so the sweep's test names stay stable.
	t.Run("engine=0", promotionCrashSweep)
}

func promotionCrashSweep(t *testing.T) {
	base := func(prim journal.Injector) cluster.Options {
		o := replicated(prim, nil)
		o.Store.NoSync = false // strict sync: the sweep counts real boundaries
		return o
	}

	// seed opens a strict-sync replicated cluster with three acked
	// tasks on shard 0, then wedges the primary drive and arms the
	// fsync hook, so every counted boundary belongs to the failover.
	seed := func(t *testing.T, dir string, prim *flakyInjector, hook func()) *cluster.Cluster {
		armed := false
		o := base(prim)
		o.Store.AfterSync = func() {
			if armed {
				hook()
			}
		}
		c := openCluster(t, dir, o)
		for i := 0; i < 3; i++ {
			if _, err := c.Apply(addEvent(fmt.Sprintf("c%d", i), 100, 10, 2)); err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
		}
		prim.wedged = true
		armed = true
		return c
	}

	// Count the fsync boundaries of one uncrashed failover.
	total := 0
	{
		prim := &flakyInjector{}
		c := seed(t, t.TempDir(), prim, func() { total++ })
		if _, err := c.Apply(addEvent("p1", 100, 10, 2)); err != nil {
			t.Fatalf("uncrashed failover: %v", err)
		}
		if c.Health(0).Promotions != 1 {
			t.Fatalf("uncrashed run did not promote: %+v", c.Health(0))
		}
		prim.wedged = false
		c.Close()
	}
	if total < 2 {
		t.Fatalf("only %d fsync boundaries in a failover — promotion is not journaling", total)
	}

	for point := 1; point <= total; point++ {
		dir := t.TempDir()
		prim := &flakyInjector{}
		n := 0
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("kill point %d/%d never reached", point, total)
				}
				if _, ok := r.(crashNow); !ok {
					panic(r)
				}
			}()
			c := seed(t, dir, prim, func() {
				n++
				if n == point {
					panic(crashNow{point})
				}
			})
			// No Close: a crash leaks the fds, exactly like a real kill.
			_, _ = c.Apply(addEvent("p1", 100, 10, 2))
			t.Fatalf("failover with kill point %d finished without crashing", point)
		}()

		// The operator replaces the dead drive, then recovery runs.
		prim.wedged = false
		c, err := cluster.Open(dir, base(prim))
		if err != nil {
			t.Fatalf("kill point %d: reopen: %v", point, err)
		}
		// Exactly one primary: recovery picked one slot, and its
		// follower re-seeds to byte-identity — no split brain.
		slot := c.PrimarySlot(0)
		if slot != 0 && slot != 1 {
			t.Fatalf("kill point %d: primary slot %d", point, slot)
		}
		if reps := c.Replicas(0); len(reps) != 1 || !reps[0].InSync {
			t.Fatalf("kill point %d: follower set did not converge: %+v", point, reps)
		}
		// Every acked task is live exactly once, and the owner map
		// agrees with shard truth — including the in-flight p1,
		// which may be present (its append became durable) or
		// absent (it died with the crash), but never duplicated.
		holders := make(map[string]int)
		for _, sh := range c.Shards() {
			for _, spec := range sh.Store.Runtime().Tasks() {
				holders[spec.Task.Name]++
				if si := c.Owners()[spec.Task.Name]; si != sh.ID {
					t.Fatalf("kill point %d: %q live on shard %d, owner map says %d",
						point, spec.Task.Name, sh.ID, si)
				}
			}
		}
		for _, name := range []string{"c0", "c1", "c2"} {
			if holders[name] != 1 {
				t.Fatalf("kill point %d: acked task %q live on %d shards", point, name, holders[name])
			}
		}
		if holders["p1"] > 1 {
			t.Fatalf("kill point %d: in-flight task duplicated across failover", point)
		}
		// The recovered shard serves.
		if _, err := c.Apply(addEvent(fmt.Sprintf("fresh%d", point), 100, 10, 2)); err != nil {
			t.Fatalf("kill point %d: apply after recovery: %v", point, err)
		}
		c.Close()
	}
}
