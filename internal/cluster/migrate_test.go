package cluster_test

import (
	"fmt"
	"testing"

	"nprt/internal/cluster"
	schedrt "nprt/internal/runtime"
)

// TestMigrateTaskMovesOwnership: a live handoff re-admits the task on the
// target through the screen, flips the owner map, removes the source copy,
// and all of it survives a close/reopen.
func TestMigrateTaskMovesOwnership(t *testing.T) {
	dir := t.TempDir()
	opt := cluster.Options{Shards: 2, Placement: "first-fit",
		Store: schedrt.StoreOptions{NoSync: true}}
	c := openCluster(t, dir, opt)
	for i := 0; i < 3; i++ {
		if _, err := c.Apply(addEvent(fmt.Sprintf("m%d", i), 100, 10, 2)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	// first-fit packs everything onto shard 0.
	if si := c.Owners()["m1"]; si != 0 {
		t.Fatalf("first-fit placed m1 on shard %d, want 0", si)
	}

	mv, err := c.MigrateTask("m1", 1)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if !mv.Moved || mv.Evicted || mv.From != 0 || mv.To != 1 {
		t.Fatalf("unexpected move: %+v", mv)
	}
	if si := c.Owners()["m1"]; si != 1 {
		t.Fatalf("owner map after migrate: m1 on %d, want 1", si)
	}
	live := func(c *cluster.Cluster, si int, name string) bool {
		for _, spec := range c.Shards()[si].Store.Runtime().Tasks() {
			if spec.Task.Name == name {
				return true
			}
		}
		return false
	}
	if live(c, 0, "m1") || !live(c, 1, "m1") {
		t.Fatalf("shard truth after migrate: src=%v dst=%v", live(c, 0, "m1"), live(c, 1, "m1"))
	}
	// Migrating to the current owner is a no-op, not an error.
	if mv, err := c.MigrateTask("m1", 1); err != nil || !mv.Moved {
		t.Fatalf("self-migrate: %+v, %v", mv, err)
	}
	if _, err := c.MigrateTask("ghost", 1); err == nil {
		t.Fatal("migrating an unknown task succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openCluster(t, dir, opt)
	if si := c2.Owners()["m1"]; si != 1 {
		t.Fatalf("owner map after reopen: m1 on %d, want 1", si)
	}
	if live(c2, 0, "m1") || !live(c2, 1, "m1") {
		t.Fatal("shard truth did not survive reopen")
	}
	// The moved task still schedules: run an epoch on both shards.
	if _, err := c2.RunEpoch(false); err != nil {
		t.Fatalf("epoch after migrate: %v", err)
	}
}

// TestRebalanceHysteresis: first-fit piles all load on shard 0; Rebalance
// spreads it until skew drops under the low-water mark, and a second call
// (inside the hysteresis band) makes zero moves.
func TestRebalanceHysteresis(t *testing.T) {
	c := openCluster(t, t.TempDir(), cluster.Options{Shards: 2, Placement: "first-fit",
		Store: schedrt.StoreOptions{NoSync: true}})
	// Eight tasks at 10% accurate utilization each, all first-fit onto shard 0.
	for i := 0; i < 8; i++ {
		if _, err := c.Apply(addEvent(fmt.Sprintf("r%d", i), 100, 10, 2)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	skew := func() float64 {
		shs := c.Shards()
		u0, u1 := shs[0].Util(0), shs[1].Util(0)
		if u0 > u1 {
			return u0 - u1
		}
		return u1 - u0
	}
	before := skew()
	moves, err := c.Rebalance(cluster.RebalanceOptions{})
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if len(moves) == 0 {
		t.Fatalf("rebalance made no moves at skew %.2f", before)
	}
	after := skew()
	if after >= before {
		t.Fatalf("rebalance did not reduce skew: %.2f -> %.2f", before, after)
	}
	for _, mv := range moves {
		if !mv.Moved || mv.Evicted {
			t.Fatalf("rebalance move was not a clean handoff: %+v", mv)
		}
		if si := c.Owners()[mv.Name]; si != mv.To {
			t.Fatalf("owner map disagrees with move %+v (owner %d)", mv, si)
		}
	}
	// Inside the hysteresis band: no churn.
	again, err := c.Rebalance(cluster.RebalanceOptions{})
	if err != nil {
		t.Fatalf("second rebalance: %v", err)
	}
	if len(again) != 0 {
		t.Fatalf("rebalance churned inside the hysteresis band: %+v", again)
	}
	// Nothing lost: every task still owned exactly once.
	if n := len(c.Owners()); n != 8 {
		t.Fatalf("owner map holds %d tasks after rebalance, want 8", n)
	}
}

// TestMigrationCrashSweep kills the cluster (panic out of the fsync hook)
// at EVERY fsync boundary inside an in-flight migration and requires
// recovery to converge to exactly one owner — never zero (lost), never two
// (duplicated). Digest equality cannot be the criterion here: recovery
// legitimately aborts a migration whose commit record never became
// durable, so the final owner may be source OR target. Exactly-once
// ownership is the invariant the meta-journal protocol owes.
func TestMigrationCrashSweep(t *testing.T) {
	// One pass, under the subtest name it had when the sweep ran once
	// per dispatch engine, so the sweep's test names stay stable.
	t.Run("engine=0", migrationCrashSweep)
}

func migrationCrashSweep(t *testing.T) {
	opt := cluster.Options{Shards: 2, Placement: "first-fit", Store: schedrt.StoreOptions{}}

	// seed opens a strict-sync cluster with three tasks on shard 0.
	// The fsync hook is armed only around the migration itself, so
	// every counted boundary is part of the handoff protocol.
	seed := func(t *testing.T, dir string, hook func()) *cluster.Cluster {
		armed := false
		o := opt
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
		armed = true
		return c
	}

	// Count the fsync boundaries of one uncrashed migration.
	total := 0
	{
		c := seed(t, t.TempDir(), func() { total++ })
		if mv, err := c.MigrateTask("c1", 1); err != nil || !mv.Moved {
			t.Fatalf("uncrashed migration: %+v, %v", mv, err)
		}
		c.Close()
	}
	if total < 3 {
		t.Fatalf("only %d fsync boundaries in a migration — protocol not exercising the journals", total)
	}

	for point := 1; point <= total; point++ {
		dir := t.TempDir()
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
			c := seed(t, dir, func() {
				n++
				if n == point {
					panic(crashNow{point})
				}
			})
			// No Close: a crash leaks the fds, exactly like a real kill.
			_, _ = c.MigrateTask("c1", 1)
			t.Fatalf("migration with kill point %d finished without crashing", point)
		}()

		// Recover and audit ownership.
		c, err := cluster.Open(dir, opt)
		if err != nil {
			t.Fatalf("kill point %d: reopen: %v", point, err)
		}
		holders := 0
		holder := -1
		for _, sh := range c.Shards() {
			for _, spec := range sh.Store.Runtime().Tasks() {
				if spec.Task.Name == "c1" {
					holders++
					holder = sh.ID
				}
			}
		}
		if holders != 1 {
			t.Fatalf("kill point %d: task live on %d shards, want exactly 1", point, holders)
		}
		if si, ok := c.Owners()["c1"]; !ok || si != holder {
			t.Fatalf("kill point %d: owner map says %d/%v, shard truth says %d", point, si, ok, holder)
		}
		// The untouched tasks must be unharmed.
		for _, name := range []string{"c0", "c2"} {
			if si, ok := c.Owners()[name]; !ok || si != 0 {
				t.Fatalf("kill point %d: bystander %s owner %d/%v", point, name, si, ok)
			}
		}
		c.Close()
	}
}
