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
