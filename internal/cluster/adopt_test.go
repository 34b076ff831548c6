package cluster_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nprt/internal/cluster"
	"nprt/internal/experiments"
	schedrt "nprt/internal/runtime"
)

func tolerateStale(ev schedrt.Event, err error) error {
	if schedrt.IsStaleRequest(err) {
		return nil
	}
	return err
}

// TestOneShardMatchesStore: a one-shard cluster is the single store. On
// the churn soak's tapes (seeds 1–4), Open+PlayTape and
// runtime.OpenStore+PlayTape agree on the digest after every epoch — the
// shard's and the folded cluster digest both — and on the admitted set.
func TestOneShardMatchesStore(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tp := experiments.GenerateChurnTape(seed, 300)
		so := schedrt.StoreOptions{NoSync: true, Runtime: schedrt.Options{Seed: seed}}
		st, err := schedrt.OpenStore(t.TempDir(), so)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		c := openCluster(t, t.TempDir(), cluster.Options{Store: so})
		for e := int64(1); e <= tapeHorizon(tp); e++ {
			if err := st.PlayTape(tp, e, nil, nil, tolerateStale); err != nil {
				t.Fatal(err)
			}
			if err := c.PlayTape(tp, e, 0, nil, nil, tolerateStale); err != nil {
				t.Fatal(err)
			}
			if d := st.Digest(); c.Digests()[0] != d || c.Digest() != d {
				t.Fatalf("seed %d epoch %d: shard digest %016x, cluster %016x, store %016x",
					seed, e, c.Digests()[0], c.Digest(), d)
			}
		}
		if got, want := c.Shards()[0].Store.Runtime().Tasks(), st.Runtime().Tasks(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: shard tasks %v, store tasks %v", seed, got, want)
		}
	}
}

// legacyStore writes a single-store directory the way runtime.OpenStore
// does: the tape played halfway, a checkpoint, then a few more epochs so
// recovery also replays a journal tail. It returns the store's final
// digest, task list and request count.
func legacyStore(t *testing.T, dir string, tp *schedrt.Tape, so schedrt.StoreOptions) (uint64, []schedrt.TaskSpec, uint64) {
	t.Helper()
	st, err := schedrt.OpenStore(dir, so)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	half := tapeHorizon(tp) / 2
	if err := st.PlayTape(tp, half, nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.PlayTape(tp, half+3, nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}
	return st.Digest(), st.Runtime().Tasks(), st.EventsApplied()
}

// checkAdopted opens dir as a one-shard cluster and checks it holds the
// single store's state: digest, task list, request count, every live task
// in the partition map, and no single-store entry left at the top.
func checkAdopted(t *testing.T, dir string, so schedrt.StoreOptions, digest uint64, tasks []schedrt.TaskSpec, events uint64) *cluster.Cluster {
	t.Helper()
	c := openCluster(t, dir, cluster.Options{Store: so})
	sh := c.Shards()[0].Store
	if c.Digest() != digest || sh.EventsApplied() != events || !reflect.DeepEqual(sh.Runtime().Tasks(), tasks) {
		t.Fatalf("adopted store: digest %016x events %d tasks %d, want %016x %d %d",
			c.Digest(), sh.EventsApplied(), len(sh.Runtime().Tasks()), digest, events, len(tasks))
	}
	owners := c.Owners()
	if len(owners) != len(tasks) {
		t.Fatalf("partition map %v, want the %d live tasks", owners, len(tasks))
	}
	for _, sp := range tasks {
		if si, ok := owners[sp.Task.Name]; !ok || si != 0 {
			t.Fatalf("task %s not mapped to shard 0: %v", sp.Task.Name, owners)
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() == "wal" || strings.HasPrefix(e.Name(), "ckpt-") || strings.HasSuffix(e.Name(), ".adopt") {
			t.Fatalf("single-store entry %s left at the top of %s", e.Name(), dir)
		}
	}
	return c
}

// TestAdoptSingleStore: a directory written by runtime.OpenStore opens
// through cluster.Open as shard 0 with the same digest, task list and
// request count, and a tape interrupted in it resumes right where the
// store would have — the finished run's digest is the uninterrupted
// single store's.
func TestAdoptSingleStore(t *testing.T) {
	tp := clusterTape(200)
	so := schedrt.StoreOptions{NoSync: true, Runtime: schedrt.Options{Seed: clusterSeed}}
	ref, err := schedrt.OpenStore(t.TempDir(), so)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.PlayTape(tp, tapeHorizon(tp), nil, nil, tolerateStale); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	digest, tasks, events := legacyStore(t, dir, tp, so)
	c := checkAdopted(t, dir, so, digest, tasks, events)
	if rec := c.Recovery(); !rec.AdoptedStore || rec.Adopted != len(tasks) || rec.Cursor != events {
		t.Fatalf("recovery %+v, want the store adopted with %d tasks at cursor %d", rec, len(tasks), events)
	}
	if err := playCluster(c, tp); err != nil {
		t.Fatal(err)
	}
	if c.Digest() != ref.Digest() {
		t.Fatalf("resumed digest %016x, uninterrupted store %016x", c.Digest(), ref.Digest())
	}
	want := c.Digest()
	c.Close()

	// Adoption happens once: the next open is an ordinary recovery.
	c2 := openCluster(t, dir, cluster.Options{Store: so})
	if c2.Recovery().AdoptedStore || c2.Digest() != want {
		t.Fatalf("reopen: adopted=%v digest %016x, want false and %016x", c2.Recovery().AdoptedStore, c2.Digest(), want)
	}
}

// TestAdoptInterruptedFinishes: an adoption cut short before its final
// rename — some entries still at the top, or everything staged and the
// store already sequenced — completes on the next open with the same
// state.
func TestAdoptInterruptedFinishes(t *testing.T) {
	tp := clusterTape(200)
	so := schedrt.StoreOptions{NoSync: true, Runtime: schedrt.Options{Seed: clusterSeed}}
	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir, staging string)
	}{
		{"journal staged, checkpoints not", func(t *testing.T, dir, staging string) {
			if err := os.Mkdir(staging, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(filepath.Join(dir, "wal"), filepath.Join(staging, "wal")); err != nil {
				t.Fatal(err)
			}
		}},
		{"all staged and sequenced, not published", func(t *testing.T, dir, staging string) {
			if err := os.Mkdir(staging, 0o755); err != nil {
				t.Fatal(err)
			}
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				if e.Name() == "wal" || strings.HasPrefix(e.Name(), "ckpt-") {
					if err := os.Rename(filepath.Join(dir, e.Name()), filepath.Join(staging, e.Name())); err != nil {
						t.Fatal(err)
					}
				}
			}
			st, err := schedrt.OpenStore(staging, so)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SequenceRequests(); err != nil {
				t.Fatal(err)
			}
			st.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			digest, tasks, events := legacyStore(t, dir, tp, so)
			tc.crash(t, dir, filepath.Join(dir, "shard-000.adopt"))
			c := checkAdopted(t, dir, so, digest, tasks, events)
			if rec := c.Recovery(); !rec.AdoptedStore || rec.Cursor != events {
				t.Fatalf("recovery %+v, want the adoption finished at cursor %d", rec, events)
			}
		})
	}
}
