package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"nprt"
	"nprt/internal/feasibility"
	"nprt/internal/journal"
	"nprt/internal/serve"
)

// replayDense derives admit-dense's per-layer metrics by replaying the
// recorded batches through each layer on its own: the router's first-fit
// probes on standalone feasibility mirrors, each shard's events on a
// standalone store, runtime and Theorem-1 screen, and the records through
// a standalone group committer. Warm-up batches are replayed untraced so
// every replayed layer starts from the state the measured phase saw.
// Layer times are reported as shares of busy, the measured phase's
// ApplyBatch, RunEpoch and Checkpoint time.
func replayDense(cfg config, r *denseRun, busy time.Duration, tr *tracer, chk *checks, mets map[string]metric) error {
	dir, err := os.MkdirTemp(cfg.work, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var events int64
	var applyBusy time.Duration
	for _, rec := range r.log {
		if rec.measured {
			events += int64(len(rec.evs))
			applyBusy += rec.dur
		}
	}
	mets["cluster.apply_pct"] = metric{pct(applyBusy, busy), "%"}

	probes, adds, placed := replayRouter(r, tr, chk)
	mets["cluster.probes_per_add"] = metric{float64(probes) / float64(adds), "count"}
	mets["cluster.placed_per_probe"] = metric{float64(placed) / float64(probes), "ratio"}

	if err := replayDecode(r, busy, tr, mets); err != nil {
		return err
	}
	if err := replayStores(dir, cfg.seed, r, tr, chk); err != nil {
		return err
	}

	if err := replayRuntimes(cfg.seed, r, tr); err != nil {
		return err
	}
	bytes, records, err := replayJournal(filepath.Join(dir, "journal"), r, tr)
	if err != nil {
		return err
	}
	mets["journal.bytes_per_event"] = metric{float64(bytes) / float64(events), "B"}

	st := tr.stats()
	mets["cluster.route_pct"] = metric{pct(st["cluster.ApplyBatch"].self, busy), "%"}
	prof := st["feasibility.Profiles"]
	mets["feasibility.profiles_calls"] = metric{float64(prof.count), "count"}
	mets["feasibility.profiles_us_per_call"] = metric{prof.meanUS(), "us"}
	mets["feasibility.profiles_pct"] = metric{pct(prof.busy, busy), "%"}
	mets["feasibility.mirror_probe_pct"] = metric{pct(st["feasibility.Incremental.Probe"].busy, busy), "%"}
	add, rem := st["feasibility.Incremental.Add"], st["feasibility.Incremental.Remove"]
	mets["feasibility.mirror_update_pct"] = metric{pct(add.busy+rem.busy, busy), "%"}
	mets["runtime.apply_pct"] = metric{pct(st["runtime.Runtime.Apply"].busy, busy), "%"}
	mets["runtime.epoch_pct"] = metric{pct(st["runtime.Store.RunEpoch"].busy, busy), "%"}
	mets["runtime.checkpoint_pct"] = metric{pct(st["runtime.Store.Checkpoint"].busy, busy), "%"}
	mets["journal.commit_pct"] = metric{pct(st["journal.GroupCommitter.CommitAll"].busy, busy), "%"}
	fmt.Printf("journal: %.2f us per committed record\n", us(st["journal.GroupCommitter.CommitAll"].busy)/float64(records))
	return nil
}

// measuredTracer returns tr for measured batches and nil for warm-up ones.
func measuredTracer(tr *tracer, rec *denseBatchRec) *tracer {
	if rec.measured {
		return tr
	}
	return nil
}

// replayRouter re-derives every placement with first-fit over standalone
// incremental mirrors, counting probes, and checks it against the
// cluster's choice.
func replayRouter(r *denseRun, tr *tracer, chk *checks) (probes, adds, placed int64) {
	mirrors := make([]*feasibility.Incremental, denseShards)
	for i := range mirrors {
		mirrors[i] = feasibility.NewIncremental(nil)
	}
	for b := range r.log {
		rec := &r.log[b]
		t := measuredTracer(tr, rec)
		id := int64(b)
		root := t.begin(id, "replay.route", -1)
		for k, ev := range rec.evs {
			if ev.Op == "remove" {
				sp := t.begin(id, "feasibility.Incremental.Remove", root)
				mirrors[rec.shards[k]].Remove(ev.Name)
				t.end(sp)
				continue
			}
			c := &ev.Task.Task
			var n int64
			chosen, firstDeep := -1, -1
			for si, mi := range mirrors {
				sp := t.begin(id, "feasibility.Incremental.Probe", root)
				acc, deep := mi.Probe(c)
				t.end(sp)
				n++
				if acc {
					chosen = si
					break
				}
				if deep && firstDeep < 0 {
					firstDeep = si
				}
			}
			if chosen < 0 {
				chosen = firstDeep
			}
			if chosen < 0 {
				chosen = 0
				for si := 1; si < len(mirrors); si++ {
					if mirrors[si].Utilization(nprt.Accurate) < mirrors[chosen].Utilization(nprt.Accurate) {
						chosen = si
					}
				}
			}
			sp := t.begin(id, "feasibility.Incremental.Probe", root)
			_, deepOK := mirrors[chosen].Probe(c)
			t.end(sp)
			n++
			if chosen != rec.shards[k] || deepOK != rec.admitted[k] {
				chk.failf("batch %d: %s replayed first-fit picks shard %d (fits %v), cluster used %d (admitted %v)",
					b, c.Name, chosen, deepOK, rec.shards[k], rec.admitted[k])
			}
			if rec.admitted[k] {
				sp := t.begin(id, "feasibility.Incremental.Add", root)
				mirrors[rec.shards[k]].Add(c)
				t.end(sp)
			}
			if rec.measured {
				probes += n
				adds++
				if rec.admitted[k] {
					placed++
				}
			}
		}
		t.end(root)
	}
	return probes, adds, placed
}

// replayDecode passes every measured event, as the JSON body /admit
// would receive, through serve's pooled decoder: allocations counted on an
// untraced pass, time on a traced one.
func replayDecode(r *denseRun, busy time.Duration, tr *tracer, mets map[string]metric) error {
	var bodies [][]byte
	var ids []int64
	for b := range r.log {
		if !r.log[b].measured {
			continue
		}
		for _, ev := range r.log[b].evs {
			body, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
			ids = append(ids, int64(b))
		}
	}
	dec := newBodyDecoder()
	allocs, err := decodeAllocs(dec, bodies)
	if err != nil {
		return fmt.Errorf("admit-dense replay: %w", err)
	}
	mets["serve.decode_allocs_per_event"] = metric{allocs, "count"}
	for i, body := range bodies {
		sp := tr.begin(ids[i], "serve.Decoder.Decode", -1)
		err := dec.decode(body)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	mets["serve.decode_pct"] = metric{pct(tr.stats()["serve.Decoder.Decode"].busy, busy), "%"}
	return nil
}

// decodeAllocs decodes every body once, untraced, and returns the heap
// allocations per body.
func decodeAllocs(dec *bodyDecoder, bodies [][]byte) (float64, error) {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for _, body := range bodies {
		if err := dec.decode(body); err != nil {
			return 0, fmt.Errorf("decode: %w", err)
		}
	}
	goruntime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(bodies)), nil
}

// bodyDecoder decodes request bodies the way the /admit handler does: a
// pooled decoder per request, reading from a reused reader.
type bodyDecoder struct{ rd *bytes.Reader }

func newBodyDecoder() *bodyDecoder { return &bodyDecoder{rd: bytes.NewReader(nil)} }

func (b *bodyDecoder) decode(body []byte) error {
	b.rd.Reset(body)
	d := serve.GetDecoder()
	_, err := d.Decode(b.rd)
	serve.PutDecoder(d)
	return err
}

// shardEvents splits a batch into per-shard sub-batches in apply order.
func shardEvents(rec *denseBatchRec) [][]nprt.RuntimeEvent {
	out := make([][]nprt.RuntimeEvent, denseShards)
	for k, ev := range rec.evs {
		if sh := rec.shards[k]; sh >= 0 {
			out[sh] = append(out[sh], ev)
		}
	}
	return out
}

// replayStores applies each shard's sub-batches, epochs and checkpoints
// to a standalone durable store. Each measured sub-batch's replay becomes
// a child of the batch's cluster.ApplyBatch span, laid from the batch's
// start since the shards apply concurrently inside the cluster; the
// batch's self time is then the router's share: its time minus the
// slowest shard's.
func replayStores(dir string, seed uint64, r *denseRun, tr *tracer, chk *checks) error {
	stores := make([]*nprt.DurableRuntime, denseShards)
	for si := range stores {
		st, err := nprt.OpenDurable(filepath.Join(dir, fmt.Sprintf("store-%d", si)),
			nprt.DurableOptions{Runtime: nprt.RuntimeOptions{Seed: seed + uint64(si) + 1}})
		if err != nil {
			return err
		}
		defer st.Close()
		stores[si] = st
	}
	for b := range r.log {
		rec := &r.log[b]
		t := measuredTracer(tr, rec)
		id := int64(b)
		for si, sub := range shardEvents(rec) {
			if len(sub) == 0 {
				continue
			}
			t0 := time.Now()
			_, errs, err := stores[si].ApplyBatch(sub)
			t.place(rec.span, "runtime.Store.ApplyBatch", 0, time.Since(t0))
			if err != nil {
				return fmt.Errorf("admit-dense replay: %w", err)
			}
			for j := range sub {
				if errs[j] != nil {
					chk.failf("batch %d: standalone shard %d: %v", b, si, errs[j])
				}
			}
		}
		if rec.epoch {
			for _, st := range stores {
				sp := t.begin(id, "runtime.Store.RunEpoch", -1)
				_, err := st.RunEpoch()
				t.end(sp)
				if err != nil {
					return err
				}
			}
		}
		if rec.ckpt {
			for _, st := range stores {
				sp := t.begin(id, "runtime.Store.Checkpoint", -1)
				_, err := st.Checkpoint()
				t.end(sp)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// replayRuntimes applies each shard's events to an in-memory runtime (the
// admission and re-planning work without the journal) and runs the
// Theorem-1 screen on each candidate set the shard screened.
func replayRuntimes(seed uint64, r *denseRun, tr *tracer) error {
	rts := make([]*nprt.SchedulerRuntime, denseShards)
	sets := make([][]nprt.Task, denseShards)
	for si := range rts {
		rt, err := nprt.NewRuntime(nprt.RuntimeOptions{Seed: seed + uint64(si) + 1})
		if err != nil {
			return err
		}
		rts[si] = rt
	}
	for b := range r.log {
		rec := &r.log[b]
		t := measuredTracer(tr, rec)
		id := int64(b)
		root := t.begin(id, "replay.runtime", -1)
		for k, ev := range rec.evs {
			si := rec.shards[k]
			if si < 0 {
				continue
			}
			sp := t.begin(id, "runtime.Runtime.Apply", root)
			_, err := rts[si].Apply(ev)
			t.end(sp)
			if err != nil {
				return fmt.Errorf("admit-dense runtime replay: %w", err)
			}
			var cand []nprt.Task
			if ev.Op == "add" {
				cand = append(append(cand, sets[si]...), ev.Task.Task)
			} else {
				for _, tk := range sets[si] {
					if tk.Name != ev.Name {
						cand = append(cand, tk)
					}
				}
			}
			if len(cand) > 0 {
				set, err := nprt.NewTaskSet(cand)
				if err != nil {
					return err
				}
				sp := t.begin(id, "feasibility.Profiles", root)
				feasibility.Profiles(set)
				t.end(sp)
			}
			if ev.Op == "remove" || rec.admitted[k] {
				sets[si] = cand
			}
		}
		t.end(root)
	}
	return nil
}

// replayJournal commits the measured batches' event records, one commit
// group per shard sub-batch as the stores write them, through a
// standalone group committer, and returns the bytes it wrote and the
// records it committed.
func replayJournal(dir string, r *denseRun, tr *tracer) (bytes int64, records int64, err error) {
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, 0, err
	}
	gc := journal.NewGroupCommitter(w, journal.GroupOptions{})
	var seq uint64
	for b := range r.log {
		rec := &r.log[b]
		for _, sub := range shardEvents(rec) {
			pend := make([]journal.Pending, len(sub))
			for j, ev := range sub {
				seq++
				ev.Seq = seq
				payload, err := json.Marshal(ev)
				if err != nil {
					return 0, 0, err
				}
				pend[j] = journal.Pending{Type: journal.TypeEvent, Payload: payload}
			}
			if !rec.measured || len(pend) == 0 {
				continue
			}
			sp := tr.begin(int64(b), "journal.GroupCommitter.CommitAll", -1)
			_, err := gc.CommitAll(pend)
			tr.end(sp)
			if err != nil {
				return 0, 0, err
			}
			records += int64(len(pend))
		}
	}
	if err := gc.Close(); err != nil {
		return 0, 0, err
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	bytes, err = dirBytes(dir)
	return bytes, records, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
