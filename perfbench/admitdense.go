package main

import (
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"nprt"
)

const (
	denseShards = 2
	denseBatch  = 16
	densePool   = 400 // 200 task shapes, each dealt to two names
	// denseBatchesPerSecond sizes the measured phase: this many 16-event
	// batches per second of -seconds.
	denseBatchesPerSecond = 14
	denseEpochEvery       = 4 // batches per epoch
	denseCheckpointEvery  = 8 // epochs per checkpoint
	denseWarmOrderSeed    = 1 // the warm-up's shape order, fixed across seeds
	// denseReopenAt places a timed reopen this many batches after each
	// checkpoint, halfway to the next, so every reopen replays the same
	// length of WAL.
	denseReopenAt = denseEpochEvery * denseCheckpointEvery / 2
	// denseBlockBatches groups consecutive batches, with the epochs and
	// checkpoints they trigger, for ops_per_s.
	denseBlockBatches = 8
)

// densePeriods are harmonic, so a shard's hyper-period stays the longest
// period and an epoch simulates a bounded number of jobs.
var densePeriods = []nprt.Time{1000, 2000, 4000, 8000}

// denseInputs is the seeded task pool: one fixed task per name, with a
// harmonic period and a WCET small enough that about a hundred fit a shard
// before its deepest-profile utilization reaches one. The pool holds 200
// (period, WCET) shapes — 4 periods by 50 WCETs spread evenly over 20–95 —
// each dealt to two names, its twins. The shapes are the same every seed;
// the seed deals them to the names and draws the error statistics and
// criticalities. twins[k] are the two names with shape k.
func denseInputs(seed uint64) (pool []nprt.RuntimeTaskSpec, twins [][2]int) {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 1))
	pool = make([]nprt.RuntimeTaskSpec, densePool)
	shapes := densePool / 2
	twins = make([][2]int, shapes)
	for i, slot := range rng.Perm(densePool) {
		k := slot / 2
		twins[k][slot%2] = i
		p := densePeriods[k%len(densePeriods)]
		w := nprt.Time(20 + k/len(densePeriods)*77/(shapes/len(densePeriods)))
		x := w / 3
		pool[i] = nprt.RuntimeTaskSpec{
			Task: nprt.Task{
				Name: fmt.Sprintf("d%03d", i), Period: p,
				WCETAccurate: w, WCETImprecise: x,
				ExecAccurate:  nprt.Dist{Mean: float64(w) * 0.6, Sigma: float64(w) * 0.1, Min: 1, Max: float64(w)},
				ExecImprecise: nprt.Dist{Mean: float64(x) * 0.6, Sigma: float64(x) * 0.1, Min: 0.5, Max: float64(x)},
				Error:         nprt.Dist{Mean: 1 + float64(rng.Intn(4)), Sigma: 0.5},
			},
			Criticality: rng.Intn(4),
		}
	}
	return pool, twins
}

// denseModel is the client's own record of what the cluster holds.
type denseModel struct {
	pool    []nprt.RuntimeTaskSpec
	twin    []int   // the other name with each name's shape
	warm    []int   // names the warm-up still has to add, in order
	owner   []int   // shard holding each name, -1 when not held
	members [][]int // names per shard
	pos     []int   // index of each held name in members[owner]
	rng     *rand.Rand
	touched []int // batch number that last touched each name

	adds, admitted, degraded, rejected, removes int64
}

func newDenseModel(seed uint64) *denseModel {
	pool, twins := denseInputs(seed)
	m := &denseModel{
		pool:    pool,
		twin:    make([]int, densePool),
		owner:   make([]int, densePool),
		members: make([][]int, denseShards),
		pos:     make([]int, densePool),
		rng:     rand.New(rand.NewSource(int64(seed))),
		touched: make([]int, densePool),
	}
	for i := range m.owner {
		m.owner[i], m.touched[i] = -1, -1
	}
	for _, tw := range twins {
		m.twin[tw[0]], m.twin[tw[1]] = tw[1], tw[0]
	}
	// The warm-up adds one twin of every shape, the twin chosen by the
	// seed, in a shape order that is the same for every seed, so first-fit
	// packs the shards alike in every run; the churn then swaps names
	// without changing which shapes are held. A seeded shape order moved
	// shard 0's share of the ~200 residents by ±6 and the event rate by ±8 %.
	for _, k := range rand.New(rand.NewSource(denseWarmOrderSeed)).Perm(len(twins)) {
		m.warm = append(m.warm, twins[k][m.rng.Intn(2)])
	}
	return m
}

func (m *denseModel) place(i, shard int) {
	m.owner[i] = shard
	m.pos[i] = len(m.members[shard])
	m.members[shard] = append(m.members[shard], i)
}

func (m *denseModel) unplace(i int) {
	sh := m.owner[i]
	last := m.members[sh][len(m.members[sh])-1]
	m.members[sh][m.pos[i]] = last
	m.pos[last] = m.pos[i]
	m.members[sh] = m.members[sh][:len(m.members[sh])-1]
	m.owner[i] = -1
}

// next generates batch b from the model, so no event is stale. A warm-up
// batch adds the next 16 names of the warm-up order. After the warm-up a
// batch picks 8 distinct held names and, for each, removes it and then adds
// its twin, which is never held, so the shapes held stay those the warm-up
// placed.
func (m *denseModel) next(b int, warm bool) (names []int, evs []nprt.RuntimeEvent) {
	add := func(i int) {
		spec := m.pool[i]
		names = append(names, i)
		evs = append(evs, nprt.RuntimeEvent{Op: "add", Task: &spec})
	}
	if warm {
		n := min(denseBatch, len(m.warm))
		for _, i := range m.warm[:n] {
			add(i)
		}
		m.warm = m.warm[n:]
		return names, evs
	}
	held := 0
	for _, ms := range m.members {
		held += len(ms)
	}
	for len(names) < denseBatch {
		k, sh := m.rng.Intn(held), 0
		for ; k >= len(m.members[sh]); sh++ {
			k -= len(m.members[sh])
		}
		i := m.members[sh][k]
		if m.touched[i] == b {
			continue
		}
		m.touched[i] = b
		names = append(names, i)
		evs = append(evs, nprt.RuntimeEvent{Op: "remove", Name: m.pool[i].Task.Name})
		add(m.twin[i])
	}
	return names, evs
}

// shardTasks is shard sh's resident set in the checker's form, plus extra.
func (m *denseModel) shardTasks(sh int, extra *nprt.Task) []t1Task {
	ts := make([]t1Task, 0, len(m.members[sh])+1)
	for _, i := range m.members[sh] {
		ts = append(ts, t1FromTask(&m.pool[i].Task))
	}
	if extra != nil {
		ts = append(ts, t1FromTask(extra))
	}
	return ts
}

// denseBatchRec records one applied batch for the traced replays.
type denseBatchRec struct {
	evs      []nprt.RuntimeEvent
	shards   []int // serving shard per event (-1: router-answered)
	admitted []bool
	measured bool
	epoch    bool // an epoch ran after this batch
	ckpt     bool // and a checkpoint after the epoch
	dur      time.Duration
	span     int // the traced cluster.ApplyBatch span (-1 untraced)
}

// denseRun is one set-up cluster and its model.
type denseRun struct {
	dir   string
	cl    *nprt.SchedulerCluster
	model *denseModel
	log   []denseBatchRec
	batch int
	// commits sums the shards' group-commit counters over the measured
	// phase; a reopened store counts from zero.
	commits commitStats
}

// reopen closes the cluster and reopens it from its checkpoints and WALs,
// checks that its partition map, shard task lists and digests are what
// they were, and returns the time the reopen took.
func (r *denseRun) reopen(seed uint64, chk *checks) (time.Duration, error) {
	checkDenseState(r, "before close", chk)
	digests := r.cl.Digests()
	r.commits.add(denseCommitStats(r.cl))
	err := r.cl.Close()
	r.cl = nil
	if err != nil {
		return 0, err
	}
	goruntime.GC() // every reopen starts from a collected heap
	t := time.Now()
	cl, err := nprt.OpenCluster(r.dir, denseOptions(seed))
	d := time.Since(t)
	if err != nil {
		return 0, fmt.Errorf("admit-dense: reopen: %w", err)
	}
	r.cl = cl
	r.commits.sub(denseCommitStats(cl))
	checkDenseState(r, "after reopen", chk)
	if got := cl.Digests(); fmt.Sprint(got) != fmt.Sprint(digests) {
		chk.failf("digests %x after reopen, %x before", got, digests)
	}
	return d, nil
}

func denseOptions(seed uint64) nprt.ClusterOptions {
	return nprt.ClusterOptions{
		Shards:      denseShards,
		Placement:   "first-fit",
		RelaxedMeta: true, // the serving configuration
		Store:       nprt.DurableOptions{Runtime: nprt.RuntimeOptions{Seed: seed}},
	}
}

// apply sends one batch and folds the results into the model, checking
// every decision against the independent Theorem-1 checker on the
// serving shard's set at that point.
func (r *denseRun) apply(measured bool, chk *checks, tr *tracer) (failed int64, err error) {
	b := r.batch
	r.batch++
	names, evs := r.model.next(b, !measured)
	sp := tr.begin(int64(b), "cluster.ApplyBatch", -1)
	t0 := time.Now()
	res, errs, err := r.cl.ApplyBatch(evs)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("admit-dense: batch %d: %w", b, err)
	}
	rec := denseBatchRec{evs: evs, shards: make([]int, len(evs)),
		admitted: make([]bool, len(evs)), measured: measured, dur: d, span: sp}
	m := r.model
	for k, ev := range evs {
		i := names[k]
		rec.shards[k] = res[k].Shard
		if errs[k] != nil {
			failed++
			chk.failf("batch %d: %s %s: %v", b, ev.Op, m.pool[i].Task.Name, errs[k])
			continue
		}
		if ev.Op == "remove" {
			m.removes++
			m.unplace(i)
			continue
		}
		m.adds++
		sh := res[k].Shard
		acc, deep := t1Profiles(m.shardTasks(sh, &ev.Task.Task))
		want := nprt.AdmissionRejected
		switch {
		case acc && deep:
			want = nprt.AdmissionAdmitted
		case deep:
			want = nprt.AdmissionAdmittedDegraded
		}
		got := res[k].Decision.Verdict
		if got != want {
			chk.failf("batch %d: add %s on shard %d: verdict %v, independent checker says %v",
				b, ev.Task.Task.Name, sh, got, want)
		}
		switch got {
		case nprt.AdmissionAdmitted:
			m.admitted++
		case nprt.AdmissionAdmittedDegraded:
			m.degraded++
		default:
			m.rejected++
			continue
		}
		rec.admitted[k] = true
		m.place(i, sh)
	}
	r.log = append(r.log, rec)
	return failed, nil
}

// setupDense generates the inputs, opens a fresh cluster and warms it to
// its steady resident set.
func setupDense(cfg config, rep int, chk *checks) (*denseRun, error) {
	dir, err := os.MkdirTemp(cfg.work, fmt.Sprintf("dense-%d-", rep))
	if err != nil {
		return nil, err
	}
	r := &denseRun{dir: dir, model: newDenseModel(cfg.seed)}
	cl, err := nprt.OpenCluster(r.dir, denseOptions(cfg.seed))
	if err != nil {
		return nil, err
	}
	r.cl = cl
	for len(r.model.warm) > 0 {
		if _, err := r.apply(false, chk, nil); err != nil {
			cl.Close()
			return nil, err
		}
	}
	// The measured phase starts from a checkpoint, as it does after each
	// later one, so every reopen finds the same length of WAL.
	if err := cl.Checkpoint(); err != nil {
		cl.Close()
		return nil, err
	}
	return r, nil
}

// timeSetup repeats the set-up on a cluster of its own, which it then
// closes and removes, and returns the time the set-up took. The measured
// phase calls it between batches, so setup_s is a median over repetitions
// spread across the run like the other figures: seven back-to-back
// repetitions before the measured phase spread 26 % between runs.
func timeSetup(cfg config, rep int, chk *checks) (time.Duration, error) {
	goruntime.GC() // every repetition starts from a collected heap
	t0 := time.Now()
	run, err := setupDense(cfg, rep, chk)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	err = run.cl.Close()
	os.RemoveAll(run.dir)
	return d, err
}

func runAdmitDense(cfg config, chk *checks, tr *tracer) (*outcome, error) {
	t0 := time.Now()
	r, err := setupDense(cfg, 0, chk)
	if err != nil {
		return nil, err
	}
	setups := []time.Duration{time.Since(t0)}
	defer func() {
		if r.cl != nil {
			r.cl.Close()
		}
		os.RemoveAll(r.dir)
	}()

	batches := denseBatchesPerSecond * cfg.seconds
	m := r.model
	admits0 := m.admitted + m.degraded
	r.commits.sub(denseCommitStats(r.cl)) // count from here
	var reopens []time.Duration
	var replayedEvents, replayedEpochs int
	var busy time.Duration
	var rates []float64 // events per second of each block of batches
	blockStart := time.Duration(0)
	var failed int64
	lats := make([]time.Duration, 0, batches)
	epochs := 0
	for b := 0; b < batches; b++ {
		if b > 0 && b%denseBlockBatches == 0 {
			rates = append(rates, float64(denseBlockBatches*denseBatch)/(busy-blockStart).Seconds())
			blockStart = busy
		}
		f, err := r.apply(true, chk, tr)
		if err != nil {
			return nil, err
		}
		failed += f
		rec := &r.log[len(r.log)-1]
		lats = append(lats, rec.dur)
		busy += rec.dur
		if (b+1)%denseEpochEvery == 0 {
			sp := tr.begin(int64(b), "cluster.RunEpoch", -1)
			te := time.Now()
			if _, err := r.cl.RunEpoch(false); err != nil {
				return nil, err
			}
			busy += time.Since(te)
			tr.end(sp)
			rec.epoch = true
			epochs++
			if epochs%denseCheckpointEvery == 0 {
				sp := tr.begin(int64(b), "cluster.Checkpoint", -1)
				tc := time.Now()
				if err := r.cl.Checkpoint(); err != nil {
					return nil, err
				}
				busy += time.Since(tc)
				tr.end(sp)
				rec.ckpt = true
			}
		}
		if (b+1)%(2*denseReopenAt) == 0 { // at each checkpoint position
			d, err := timeSetup(cfg, len(setups), chk)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		// Recovery: close the cluster and reopen it from checkpoint plus
		// WAL. The reopens are spread over the run, so the recovery time is a
		// median over repetitions made under the same host load as the
		// other figures; 15 back-to-back reopens at the end of the run
		// spread 32 % between runs. A run too short for one gets one at
		// its end.
		if (b+1)%(2*denseReopenAt) == denseReopenAt || b == batches-1 && len(reopens) == 0 {
			d, err := r.reopen(cfg.seed, chk)
			if err != nil {
				return nil, err
			}
			reopens = append(reopens, d)
			for _, s := range r.cl.Recovery().Shards {
				replayedEvents += s.ReplayedEvents
				replayedEpochs += s.ReplayedEpochs
			}
		}
	}
	tail := batches - (batches-1)/denseBlockBatches*denseBlockBatches // batches in the last block
	rates = append(rates, float64(tail*denseBatch)/(busy-blockStart).Seconds())
	r.commits.add(denseCommitStats(r.cl))

	met := r.cl.Metrics()
	if got, want := met.Admits+met.AdmitsDegraded, m.admitted+m.degraded; got != want {
		chk.failf("cluster admitted %d adds, client saw %d", got, want)
	}
	if met.Rejects != m.rejected || met.Removes != m.removes {
		chk.failf("cluster counted %d rejects / %d removes, client saw %d / %d",
			met.Rejects, met.Removes, m.rejected, m.removes)
	}
	if met.MissesClean != 0 {
		chk.failf("%d clean-window deadline misses", met.MissesClean)
	}
	for sh := 0; sh < denseShards; sh++ {
		if _, deep := t1Profiles(m.shardTasks(sh, nil)); !deep {
			chk.failf("shard %d's final set of %d fails Theorem 1 in the deepest profile",
				sh, len(m.members[sh]))
		}
	}
	err = r.cl.Close()
	r.cl = nil
	if err != nil {
		return nil, err
	}

	fmt.Printf("set-up repetitions: %v\nreopens: %v\n", setups, reopens)
	events := int64(batches * denseBatch)
	out := &outcome{attempted: events, failed: failed, metrics: map[string]metric{}}
	sortDurations(lats)
	tailLine("admit-dense ApplyBatch latency", lats)
	rate := medianFloat(rates)
	fmt.Printf("admit-dense: resident %d+%d tasks, adds %d (admitted %d, degraded %d, rejected %d), removes %d; "+
		"%.1f admits/s; recovery median %.4fs\n",
		len(m.members[0]), len(m.members[1]), m.adds, m.admitted, m.degraded, m.rejected, m.removes,
		rate*float64(m.admitted+m.degraded-admits0)/float64(events), median(reopens).Seconds())
	if tr == nil {
		out.metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
		out.metrics["peak_rss_mb"] = metric{selfPeakRSSMB(), "MB"}
		out.metrics["ops_per_s"] = metric{rate, "1/s"}
		out.metrics["latency_p50_ms"] = metric{ms(quantile(lats, 0.5)), "ms"}
		return out, nil
	}
	var reopenTime time.Duration
	for _, d := range reopens {
		reopenTime += d
	}
	out.metrics["runtime.recovery_pct"] = metric{pct(reopenTime, busy), "%"}
	out.metrics["runtime.replayed_events"] = metric{float64(replayedEvents) / float64(len(reopens)), "count"}
	out.metrics["runtime.replayed_epochs"] = metric{float64(replayedEpochs) / float64(len(reopens)), "count"}
	records, syncs := r.commits.Records, r.commits.Syncs
	out.metrics["journal.records"] = metric{float64(records), "count"}
	out.metrics["journal.syncs"] = metric{float64(syncs), "count"}
	out.metrics["journal.records_per_sync"] = metric{float64(records) / float64(syncs), "ratio"}
	out.metrics["journal.stalls"] = metric{float64(r.commits.Stalls), "count"}
	if err := replayDense(cfg, r, busy, tr, chk, out.metrics); err != nil {
		return nil, err
	}
	return out, nil
}

// checkDenseState compares the cluster's partition map and shard task
// lists with the client's model.
func checkDenseState(r *denseRun, when string, chk *checks) {
	m := r.model
	owners := r.cl.Owners()
	held := 0
	for i, sh := range m.owner {
		if sh < 0 {
			continue
		}
		held++
		if got, ok := owners[m.pool[i].Task.Name]; !ok || got != sh {
			chk.failf("%s: %s owned by shard %d (present %v), client says %d",
				when, m.pool[i].Task.Name, got, ok, sh)
		}
	}
	if len(owners) != held {
		chk.failf("%s: cluster maps %d names, client holds %d", when, len(owners), held)
	}
	for sh, s := range r.cl.Shards() {
		var got, want []string
		for _, spec := range s.Store.Runtime().Tasks() {
			got = append(got, spec.Task.Name)
		}
		for _, i := range m.members[sh] {
			want = append(want, m.pool[i].Task.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			chk.failf("%s: shard %d holds %d tasks, client says %d", when, sh, len(got), len(want))
		}
	}
}

// commitStats are group-commit counters.
type commitStats struct{ Records, Syncs, Stalls int64 }

func (c *commitStats) add(o commitStats) {
	c.Records += o.Records
	c.Syncs += o.Syncs
	c.Stalls += o.Stalls
}

func (c *commitStats) sub(o commitStats) {
	c.add(commitStats{-o.Records, -o.Syncs, -o.Stalls})
}

// denseCommitStats sums the shards' group-commit counters.
func denseCommitStats(cl *nprt.SchedulerCluster) (sum commitStats) {
	for _, s := range cl.Shards() {
		st := s.Store.CommitStats()
		sum.add(commitStats{int64(st.Records), int64(st.Syncs), int64(st.Stalls)})
	}
	return sum
}
