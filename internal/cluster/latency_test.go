package cluster_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"nprt/internal/cluster"
	"nprt/internal/journal"
	schedrt "nprt/internal/runtime"
	"nprt/internal/stats"
)

// TestLatencyTrackerWindowEviction pins the tracker's epoch-boundary
// semantics: which samples survive each Advance, when a jump clears the
// whole window, that backwards advances are no-ops, and that Reset drops
// samples without moving the epoch position. Each case lists the samples
// that must be left in the window; the expected p99 is what the shared
// stats.LatencyHistogram answers for exactly those samples.
func TestLatencyTrackerWindowEviction(t *testing.T) {
	const (
		ms1  = time.Millisecond
		ms16 = 16 * time.Millisecond
	)
	type op struct {
		rec   time.Duration // > 0: Record this sample
		adv   int64         // > 0: Advance to this epoch
		reset bool
	}
	cases := []struct {
		name   string
		window int
		ops    []op
		left   []time.Duration // samples still in the window
	}{
		{
			name:   "window1-evicts-every-epoch",
			window: 1,
			ops:    []op{{rec: ms1}, {rec: ms1}, {rec: ms16}, {adv: 1}},
		},
		{
			name:   "window2-retains-previous-epoch",
			window: 2,
			ops:    []op{{rec: ms1}, {adv: 1}, {rec: ms16}},
			left:   []time.Duration{ms1, ms16},
		},
		{
			name:   "window2-evicts-oldest-on-step",
			window: 2,
			ops:    []op{{rec: ms16}, {adv: 1}, {rec: ms1}, {adv: 2}},
			left:   []time.Duration{ms1},
		},
		{
			name:   "window2-drains-empty-two-steps-later",
			window: 2,
			ops:    []op{{rec: ms1}, {adv: 1}, {rec: ms16}, {adv: 3}},
		},
		{
			name:   "jump-of-window-or-more-clears-all",
			window: 4,
			ops:    []op{{rec: ms1}, {adv: 1}, {rec: ms1}, {adv: 2}, {rec: ms16}, {adv: 6}},
		},
		{
			name:   "advance-backwards-is-a-noop",
			window: 2,
			ops:    []op{{adv: 5}, {rec: ms16}, {adv: 3}},
			left:   []time.Duration{ms16},
		},
		{
			name:   "reset-drops-samples-keeps-epoch",
			window: 2,
			ops:    []op{{adv: 3}, {rec: ms16}, {reset: true}, {rec: ms1}, {adv: 3}},
			left:   []time.Duration{ms1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := cluster.NewLatencyTracker(tc.window)
			for i, o := range tc.ops {
				switch {
				case o.reset:
					tr.Reset()
				case o.adv > 0:
					tr.Advance(o.adv)
				default:
					if o.rec <= 0 {
						t.Fatalf("op %d: empty step", i)
					}
					tr.Record(o.rec)
				}
			}
			var want stats.LatencyHistogram
			for _, d := range tc.left {
				want.Record(d)
			}
			if got := tr.Count(); got != want.Count() {
				t.Fatalf("Count = %d, want %d", got, want.Count())
			}
			if got := tr.Quantile(0.99); got != want.Quantile(0.99) {
				t.Fatalf("Quantile(0.99) = %v, want %v", got, want.Quantile(0.99))
			}
		})
	}
}

// TestLatencyTrackerConcurrentRecord records from several goroutines, as
// WAL writers do, while another queries the window under the same lock.
func TestLatencyTrackerConcurrentRecord(t *testing.T) {
	tr := cluster.NewLatencyTracker(4)
	const writers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Record(time.Duration(w*each+i) * time.Microsecond)
			}
		}(w)
	}
	for tr.Count() < writers*each {
		if q := tr.Quantile(0.99); q >= writers*each*time.Microsecond {
			t.Fatalf("Quantile(0.99) = %v above every sample", q)
		}
	}
	wg.Wait()
	var want stats.LatencyHistogram
	for i := 0; i < writers*each; i++ {
		want.Record(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := tr.Quantile(q); got != want.Quantile(q) {
			t.Fatalf("Quantile(%g) = %v, want %v", q, got, want.Quantile(q))
		}
	}
}

// graySlowOptions builds a deterministic gray-failure test cluster: every
// shard's WAL runs on its own virtual clock, shard 0's primary drive is
// the returned FaultFS (brown it to make the shard slow), and — when slo
// is set — the latency health machine is armed with a 1-epoch window so a
// breach is detected at the very next epoch sweep.
func graySlowOptions(shards, replicas int, slo bool) (cluster.Options, *journal.FaultFS) {
	clocks := make([]*journal.VirtualClock, shards)
	for i := range clocks {
		clocks[i] = journal.NewVirtualClock()
	}
	prim := journal.NewFaultFS(1, journal.FaultRates{})
	prim.SetClock(clocks[0])
	opt := cluster.Options{
		Shards:    shards,
		Replicas:  replicas,
		Placement: "first-fit",
		Store:     schedrt.StoreOptions{NoSync: true},
		Inject: func(si int) journal.Injector {
			if si == 0 {
				return prim
			}
			return nil
		},
		Clock: func(si int) journal.Clock { return clocks[si] },
		Retry: cluster.RetryOptions{MaxAttempts: 3, Sleep: noSleep},
	}
	if slo {
		opt.LatencySLO = 2 * time.Millisecond
		opt.LatencyWindow = 1
		opt.AdmitDeadline = 5 * time.Millisecond
	}
	return opt, prim
}

// TestSlowShardFencedAndDeadlineShed: the unreplicated gray-failure
// contract. A browned drive makes shard 0 breach the SLO at the next
// epoch sweep: the shard turns Slow (fenced — new placements land
// elsewhere), removes targeting it are shed with ErrShardSlow without
// mutating anything, and once the brownout ends the next sweep's fast
// samples lift the fence so the shed op succeeds on retry.
func TestSlowShardFencedAndDeadlineShed(t *testing.T) {
	opt, prim := graySlowOptions(2, 0, true)
	c := openCluster(t, t.TempDir(), opt)

	if res, err := c.Apply(addEvent("a0", 100, 10, 2)); err != nil || res.Shard != 0 {
		t.Fatalf("seed: shard %d err %v, want shard 0", res.Shard, err)
	}
	prim.Brownout(10 * time.Millisecond)
	if _, err := c.Apply(addEvent("a1", 100, 10, 2)); err != nil {
		t.Fatalf("browned apply (delay, not error): %v", err)
	}
	if _, err := c.RunEpoch(false); err != nil {
		t.Fatalf("epoch: %v", err)
	}

	h := c.Health(0)
	if h.State != cluster.Slow || h.SlowEvents != 1 {
		t.Fatalf("after browned epoch: %+v, want Slow with 1 slow event", h)
	}
	if h.LatencyP99Ms <= 2 {
		t.Fatalf("recorded p99 %.3fms does not show the 10ms brownout", h.LatencyP99Ms)
	}
	// Placement fences the slow shard: first-fit would pick 0, but 0 is
	// over the SLO, so the add must land on shard 1.
	res, err := c.Apply(addEvent("a2", 100, 10, 2))
	if err != nil || res.Shard != 1 {
		t.Fatalf("add while slow: shard %d err %v, want fenced onto shard 1", res.Shard, err)
	}
	// Deadline propagation: the remove's owner is slow, so serving it
	// would miss the admit deadline — shed, nothing mutated.
	if _, err := c.Apply(schedrt.Event{Op: "remove", Name: "a0"}); !errors.Is(err, cluster.ErrShardSlow) {
		t.Fatalf("remove against slow owner: %v, want ErrShardSlow", err)
	}
	if h := c.Health(0); h.DeadlineSheds != 1 {
		t.Fatalf("deadline sheds = %d, want 1", h.DeadlineSheds)
	}
	if si, ok := c.Owners()["a0"]; !ok || si != 0 {
		t.Fatalf("shed remove mutated ownership: owner %d/%v", si, ok)
	}

	// The brownout ends; the next epoch's own WAL writes are fast, the
	// 1-epoch window has evicted the slow samples, and the sweep heals.
	prim.Brownout(0)
	if _, err := c.RunEpoch(false); err != nil {
		t.Fatalf("healing epoch: %v", err)
	}
	if h := c.Health(0); h.State != cluster.Healthy {
		t.Fatalf("after brownout ended: %+v, want Healthy", h)
	}
	if _, err := c.Apply(schedrt.Event{Op: "remove", Name: "a0"}); err != nil {
		t.Fatalf("remove after heal: %v", err)
	}
}

// TestLatencySubSLOBrownoutStaysHealthy: a brownout below the SLO is not
// a breach. Shard 0's drive answers every op in 1.5ms against a 2ms SLO
// for one epoch; the reported p99 is that 1.5ms within the histogram's
// 2^-6, and the shard stays Healthy (a tracker that rounds 1.5ms up to
// the next power of two, 2.1ms, fences it).
func TestLatencySubSLOBrownoutStaysHealthy(t *testing.T) {
	opt, prim := graySlowOptions(2, 0, true)
	c := openCluster(t, t.TempDir(), opt)

	if res, err := c.Apply(addEvent("a0", 100, 10, 2)); err != nil || res.Shard != 0 {
		t.Fatalf("seed: shard %d err %v, want shard 0", res.Shard, err)
	}
	prim.Brownout(1500 * time.Microsecond)
	if _, err := c.Apply(addEvent("a1", 100, 10, 2)); err != nil {
		t.Fatalf("browned apply: %v", err)
	}
	if _, err := c.RunEpoch(false); err != nil {
		t.Fatalf("epoch: %v", err)
	}
	prim.Brownout(0)

	h := c.Health(0)
	if h.State != cluster.Healthy || h.SlowEvents != 0 {
		t.Fatalf("after a 1.5ms brownout under a 2ms SLO: %+v, want Healthy", h)
	}
	if math.Abs(h.LatencyP99Ms-1.5) > 1.5/64 {
		t.Fatalf("recorded p99 %.6fms, want 1.5ms within 2^-6", h.LatencyP99Ms)
	}
	if res, err := c.Apply(addEvent("a2", 100, 10, 2)); err != nil || res.Shard != 0 {
		t.Fatalf("add after the brownout: shard %d err %v, want unfenced shard 0", res.Shard, err)
	}
}

// TestSlowPrimaryProactivePromotion is the acceptance pin for the
// replicated path: with one follower, a brownout on the primary drive is
// detected at the next epoch sweep and resolved by promoting the in-sync
// follower — BEFORE any op fails — restoring p99 below the SLO with every
// acked task intact. The blind control run (no -latency-slo) proves the
// promotion is driven by the latency signal, not by the brownout itself.
func TestSlowPrimaryProactivePromotion(t *testing.T) {
	run := func(slo bool) *cluster.Cluster {
		opt, prim := graySlowOptions(1, 1, slo)
		c := openCluster(t, t.TempDir(), opt)
		for i := 0; i < 3; i++ {
			if _, err := c.Apply(addEvent(fmt.Sprintf("a%d", i), 100, 10, 2)); err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
		}
		if reps := c.Replicas(0); len(reps) != 1 || !reps[0].InSync {
			t.Fatalf("follower not in sync before brownout: %+v", reps)
		}
		prim.Brownout(10 * time.Millisecond)
		if _, err := c.Apply(addEvent("a3", 100, 10, 2)); err != nil {
			t.Fatalf("browned apply: %v", err)
		}
		if _, err := c.RunEpoch(false); err != nil {
			t.Fatalf("epoch: %v", err)
		}
		return c
	}

	c := run(true)
	h := c.Health(0)
	if h.Promotions != 1 || h.SlowEvents != 1 {
		t.Fatalf("armed run after sweep: %+v, want 1 slow event resolved by 1 promotion", h)
	}
	if h.State != cluster.Healthy {
		t.Fatalf("promotion must clear Slow: %+v", h)
	}
	if slot := c.PrimarySlot(0); slot != 1 {
		t.Fatalf("primary slot %d, want promoted follower slot 1", slot)
	}
	owners := c.Owners()
	for _, name := range []string{"a0", "a1", "a2", "a3"} {
		if si, ok := owners[name]; !ok || si != 0 {
			t.Fatalf("task %q lost across proactive promotion (owner %d/%v)", name, si, ok)
		}
	}
	// The promoted store serves fast: the next epoch's samples keep p99
	// under the SLO (the tracker was reset with the demoted device).
	if _, err := c.Apply(addEvent("a4", 100, 10, 2)); err != nil {
		t.Fatalf("apply after promotion: %v", err)
	}
	if _, err := c.RunEpoch(false); err != nil {
		t.Fatalf("post-promotion epoch: %v", err)
	}
	if p99 := c.ShardLatencyP99(0); p99 > 2*time.Millisecond {
		t.Fatalf("p99 %v still over SLO after promoting away from the slow drive", p99)
	}
	if h := c.Health(0); h.State != cluster.Healthy || h.Promotions != 1 {
		t.Fatalf("steady state after promotion: %+v", h)
	}

	// Blind control: same brownout, no latency SLO — nobody promotes,
	// the slow drive keeps serving every op.
	cb := run(false)
	if h := cb.Health(0); h.Promotions != 0 || h.SlowEvents != 0 {
		t.Fatalf("blind run acted on a signal it does not have: %+v", h)
	}
	if slot := cb.PrimarySlot(0); slot != 0 {
		t.Fatalf("blind run moved the primary to slot %d", slot)
	}
}
