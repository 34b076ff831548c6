// FaultFS is the storage half of the deterministic fault-injection story:
// where sim.FaultPlan perturbs *execution* (overruns, aborts, dropped
// releases) purely in (seed, job index), FaultFS perturbs *durability*
// purely in (seed, I/O-op index). Every write and sync the journal issues
// consumes exactly one op index; the fault drawn for op n is a pure
// function of (seed, n), so a chaos scenario replays bit-identically: same
// seed, same op sequence, same torn write at the same boundary.
package journal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"nprt/internal/rng"
)

// Injected-fault errors. Each is distinguishable so tests can pin which
// fault fired; all of them poison the Writer like a real I/O error would.
var (
	// ErrInjectedSync is a failed fsync: the barrier was dropped. The bytes
	// of preceding writes may or may not be durable — exactly the fsyncgate
	// ambiguity the sticky-poison discipline exists for.
	ErrInjectedSync = errors.New("journal: injected fsync failure")
	// ErrInjectedTorn is a torn write: a prefix of the buffer landed.
	ErrInjectedTorn = errors.New("journal: injected torn write")
	// ErrInjectedFull is ENOSPC: nothing landed.
	ErrInjectedFull = errors.New("journal: injected disk full")
	// ErrInjectedStall is a hung device: the op (and the next StallOps-1
	// ops) fail without landing anything.
	ErrInjectedStall = errors.New("journal: injected I/O stall")
	// ErrInjectedWedge is a permanently failed device (until Heal).
	ErrInjectedWedge = errors.New("journal: injected device wedge")
)

// FaultRates parameterizes the per-op fault distribution. Probabilities
// are per I/O op and independent; Torn+Full+Stall apply to writes,
// SyncFail to syncs. All zero means a transparent injector.
type FaultRates struct {
	SyncFailProb float64 // P(fsync fails) per sync op
	TornProb     float64 // P(write tears) per write op
	FullProb     float64 // P(write fails with disk-full) per write op
	StallProb    float64 // P(a stall window opens) per write op
	StallOps     int     // ops failed per stall window (default 3)

	// Slow-op injection: with probability SlowProb, an op succeeds but
	// sleeps a deterministic virtual delay drawn uniformly from
	// [SlowMin, SlowMax] — the gray-failure model, distinct from the
	// instant-error stall above. Delays are drawn on the same op index as
	// the fault class (new salts), so enabling SlowProb does not shift the
	// existing fault streams. SlowMax defaults to 2ms when SlowProb > 0.
	SlowProb float64
	SlowMin  time.Duration
	SlowMax  time.Duration
}

// Validate rejects rates outside [0, 1] or summing past 1 per op class.
func (r FaultRates) Validate() error {
	for _, p := range []float64{r.SyncFailProb, r.TornProb, r.FullProb, r.StallProb, r.SlowProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("journal: fault probability %v outside [0, 1]", p)
		}
	}
	if s := r.TornProb + r.FullProb + r.StallProb; s > 1 {
		return fmt.Errorf("journal: write fault probabilities sum to %v > 1", s)
	}
	if r.SlowMin < 0 || r.SlowMax < 0 || (r.SlowMax > 0 && r.SlowMin > r.SlowMax) {
		return fmt.Errorf("journal: slow delay range [%v, %v] invalid", r.SlowMin, r.SlowMax)
	}
	return nil
}

// FaultStats counts what an injector actually did.
type FaultStats struct {
	Ops        uint64 `json:"ops"` // total ops consumed (writes + syncs)
	SyncFails  uint64 `json:"sync_fails"`
	TornWrites uint64 `json:"torn_writes"`
	FullWrites uint64 `json:"full_writes"`
	Stalls     uint64 `json:"stalls"` // stall windows opened
	StallOps   uint64 `json:"stall_ops"`
	WedgeFails uint64 `json:"wedge_fails"`
	BitFlips   uint64 `json:"bit_flips"` // armed silent corruptions delivered
	SlowOps    uint64 `json:"slow_ops"`  // ops delayed (seeded slow or brownout)
}

// FaultFS is a seeded, deterministic Injector. The op counter is owned by
// the FaultFS, not the Writer, so it survives writer reopens: the fault
// schedule is a property of the (virtual) disk, and recovery reopening the
// journal does not reroll history. Safe for concurrent use.
type FaultFS struct {
	mu        sync.Mutex
	seed      uint64
	rates     FaultRates
	ops       uint64 // next op index
	stallLeft int    // remaining ops in an open stall window
	wedged    bool
	suspended bool
	flipArmed bool
	clock     Clock         // sleeps injected delays; defaults to WallClock
	brown     time.Duration // driver-initiated persistent per-op delay
	stats     FaultStats
}

// NewFaultFS builds an injector whose fault schedule is a pure function of
// (seed, op index). Panics on invalid rates — a misconfigured chaos plan
// is a programming error, not a runtime condition.
func NewFaultFS(seed uint64, rates FaultRates) *FaultFS {
	if err := rates.Validate(); err != nil {
		panic(err)
	}
	if rates.StallOps <= 0 {
		rates.StallOps = 3
	}
	if rates.SlowProb > 0 && rates.SlowMax <= 0 {
		rates.SlowMax = 2 * time.Millisecond
	}
	return &FaultFS{seed: seed, rates: rates, clock: WallClock{}}
}

// SetClock substitutes the clock that serves injected delays. Deterministic
// soaks share one VirtualClock between the injector and the journal writer
// so the injected delay is exactly the observed sojourn.
func (f *FaultFS) SetClock(c Clock) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c != nil {
		f.clock = c
	}
}

// slowDelay returns the injected delay for op, drawn on salts 4 (decision)
// and 5 (magnitude) so the pre-existing fault streams (salts 1–3) are
// unshifted, plus any active brownout. Caller holds f.mu.
func (f *FaultFS) slowDelay(op uint64) time.Duration {
	d := f.brown
	if f.rates.SlowProb > 0 && f.draw(op, 4) < f.rates.SlowProb {
		span := float64(f.rates.SlowMax - f.rates.SlowMin)
		d += f.rates.SlowMin + time.Duration(f.draw(op, 5)*span)
	}
	if d > 0 {
		f.stats.SlowOps++
	}
	return d
}

// draw returns the uniform sample for (op, salt) — pure in (seed, op,
// salt), in the same keyed-stream discipline as sim.FaultPlan.
func (f *FaultFS) draw(op, salt uint64) float64 {
	key := f.seed ^ (op+1)*0x9e3779b97f4a7c15 ^ (salt+1)*0xd1b54a32d192ed03
	return rng.New(key).Float64()
}

// Write implements Injector for one record write of n bytes. The fault
// decision and any injected delay are computed under the mutex; the delay
// itself is slept after unlocking so a slow op never blocks the fault
// schedule of concurrent callers.
func (f *FaultFS) Write(n int) (int, error) {
	f.mu.Lock()
	if f.suspended {
		// Maintenance window: no op index consumed, no delay served.
		f.mu.Unlock()
		return n, nil
	}
	op := f.ops
	f.ops++
	f.stats.Ops++
	if f.wedged {
		// A dead device errors instantly — slowness is the gray model,
		// wedge the black one.
		f.stats.WedgeFails++
		f.mu.Unlock()
		return 0, ErrInjectedWedge
	}
	var (
		ret  = n
		rerr error
	)
	switch {
	case f.stallLeft > 0:
		f.stallLeft--
		f.stats.StallOps++
		ret, rerr = 0, ErrInjectedStall
	default:
		u := f.draw(op, 1)
		switch {
		case u < f.rates.TornProb:
			f.stats.TornWrites++
			// The landed prefix length is its own deterministic draw, in
			// [0, n): at least one byte is always lost.
			k := int(f.draw(op, 2) * float64(n))
			if k >= n {
				k = n - 1
			}
			if k < 0 {
				k = 0
			}
			ret, rerr = k, ErrInjectedTorn
		case u < f.rates.TornProb+f.rates.FullProb:
			f.stats.FullWrites++
			ret, rerr = 0, ErrInjectedFull
		case u < f.rates.TornProb+f.rates.FullProb+f.rates.StallProb:
			f.stats.Stalls++
			f.stats.StallOps++
			f.stallLeft = f.rates.StallOps - 1
			ret, rerr = 0, ErrInjectedStall
		}
	}
	delay := f.slowDelay(op)
	clock := f.clock
	f.mu.Unlock()
	if delay > 0 {
		clock.Sleep(delay)
	}
	return ret, rerr
}

// Sync implements Injector for one fsync (file or directory). Same
// compute-under-lock, sleep-after-unlock discipline as Write.
func (f *FaultFS) Sync() error {
	f.mu.Lock()
	if f.suspended {
		f.mu.Unlock()
		return nil
	}
	op := f.ops
	f.ops++
	f.stats.Ops++
	if f.wedged {
		f.stats.WedgeFails++
		f.mu.Unlock()
		return ErrInjectedWedge
	}
	var rerr error
	switch {
	case f.stallLeft > 0:
		f.stallLeft--
		f.stats.StallOps++
		rerr = ErrInjectedStall
	case f.draw(op, 3) < f.rates.SyncFailProb:
		f.stats.SyncFails++
		rerr = ErrInjectedSync
	}
	delay := f.slowDelay(op)
	clock := f.clock
	f.mu.Unlock()
	if delay > 0 {
		clock.Sleep(delay)
	}
	return rerr
}

// Wedge fails every subsequent op until Heal — the model of a dead device.
// Driver-initiated (the chaos soak decides when, from its own seeded
// plan), so wedges stay at deterministic boundaries regardless of how many
// ops each drive mode happens to issue.
func (f *FaultFS) Wedge() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wedged = true
}

// Heal ends a wedge (and any open stall window or brownout): the disk was
// replaced.
func (f *FaultFS) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wedged = false
	f.stallLeft = 0
	f.brown = 0
}

// Brownout sets a persistent per-op delay served on every subsequent op
// until cleared (Brownout(0) or Heal) — the gray-failure model of a drive
// that still completes every request, just slowly. Driver-initiated like
// Wedge, for the same reason: the delay must start at a deterministic
// boundary regardless of how many ops each drive mode happens to issue, so
// comparison-gated soaks stay bit-identical across serial and parallel
// execution.
func (f *FaultFS) Brownout(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d < 0 {
		d = 0
	}
	f.brown = d
}

// Suspend makes the injector transparent until Resume: ops pass through
// cleanly and consume NO op indices, so the fault schedule is frozen, not
// rerolled. This is the maintenance window — an operator re-imaging a
// shard onto a freshly checked device must not have the new journal's
// bootstrap writes eaten by the old device's fault plan.
func (f *FaultFS) Suspend() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.suspended = true
}

// Resume ends a Suspend window; the fault schedule continues from where it
// was frozen.
func (f *FaultFS) Resume() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.suspended = false
}

// ArmFlip arms a one-shot silent bit flip: the next non-empty write
// through this injector has one bit of its middle byte inverted before
// the bytes land, and the write still reports success. This is the
// bit-rot model the replica digest check exists for — unlike every
// Injector fault above, nothing errors at write time. The flip is
// deliberately not part of the seeded rate schedule: silent corruption
// must land at a test-chosen boundary, and consuming a draw for it would
// shift every later fault in the (seed, op) stream.
func (f *FaultFS) ArmFlip() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flipArmed = true
}

// CorruptWrite implements Corrupter: it mutates p in place when a flip is
// armed. Runs even under Suspend — bit rot does not honor maintenance
// windows — and consumes no op index.
func (f *FaultFS) CorruptWrite(p []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.flipArmed || len(p) == 0 {
		return
	}
	f.flipArmed = false
	p[len(p)/2] ^= 0x40
	f.stats.BitFlips++
}

// Wedged reports whether the device is currently wedged.
func (f *FaultFS) Wedged() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wedged
}

// Stats returns a snapshot of the fault counters.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
