package experiments

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"nprt/internal/cluster"
	"nprt/internal/journal"
	"nprt/internal/rng"
	schedrt "nprt/internal/runtime"
)

// The cluster soak plays one seeded churn tape across sharded clusters
// while a fault plan torments them at tick boundaries. Every shard drive
// (primary and follower slots alike) sits on a deterministic storage-fault
// injector (journal.FaultFS: refused fsyncs, torn writes, full disks,
// stalls, all pure in (seed, op index)) and a per-shard virtual clock that
// serves injected delays, and the plan kills shards (crash-restart through
// recovery), wedges drives (failover with replicas, fail-and-evacuate
// without), wedges followers, and browns out primaries (every op succeeds,
// 5x over the latency SLO), each pure in (seed, tick).
//
// One checker, violation, runs after every tick of every drive and names
// the first broken invariant:
//
//   - accepted ⇒ live, and live ⇒ accepted: the expect model (admitted −
//     removed − evicted) is exactly the set of tasks resident on shards;
//   - exactly one owner per task: each name is live on one shard, and the
//     partition map agrees;
//   - exactly one primary per shard: the primary slot is not a follower
//     slot, and the slots are 0..replicas;
//   - zero clean misses: migrated tasks are re-screened by their target's
//     own Theorem-1 admission and brownouts delay the WAL, never the
//     screen, so no resident set ever exceeds what the screen proved.
//
// Each width drives the tape three times — serial, serial again,
// concurrent — and the per-tick trace of the folded cluster digest must
// agree across all three. Kills and wedges key on the monotonic tick
// counter (NOT the cluster epoch, which re-levels through old values
// while a re-imaged shard catches up), transient storage faults are healed
// by the retry loop before they can change any applied sequence, and a
// brownout delays every op on its drive equally, so the windowed p99 is
// the delay itself however many ops a serial or parallel drive issues.

// SoakShardCounts is the default width sweep.
var SoakShardCounts = []int{8, 64}

// Faults is a soak's torment plan. Storage is the per-op fault mix on
// every drive. Kill, Wedge, FollowerWedge and Brownout are per-tick
// probabilities of one torment action, read off chaosDraw's action float
// with cumulative thresholds in that order. LatencySignal arms the gray-
// failure health machine (SLO fencing, deadline sheds, proactive
// promotion); a plan with it also drives one blind serial control.
type Faults struct {
	Name          string             `json:"name"`
	Storage       journal.FaultRates `json:"storage"`
	Kill          float64            `json:"kill"`
	Wedge         float64            `json:"wedge"`
	FollowerWedge float64            `json:"follower_wedge"`
	Brownout      float64            `json:"brownout"`
	LatencySignal bool               `json:"latency_signal"`
}

var (
	// QuietFaults drives the tape with no torment: the serial/parallel
	// identity and the invariants alone.
	QuietFaults = Faults{Name: "quiet"}

	// ChaosFaults is the failure-containment plan. The storage rates are
	// low because the containment loop must keep every fault transient:
	// the retry budget has to make escalation to Failed vanishingly
	// improbable, since that is what lets the parallel and serial drives
	// converge despite seeing different op indices. The budget must
	// comfortably outlast a full stall window (StallOps failed ops) plus
	// the handful of fresh fault draws the reopen-retries themselves
	// consume; ten attempts put the escalation probability past a stall at
	// ~(per-op fault rate)^6. The tick rates keep most ticks quiet while a
	// few hundred ticks see several of each action.
	ChaosFaults = Faults{
		Name: "chaos",
		Storage: journal.FaultRates{
			SyncFailProb: 0.002,
			TornProb:     0.001,
			FullProb:     0.0005,
			StallProb:    0.0005,
			StallOps:     3,
		},
		Kill:          0.02,
		Wedge:         0.012,
		FollowerWedge: 0.01,
	}

	// GrayFaults is the gray-failure plan: no drive ever dies, but one
	// primary at a time goes slow, and the latency signal must contain it.
	GrayFaults = Faults{Name: "gray", Brownout: 0.04, LatencySignal: true}
)

const (
	// brownTicks is how long a brownout lasts (the armed drive promotes
	// away long before expiry).
	brownTicks = 4
	// grayDelay is the browned drive's per-op delay; graySLO is the WAL
	// sojourn p99 ceiling; grayDeadline is the per-event client deadline.
	// delay > deadline > SLO: a browned primary misses every deadline,
	// and the tracker (within 2^-6: 10ms reads as 10ms) sees the breach
	// on the first windowed sample.
	grayDelay    = 10 * time.Millisecond
	graySLO      = 2 * time.Millisecond
	grayDeadline = 5 * time.Millisecond
)

const (
	chaosTickSalt    = 0x9e3779b97f4a7c15
	chaosShardSalt   = 0xd1b54a32d192ed03
	chaosReplicaSalt = 0x94d049bb133111eb
)

// chaosDraw is the pure (seed, tick) action draw: two floats — one for the
// action kind, one for the victim shard.
func chaosDraw(seed uint64, tick int) (action, victim float64) {
	st := rng.New(seed ^ uint64(tick+1)*chaosTickSalt)
	return st.Float64(), st.Float64()
}

// SoakRow is the outcome at one cluster width. A returned row has passed
// the per-tick checker on every drive and the drives agreed tick for tick.
type SoakRow struct {
	Shards int `json:"shards"`
	Events int `json:"events"`
	Ticks  int `json:"ticks"`

	// Torment the plan injected. Wedges are primary-drive kills absorbed
	// by failover (replicas > 0); Evacs are wedges absorbed by fail-and-
	// evacuate (replicas == 0), whose handoffs Migrated or Evicted tasks.
	Kills          int `json:"kills"`
	Evacs          int `json:"evacs"`
	Migrated       int `json:"migrated"`
	Evicted        int `json:"evicted"`
	Wedges         int `json:"wedges"`
	FollowerWedges int `json:"follower_wedges"`
	Brownouts      int `json:"brownouts"`

	// Containment work, summed over the shards' health counters.
	Reopens    uint64 `json:"reopens"`
	StoreErrs  uint64 `json:"store_errs"`
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`
	Reseeds    uint64 `json:"reseeds"`
	SlowEvents uint64 `json:"slow_events"`

	// DeadlineMisses counts events applied through a browned primary (each
	// waited ≥ grayDelay > grayDeadline); BlindMisses is the same count on
	// the blind control drive. DeadlineSheds counts events refused at
	// routing because the only candidate was over SLO.
	DeadlineSheds  uint64 `json:"deadline_sheds"`
	DeadlineMisses int    `json:"deadline_misses"`
	BlindMisses    int    `json:"deadline_misses_blind"`

	// Scheduler counters, summed over shards.
	Epochs  int64 `json:"epochs"`
	Jobs    int64 `json:"jobs"`
	Admits  int64 `json:"admits"`
	Rejects int64 `json:"rejects"`
	Removes int64 `json:"removes"`
	Misses  int64 `json:"misses"`

	// Resident is the final partition-map size; Spread is how many shards
	// ended non-empty.
	Resident int `json:"resident"`
	Spread   int `json:"spread"`

	Digests []string `json:"digests"`
}

// SoakResult is the full artifact.
type SoakResult struct {
	Events   int       `json:"events"`
	Seed     uint64    `json:"seed"`
	Policy   string    `json:"policy"`
	Replicas int       `json:"replicas"`
	Faults   Faults    `json:"faults"`
	Rows     []SoakRow `json:"rows"`
}

// soakOutcome is one drive's complete observable state.
type soakOutcome struct {
	trace   []uint64 // c.Digest() after every tick
	digests []uint64
	owners  map[string]int
	metrics schedrt.Metrics
	healths []cluster.ShardHealth
	spread  int

	ticks, kills, evacs, migrated, evicted int
	wedges, fwedges, brownouts             int
	misses                                 int
	sheds                                  uint64
}

// soakShard is one shard's slice of a soakState.
type soakShard struct {
	live        []string // task names resident on the shard's store
	primary     int      // slot directory holding the primary store
	followers   []int    // follower slot directories
	missesClean int64
}

// soakState is the plain snapshot the invariant checker reads.
type soakState struct {
	owners map[string]int
	shards []soakShard
}

func snapshot(c *cluster.Cluster) soakState {
	st := soakState{owners: c.Owners()}
	for si, sh := range c.Shards() {
		rt := sh.Store.Runtime()
		s := soakShard{primary: c.PrimarySlot(si), missesClean: rt.Metrics().MissesClean}
		for _, sp := range rt.Tasks() {
			s.live = append(s.live, sp.Task.Name)
		}
		for _, ri := range c.Replicas(si) {
			s.followers = append(s.followers, ri.Slot)
		}
		st.shards = append(st.shards, s)
	}
	return st
}

// violation returns the first broken soak invariant in st, naming the task
// or shard, or "" when every invariant holds. expect is the set of tasks
// the soak saw accepted and not since removed or evicted.
func violation(st soakState, expect map[string]bool, replicas int) string {
	liveOn := make(map[string]int)
	for si, sh := range st.shards {
		for _, name := range sh.live {
			if prev, ok := liveOn[name]; ok {
				return fmt.Sprintf("one owner: task %q live on shards %d and %d", name, prev, si)
			}
			liveOn[name] = si
		}
	}
	for _, name := range sortedKeys(expect) {
		if _, ok := liveOn[name]; !ok {
			return fmt.Sprintf("accepted ⇒ live: task %q accepted but live on no shard", name)
		}
	}
	for si, sh := range st.shards {
		for _, name := range sh.live {
			if !expect[name] {
				return fmt.Sprintf("live ⇒ accepted: task %q live on shard %d was never accepted", name, si)
			}
			if o, ok := st.owners[name]; !ok {
				return fmt.Sprintf("one owner: task %q live on shard %d is missing from the partition map", name, si)
			} else if o != si {
				return fmt.Sprintf("one owner: partition map places task %q on shard %d, live on shard %d", name, o, si)
			}
		}
	}
	for _, name := range sortedKeys(st.owners) {
		if _, ok := liveOn[name]; !ok {
			return fmt.Sprintf("one owner: partition map places task %q on shard %d, live on no shard", name, st.owners[name])
		}
	}
	for si, sh := range st.shards {
		seen := make([]bool, replicas+1)
		for _, slot := range append([]int{sh.primary}, sh.followers...) {
			if slot < 0 || slot > replicas {
				return fmt.Sprintf("one primary: shard %d has slot %d outside 0..%d", si, slot, replicas)
			}
			if seen[slot] {
				if slot == sh.primary {
					return fmt.Sprintf("one primary: shard %d primary slot %d is also a follower", si, slot)
				}
				return fmt.Sprintf("one primary: shard %d lists follower slot %d twice", si, slot)
			}
			seen[slot] = true
		}
		for slot, ok := range seen {
			if !ok {
				return fmt.Sprintf("one primary: shard %d slot %d is neither primary nor follower", si, slot)
			}
		}
	}
	for si, sh := range st.shards {
		if sh.missesClean > 0 {
			return fmt.Sprintf("clean misses: shard %d missed %d deadline(s) outside a degraded window", si, sh.missesClean)
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// describeEvents renders a tick's due events for a violation report.
func describeEvents(evs []schedrt.Event) string {
	if len(evs) == 0 {
		return "none"
	}
	parts := make([]string, len(evs))
	for i, ev := range evs {
		switch {
		case ev.Op == "add" && ev.Task != nil:
			parts[i] = "add " + ev.Task.Task.Name
		case ev.Op == "remove":
			parts[i] = "remove " + ev.Name
		default:
			parts[i] = ev.Op
		}
	}
	return strings.Join(parts, ", ")
}

// soakBrown tracks one active brownout: which slot is slow and the tick
// after which it heals.
type soakBrown struct {
	slot  int
	until int
}

// driveSoak plays the tape on a fresh cluster under dir with the fault
// plan f, in the given drive mode, checking the invariants after every
// tick, and returns the outcome. The cluster directory is removed before
// returning.
//
// With replicas > 0 the torment targets drives, not shards: a wedge lands
// on the current primary slot's injector (the failover path must absorb
// it with zero shed — any ErrShardFailed surfacing through record fails
// the run) or on a follower slot (the ship must demote it). Wedged drives
// heal at the tick's end — replaced, suspended for the verified re-seed,
// resumed — so every failover is followed by redundancy restoration, and
// the next wedge can target the new primary.
func driveSoak(dir string, shards, replicas int, policy string, tp *schedrt.Tape, seed uint64, f Faults, parallel bool) (*soakOutcome, error) {
	defer os.RemoveAll(dir)
	// One deterministic fault plan per drive: injectors follow the slot
	// directory, not the role, exactly as physical disks would. Each
	// shard's slots and its store writer share one virtual clock, so an
	// injected delay is exactly the observed WAL sojourn.
	clocks := make([]*journal.VirtualClock, shards)
	rfss := make([][]*journal.FaultFS, shards)
	for i := range rfss {
		clocks[i] = journal.NewVirtualClock()
		rfss[i] = make([]*journal.FaultFS, replicas+1)
		for slot := range rfss[i] {
			s := seed ^ uint64(i+1)*chaosShardSalt ^ uint64(slot)*chaosReplicaSalt
			rfss[i][slot] = journal.NewFaultFS(s, f.Storage)
			rfss[i][slot].SetClock(clocks[i])
		}
	}
	opt := cluster.Options{
		Shards:    shards,
		Replicas:  replicas,
		Placement: policy,
		Store:     schedrt.StoreOptions{NoSync: true, Runtime: schedrt.Options{Governor: churnGovernor}},
		Inject:    func(si int) journal.Injector { return rfss[si][0] },
		InjectReplica: func(si, slot int) journal.Injector {
			return rfss[si][slot]
		},
		Clock: func(si int) journal.Clock { return clocks[si] },
		Retry: cluster.RetryOptions{
			MaxAttempts: 10,
			Seed:        seed,
			Sleep:       func(time.Duration) {}, // deterministic soaks spend no wall-clock
		},
	}
	if f.LatencySignal {
		opt.LatencySLO = graySLO
		opt.AdmitDeadline = grayDeadline
		// Window 1: the p99 is this epoch's samples alone, so one browned
		// tick is detected at that tick's own sweep — and one promoted-
		// away tick is enough to read recovered.
		opt.LatencyWindow = 1
	}
	c, err := cluster.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// reseed walks shard si's out-of-sync followers back into sync under a
	// suspended fault schedule (the operator verified the new disk;
	// suspension freezes the drive's op counter, so the schedule is
	// untouched).
	reseed := func(si int) error {
		var susp []*journal.FaultFS
		for _, ri := range c.Replicas(si) {
			if !ri.InSync {
				fs := rfss[si][ri.Slot]
				fs.Suspend()
				susp = append(susp, fs)
			}
		}
		if len(susp) == 0 {
			return nil
		}
		_, err := c.ReseedReplicas(si)
		for _, fs := range susp {
			fs.Resume()
		}
		return err
	}

	horizon := int64(32)
	if n := len(tp.Events); n > 0 {
		horizon += tp.Events[n-1].Epoch
	}
	out := &soakOutcome{}
	// expect is the soak's model: tasks accepted and not since removed
	// or evicted.
	expect := make(map[string]bool)
	brown := make(map[int]soakBrown)
	kill := f.Kill
	wedge := kill + f.Wedge
	fwedge := wedge + f.FollowerWedge
	brownout := fwedge + f.Brownout
	i := 0
	for tick := 0; c.Epoch() < horizon; tick++ {
		out.ticks = tick + 1
		a, victim := chaosDraw(seed, tick)
		si := int(victim * float64(shards))
		if si >= shards {
			si = shards - 1
		}
		act := "quiet"
		// wedged is this tick's dead drive; it heals — and its shard's
		// followers re-seed — at the tick's end.
		var wedged *journal.FaultFS
		switch {
		case a < kill:
			// Crash-restart at a quiescent boundary: close, recover from
			// checkpoint + WAL replay, rebuild the mirror.
			act = fmt.Sprintf("kill shard %d", si)
			if err := c.CrashShard(si); err != nil {
				return nil, fmt.Errorf("kill shard %d at tick %d: %w", si, tick, err)
			}
			out.kills++
		case a < wedge && replicas > 0:
			// Primary-drive wedge: the disk under the current primary dies
			// mid-flight. No FailShard, no evacuation — the tick's own
			// events and epoch run must drive the health machine through
			// promotion, and any shed (ErrShardFailed reaching record)
			// fails the soak.
			slot := c.PrimarySlot(si)
			act = fmt.Sprintf("wedge shard %d primary slot %d", si, slot)
			wedged = rfss[si][slot]
			wedged.Wedge()
			out.wedges++
		case a < wedge && shards > 1:
			// Wedge: the device dies mid-flight. Declare the shard Failed,
			// heal the device, then drain every task through the checkpoint-
			// handoff path and re-image. The source device's fault schedule
			// is suspended for the maintenance window; target-shard and meta
			// writes during the handoff stay fully exposed to their own
			// fault plans.
			level := c.Epoch()
			fs := rfss[si][0]
			fs.Wedge()
			c.FailShard(si, fmt.Sprintf("soak wedge at tick %d", tick))
			fs.Heal()
			fs.Suspend()
			rep, err := c.EvacuateShard(si)
			fs.Resume()
			if err != nil {
				return nil, fmt.Errorf("evacuate shard %d at tick %d: %w", si, tick, err)
			}
			// Walk the re-imaged shard (epoch 0) back to lockstep inside the
			// same tick: RunEpoch's min-rule advances only the laggard, so
			// this is pure empty-shard replay of the survivors' clock. It
			// cannot ride the outer loop — there the cluster clock would
			// re-level through ~level old values, and any fresh evacuation
			// draw during the walk resets it again; once the horizon exceeds
			// the mean evacuation gap the clock only clears the horizon on an
			// evacuation-free streak, which stops arriving at soak scale.
			for c.Epoch() < level {
				if _, err := c.RunEpoch(parallel); err != nil {
					return nil, fmt.Errorf("catch-up shard %d at tick %d: %w", si, tick, err)
				}
			}
			act = fmt.Sprintf("evacuate shard %d (%d migrated, %d evicted)", si, rep.Migrated, rep.Evicted)
			out.evacs++
			out.migrated += rep.Migrated
			out.evicted += rep.Evicted
			for _, mv := range rep.Moves {
				if mv.Evicted {
					delete(expect, mv.Name)
				}
			}
		case a < wedge:
			// A lone unreplicated shard has nowhere to evacuate to.
		case a < fwedge && replicas > 0:
			// Follower-drive wedge: the next ship to it fails, demoting it;
			// the primary keeps acking. Pick the first non-primary slot so
			// the victim is a pure function of the role state.
			for slot := 0; slot <= replicas; slot++ {
				if slot != c.PrimarySlot(si) {
					act = fmt.Sprintf("wedge shard %d follower slot %d", si, slot)
					wedged = rfss[si][slot]
					wedged.Wedge()
					out.fwedges++
					break
				}
			}
		case a < fwedge:
			// No follower to wedge.
		case a < brownout:
			// The victim is the CURRENT primary slot's drive: after a
			// promotion the next draw grays the new primary, so the failover
			// path is re-exercised, not just re-confirmed.
			if b, ok := brown[si]; ok {
				rfss[si][b.slot].Brownout(0)
			}
			slot := c.PrimarySlot(si)
			act = fmt.Sprintf("brownout shard %d slot %d", si, slot)
			rfss[si][slot].Brownout(grayDelay)
			brown[si] = soakBrown{slot: slot, until: tick + brownTicks}
			out.brownouts++
		}

		// Route this tick's due events, exactly as PlayTape would. Events
		// are NOT pre-stamped with tape indices: the router assigns each
		// arrival the next global sequence. That keeps per-shard arrival
		// sequences monotone even after migration handoffs stamp fresh
		// (high) sequences onto target shards — the property the retry
		// dedup guard depends on. (PlayTape pre-stamps because it re-
		// delivers the tape across cluster reopens; driveSoak never
		// re-delivers.)
		start := i
		epoch := c.Epoch()
		for i < len(tp.Events) && tp.Events[i].Epoch <= epoch {
			i++
		}
		due := tp.Events[start:i]
		record := func(ev schedrt.Event, res cluster.Result, err error) error {
			if err != nil {
				if schedrt.IsStaleRequest(err) {
					return nil
				}
				if f.LatencySignal && errors.Is(err, cluster.ErrShardSlow) {
					// Deadline shed: the router refused rather than blow the
					// deadline on a slow shard. A shed add was never admitted;
					// a shed remove leaves the task live — the model must
					// agree with the WAL on both.
					out.sheds++
					return nil
				}
				return fmt.Errorf("event at epoch %d: %w", ev.Epoch, err)
			}
			switch ev.Op {
			case "add":
				if res.Decision.Verdict != schedrt.Rejected {
					expect[ev.Task.Task.Name] = true
				}
			case "remove":
				delete(expect, ev.Name)
			}
			// Event-level deadline accounting: an event applied through a
			// browned primary waited ≥ grayDelay > grayDeadline in the WAL.
			if b, ok := brown[res.Shard]; ok && b.slot == c.PrimarySlot(res.Shard) {
				out.misses++
			}
			return nil
		}
		if parallel {
			results, errs, err := c.ApplyBatch(due)
			if err != nil {
				return nil, err
			}
			for j := range due {
				if err := record(due[j], results[j], errs[j]); err != nil {
					return nil, err
				}
			}
		} else {
			for _, ev := range due {
				res, err := c.Apply(ev)
				if err := record(ev, res, err); err != nil {
					return nil, err
				}
			}
		}
		// The epoch run is where the latency sweep fires: each due shard's
		// tracker holds this tick's WAL sojourns, and a breach fences the
		// shard and — with replicas — promotes away from the browned
		// primary.
		if _, err := c.RunEpoch(parallel); err != nil {
			return nil, err
		}

		// Tick-end maintenance: replaced drives come back, brownouts
		// expire, and every out-of-sync follower — the demoted old primary
		// after a failover, a ship-failed or wedged follower — is re-seeded.
		// This bounds the redundancy gap to within one tick: each wedge
		// draw happens against a fully in-sync follower set.
		if wedged != nil {
			wedged.Heal()
		}
		for s2, b := range brown {
			if tick+1 >= b.until {
				rfss[s2][b.slot].Brownout(0)
				delete(brown, s2)
			}
		}
		if replicas > 0 {
			for s2 := 0; s2 < shards; s2++ {
				if err := reseed(s2); err != nil {
					return nil, fmt.Errorf("reseed shard %d at tick %d: %w", s2, tick, err)
				}
			}
		}
		if (tick+1)%32 == 0 {
			if err := c.Checkpoint(); err != nil {
				return nil, err
			}
		}
		out.trace = append(out.trace, c.Digest())
		if v := violation(snapshot(c), expect, replicas); v != "" {
			return nil, fmt.Errorf("tick %d (%s; events: %s): %s", tick, act, describeEvents(due), v)
		}
	}

	if replicas > 0 {
		// End-of-run redundancy audit: a final checkpoint byte-verifies
		// every follower against its primary (the scrub demotes silent
		// divergence), then one suspended-schedule re-seed pass restores
		// anything the scrub itself demoted — the checkpoint's own ships
		// and re-seeds are still fault-exposed, so a parting stall can
		// legitimately demote. After that pass, anything still out of sync
		// is a containment failure, not a data point.
		if err := c.Checkpoint(); err != nil {
			return nil, err
		}
		for si := 0; si < shards; si++ {
			if err := reseed(si); err != nil {
				return nil, fmt.Errorf("final reseed shard %d: %w", si, err)
			}
			for _, ri := range c.Replicas(si) {
				if !ri.InSync {
					return nil, fmt.Errorf("shard %d follower slot %d out of sync at end: %s",
						si, ri.Slot, ri.LastError)
				}
			}
		}
		if v := violation(snapshot(c), expect, replicas); v != "" {
			return nil, fmt.Errorf("end-of-run audit: %s", v)
		}
	}

	out.digests = c.Digests()
	out.owners = c.Owners()
	out.metrics = c.Metrics()
	out.healths = c.Healths()
	for _, sh := range c.Shards() {
		if sh.Resident() > 0 {
			out.spread++
		}
	}
	return out, nil
}

// sameOutcome returns "" when two drives agree — per-tick digest trace,
// final per-shard digests and partition map, and the containment trace
// (per-shard promotion counts, deadline sheds and browned-window misses) —
// and otherwise the first difference. Promotion is a pure function of
// (health state, replica high-water marks), so the drives must agree not
// just on final bytes but on how many promotions each shard took.
func sameOutcome(a, b *soakOutcome) string {
	for t := 0; t < len(a.trace) && t < len(b.trace); t++ {
		if a.trace[t] != b.trace[t] {
			return fmt.Sprintf("tick %d: digest %016x vs %016x", t, a.trace[t], b.trace[t])
		}
	}
	if len(a.trace) != len(b.trace) {
		return fmt.Sprintf("%d ticks vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.digests {
		if a.digests[i] != b.digests[i] {
			return fmt.Sprintf("shard %d final digest %016x vs %016x", i, a.digests[i], b.digests[i])
		}
	}
	if len(a.owners) != len(b.owners) {
		return fmt.Sprintf("partition map holds %d tasks vs %d", len(a.owners), len(b.owners))
	}
	for _, k := range sortedKeys(a.owners) {
		if o, ok := b.owners[k]; !ok || o != a.owners[k] {
			return fmt.Sprintf("partition map places task %q differently", k)
		}
	}
	for i := range a.healths {
		if a.healths[i].Promotions != b.healths[i].Promotions {
			return fmt.Sprintf("shard %d promotions %d vs %d", i, a.healths[i].Promotions, b.healths[i].Promotions)
		}
	}
	if a.sheds != b.sheds || a.misses != b.misses {
		return fmt.Sprintf("sheds/misses %d/%d vs %d/%d", a.sheds, a.misses, b.sheds, b.misses)
	}
	return ""
}

// Soak plays one churn tape (seed cfg.Seed, default 1200 events) per width
// in shardCounts (default SoakShardCounts) under policy (default first-
// fit), with replicas synchronous followers per shard and the fault plan
// f. Each width drives the tape three times — serial, serial again,
// concurrent — and a plan with LatencySignal drives one more blind serial
// control. Cluster state lives under dir (one subdirectory per drive,
// removed afterwards).
//
// A broken invariant on any tick of any drive, a divergence between the
// three drives, a lingering out-of-sync follower, a replicated primary
// wedge or signalled brownout that forced no promotion, or an armed drive
// missing more deadlines than the blind one is an error, not a data point.
func Soak(cfg Config, dir string, events int, shardCounts []int, policy string, replicas int, f Faults) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	if events <= 0 {
		events = 1200
	}
	if len(shardCounts) == 0 {
		shardCounts = SoakShardCounts
	}
	if policy == "" {
		policy = "first-fit"
	}
	if replicas < 0 {
		replicas = 0
	}
	tp := GenerateChurnTape(cfg.Seed, events)

	out := &SoakResult{Events: events, Seed: cfg.Seed, Policy: policy, Replicas: replicas, Faults: f}
	for _, shards := range shardCounts {
		var runs [3]*soakOutcome
		for r := range runs {
			parallel := r == 2
			mode := "serial"
			if parallel {
				mode = "parallel"
			}
			d := filepath.Join(dir, fmt.Sprintf("%s-%d-%s-%d", f.Name, shards, mode, r))
			oc, err := driveSoak(d, shards, replicas, policy, tp, cfg.Seed, f, parallel)
			if err != nil {
				return nil, fmt.Errorf("%s soak: %d shards (%s run %d): %w", f.Name, shards, mode, r, err)
			}
			runs[r] = oc
		}
		a := runs[0]
		if d := sameOutcome(a, runs[1]); d != "" {
			return nil, fmt.Errorf("%s soak: %d shards: repeated serial drive diverged: %s", f.Name, shards, d)
		}
		if d := sameOutcome(a, runs[2]); d != "" {
			return nil, fmt.Errorf("%s soak: %d shards: parallel drive diverged from serial: %s", f.Name, shards, d)
		}
		row := SoakRow{
			Shards:         shards,
			Events:         len(tp.Events),
			Ticks:          a.ticks,
			Kills:          a.kills,
			Evacs:          a.evacs,
			Migrated:       a.migrated,
			Evicted:        a.evicted,
			Wedges:         a.wedges,
			FollowerWedges: a.fwedges,
			Brownouts:      a.brownouts,
			DeadlineSheds:  a.sheds,
			DeadlineMisses: a.misses,
			Epochs:         a.metrics.Epochs,
			Jobs:           a.metrics.Jobs,
			Admits:         a.metrics.Admits,
			Rejects:        a.metrics.Rejects,
			Removes:        a.metrics.Removes,
			Misses:         a.metrics.Misses,
			Resident:       len(a.owners),
			Spread:         a.spread,
		}
		// DeadlineSheds stays the soak-side event count; the per-shard
		// health counters tally the same events, so folding them in here
		// would double-count.
		for _, h := range a.healths {
			row.Reopens += h.Reopens
			row.StoreErrs += h.TotalErrs
			row.Promotions += h.Promotions
			row.Demotions += h.ReplicaDemotions
			row.Reseeds += h.ReplicaReseeds
			row.SlowEvents += h.SlowEvents
		}
		for _, d := range a.digests {
			row.Digests = append(row.Digests, fmt.Sprintf("%016x", d))
		}
		if f.LatencySignal {
			blindF := f
			blindF.LatencySignal = false
			blind, err := driveSoak(filepath.Join(dir, fmt.Sprintf("%s-%d-blind", f.Name, shards)),
				shards, replicas, policy, tp, cfg.Seed, blindF, false)
			if err != nil {
				return nil, fmt.Errorf("%s soak: %d shards (blind run): %w", f.Name, shards, err)
			}
			row.BlindMisses = blind.misses
			if row.BlindMisses < row.DeadlineMisses {
				return nil, fmt.Errorf("%s soak: %d shards: latency signal made misses WORSE (%d armed vs %d blind)",
					f.Name, shards, row.DeadlineMisses, row.BlindMisses)
			}
		}
		signalled := row.Wedges
		if f.LatencySignal {
			signalled += row.Brownouts
		}
		if replicas > 0 && signalled > 0 && row.Promotions == 0 {
			return nil, fmt.Errorf("%s soak: %d shards: %d primary wedge(s) or brownout(s) forced no promotion",
				f.Name, shards, signalled)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// FormatSoak renders the soak summary.
func FormatSoak(r *SoakResult) string {
	var b strings.Builder
	f := r.Faults
	fmt.Fprintf(&b, "%s SOAK. %d-EVENT CHURN TAPE (policy %s, seed %d, replicas %d)\n",
		strings.ToUpper(f.Name), r.Events, r.Policy, r.Seed, r.Replicas)
	fmt.Fprintf(&b, "per tick: kill %g, wedge %g, follower wedge %g, brownout %g; storage faults %v",
		f.Kill, f.Wedge, f.FollowerWedge, f.Brownout, f.Storage != journal.FaultRates{})
	if f.LatencySignal {
		fmt.Fprintf(&b, "; latency signal (delay %v, slo %v, deadline %v)", grayDelay, graySLO, grayDeadline)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-7s %6s %6s %6s %6s %6s %8s %7s %7s %6s %6s %7s %6s %6s %9s %7s\n",
		"shards", "ticks", "kills", "evacs", "wedges", "brown", "reopens", "promos", "reseeds",
		"slow", "sheds", "dlmiss", "blind", "miss", "resident", "spread")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7d %6d %6d %6d %6d %6d %8d %7d %7d %6d %6d %7d %6d %6d %9d %7d\n",
			row.Shards, row.Ticks, row.Kills, row.Evacs, row.Wedges+row.FollowerWedges, row.Brownouts,
			row.Reopens, row.Promotions, row.Reseeds, row.SlowEvents, row.DeadlineSheds,
			row.DeadlineMisses, row.BlindMisses, row.Misses, row.Resident, row.Spread)
	}
	return b.String()
}

// WriteSoakCSV emits the per-width rows.
func WriteSoakCSV(w io.Writer, r *SoakResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"shards", "events", "ticks", "kills", "evacs", "migrated",
		"evicted", "wedges", "follower_wedges", "brownouts", "reopens", "store_errs",
		"promotions", "demotions", "reseeds", "slow_events", "deadline_sheds",
		"deadline_misses", "deadline_misses_blind", "epochs", "jobs", "admits", "rejects",
		"removes", "misses", "resident", "spread"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			strconv.Itoa(row.Shards),
			strconv.Itoa(row.Events),
			strconv.Itoa(row.Ticks),
			strconv.Itoa(row.Kills),
			strconv.Itoa(row.Evacs),
			strconv.Itoa(row.Migrated),
			strconv.Itoa(row.Evicted),
			strconv.Itoa(row.Wedges),
			strconv.Itoa(row.FollowerWedges),
			strconv.Itoa(row.Brownouts),
			strconv.FormatUint(row.Reopens, 10),
			strconv.FormatUint(row.StoreErrs, 10),
			strconv.FormatUint(row.Promotions, 10),
			strconv.FormatUint(row.Demotions, 10),
			strconv.FormatUint(row.Reseeds, 10),
			strconv.FormatUint(row.SlowEvents, 10),
			strconv.FormatUint(row.DeadlineSheds, 10),
			strconv.Itoa(row.DeadlineMisses),
			strconv.Itoa(row.BlindMisses),
			strconv.FormatInt(row.Epochs, 10),
			strconv.FormatInt(row.Jobs, 10),
			strconv.FormatInt(row.Admits, 10),
			strconv.FormatInt(row.Rejects, 10),
			strconv.FormatInt(row.Removes, 10),
			strconv.FormatInt(row.Misses, 10),
			strconv.Itoa(row.Resident),
			strconv.Itoa(row.Spread),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
