// Package runtime is the long-running scheduler service wrapped around the
// sim/ESR/offline stack: a task set that churns while the scheduler is live.
//
// It has three cooperating pieces:
//
//   - an admission controller — every Add/Remove request is screened online
//     against the Theorem-1 bound (internal/feasibility) in both the
//     accurate and the deepest-imprecise profile, producing a structured
//     admit / admit-degraded / reject verdict instead of silently breaking
//     guarantees, with re-planning through offline.ResilientPlan when the
//     hyper-period plan must be rebuilt;
//   - an overload governor — a hysteretic control loop (see Governor) that
//     watches a sliding window of miss rate and lateness and monotonically
//     sheds accuracy (forcing tasks to their deepest imprecise level,
//     lowest criticality first) under sustained overload, restoring it with
//     separate thresholds and a dwell time so the system never flaps;
//   - checkpoint/restore — versioned JSON snapshots of the full runtime
//     state (task set, shed modes, governor window, ESR slack table, RNG
//     state, running digest) such that kill-and-restore resumes
//     bit-identically to an uninterrupted run (see checkpoint.go).
//
// Time is divided into epochs of EpochHyperperiods hyper-periods each; one
// sim.Run per epoch. Task churn takes effect at epoch boundaries — the
// non-preemptive hyper-period plan is the unit of commitment, so a change
// mid-plan would void exactly the guarantees admission exists to protect.
// Overload is injected as seeded WCET-overrun faults (sim.FaultPlan), which
// is how a real system experiences load it did not plan for.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"nprt/internal/feasibility"
	"nprt/internal/ilp"
	"nprt/internal/offline"
	"nprt/internal/rng"
	"nprt/internal/sim"
	"nprt/internal/task"
)

// PlannerKind selects how the runtime rebuilds its policy after an
// admission change.
type PlannerKind uint8

const (
	// PlanOnline runs pure EDF+ESR: no offline plan, nothing to rebuild,
	// fully deterministic. The churn soak uses this.
	PlanOnline PlannerKind = iota
	// PlanResilient rebuilds through offline.ResilientPlan's degradation
	// chain on every admission change, recording provenance. Configure
	// Options.Resilient with deterministic budgets (node limits, or
	// StartRung ≥ RungFlippedEDF) when bit-identical restore matters.
	PlanResilient
)

// String names the planner kind.
func (k PlannerKind) String() string {
	switch k {
	case PlanOnline:
		return "online"
	case PlanResilient:
		return "resilient"
	}
	return fmt.Sprintf("planner%d", uint8(k))
}

// ResilientConfig is the serializable subset of offline.ResilientOptions —
// the budget knobs a checkpoint can carry. (offline.ResilientOptions itself
// holds an ilp.Options with a callback field, which JSON cannot round-trip.)
type ResilientConfig struct {
	// MaxNodes / TimeLimit / Workers bound the first ILP attempt; see
	// ilp.Options. A TimeLimit is wall-clock and therefore breaks
	// bit-identical restore — runtimes that need it set StartRung past the
	// ILP rung or bound MaxNodes instead.
	MaxNodes  int           `json:"max_nodes,omitempty"`
	TimeLimit time.Duration `json:"time_limit,omitempty"`
	Workers   int           `json:"workers,omitempty"`
	// Retries / Backoff / StartRung as in offline.ResilientOptions.
	Retries   int          `json:"retries,omitempty"`
	Backoff   float64      `json:"backoff,omitempty"`
	StartRung offline.Rung `json:"start_rung,omitempty"`
}

// options converts to the planner's native options.
func (c ResilientConfig) options() offline.ResilientOptions {
	return offline.ResilientOptions{
		ILP: ilp.Options{
			MaxNodes:  c.MaxNodes,
			TimeLimit: c.TimeLimit,
			Workers:   c.Workers,
		},
		Retries:   c.Retries,
		Backoff:   c.Backoff,
		StartRung: c.StartRung,
	}
}

// TaskSpec is one admitted task plus its runtime metadata.
type TaskSpec struct {
	Task task.Task `json:"task"`
	// Criticality orders governor shedding: lower values are shed first.
	// Ties break by name, ascending.
	Criticality int `json:"criticality"`
}

// Options parameterizes a Runtime. The zero value is usable: seed 1,
// default engine, one hyper-period per epoch, online planner, default
// governor.
type Options struct {
	Seed              uint64          `json:"seed"`
	Engine            sim.EngineKind  `json:"engine"`
	EpochHyperperiods int             `json:"epoch_hyperperiods"`
	Planner           PlannerKind     `json:"planner"`
	Resilient         ResilientConfig `json:"resilient"`
	Governor          GovernorConfig  `json:"governor"`
	Containment       sim.Containment `json:"containment"`
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.EpochHyperperiods <= 0 {
		o.EpochHyperperiods = 1
	}
	o.Governor = o.Governor.withDefaults()
	return o
}

// Validate rejects meaningless options.
func (o Options) Validate() error {
	if o.Engine != sim.EngineIndexed && o.Engine != sim.EngineLinearScan {
		return fmt.Errorf("runtime: unknown engine %d", o.Engine)
	}
	if o.Planner != PlanOnline && o.Planner != PlanResilient {
		return fmt.Errorf("runtime: unknown planner %d", o.Planner)
	}
	if o.Containment > sim.DowngradeOnOverrun {
		return fmt.Errorf("runtime: unknown containment %d", o.Containment)
	}
	if o.EpochHyperperiods < 0 {
		return fmt.Errorf("runtime: epoch hyper-periods %d must be non-negative", o.EpochHyperperiods)
	}
	return o.Governor.Validate()
}

// Verdict is the admission controller's decision class.
type Verdict uint8

const (
	// Rejected: admitting the task would break the deepest-imprecise
	// Theorem-1 bound — no guarantee would survive. State is unchanged.
	Rejected Verdict = iota
	// Admitted: the set passes Theorem 1 even with every job accurate.
	Admitted
	// AdmittedDegraded: the set passes only in the deepest-imprecise
	// profile. The zero-miss guarantee holds, but it leans on imprecision —
	// accurate-mode execution is a best-effort upgrade.
	AdmittedDegraded
)

// String names the verdict (JSON/log key).
func (v Verdict) String() string {
	switch v {
	case Rejected:
		return "rejected"
	case Admitted:
		return "admitted"
	case AdmittedDegraded:
		return "admitted-degraded"
	}
	return fmt.Sprintf("verdict%d", uint8(v))
}

// Decision is the structured outcome of one admission-controller request.
type Decision struct {
	Op      string  `json:"op"` // "add", "remove" or "overload"
	Task    string  `json:"task,omitempty"`
	Verdict Verdict `json:"verdict"`
	Reason  string  `json:"reason,omitempty"`

	// Theorem-1 screening summary for the candidate (add) or remaining
	// (remove) set, both profiles.
	AccurateOK       bool    `json:"accurate_ok"`
	AccurateUtil     float64 `json:"accurate_util"`
	AccurateGammaMin float64 `json:"accurate_gamma_min"`
	DeepestOK        bool    `json:"deepest_ok"`
	DeepestUtil      float64 `json:"deepest_util"`
	DeepestGammaMin  float64 `json:"deepest_gamma_min"`

	// Replanned reports that the hyper-period plan was rebuilt; PlanRung is
	// the resilient chain's landing rung when the planner is PlanResilient.
	Replanned bool   `json:"replanned"`
	PlanRung  string `json:"plan_rung,omitempty"`
}

// fillProfiles copies the Theorem-1 screening scalars into the decision.
func (d *Decision) fillProfiles(acc, deep feasibility.Report) {
	d.AccurateOK = acc.Schedulable
	d.AccurateUtil = acc.Utilization
	d.AccurateGammaMin = acc.GammaMin
	d.DeepestOK = deep.Schedulable
	d.DeepestUtil = deep.Utilization
	d.DeepestGammaMin = deep.GammaMin
}

// Structured request errors.
var (
	// ErrDuplicateTask rejects an Add whose name is already admitted.
	ErrDuplicateTask = errors.New("runtime: task name already admitted")
	// ErrUnknownTask rejects a Remove of a name that is not admitted.
	ErrUnknownTask = errors.New("runtime: unknown task")
	// ErrUnnamedTask rejects an Add without a name (Remove is by name).
	ErrUnnamedTask = errors.New("runtime: task must be named")
)

// Metrics accumulates the runtime's lifetime counters.
type Metrics struct {
	Epochs         int64 `json:"epochs"`
	Jobs           int64 `json:"jobs"`
	Misses         int64 `json:"misses"`
	MissesDegraded int64 `json:"misses_degraded"` // inside governor-declared degraded epochs
	MissesClean    int64 `json:"misses_clean"`    // outside them (zero when guarantees hold)

	Admits         int64 `json:"admits"`
	AdmitsDegraded int64 `json:"admits_degraded"`
	Rejects        int64 `json:"rejects"`
	Removes        int64 `json:"removes"`
	Overloads      int64 `json:"overloads"`
	Replans        int64 `json:"replans"`

	Sheds    int64 `json:"sheds"`
	Restores int64 `json:"restores"`
}

// validate rejects negative counters (checkpoint corruption).
func (m Metrics) validate() error {
	for _, v := range []int64{m.Epochs, m.Jobs, m.Misses, m.MissesDegraded, m.MissesClean,
		m.Admits, m.AdmitsDegraded, m.Rejects, m.Removes, m.Overloads, m.Replans,
		m.Sheds, m.Restores} {
		if v < 0 {
			return fmt.Errorf("runtime: negative metric in checkpoint")
		}
	}
	return nil
}

// Runtime is the long-running scheduler service. It is not safe for
// concurrent use; serialize access externally (cmd/impserve runs one
// goroutine).
type Runtime struct {
	opt Options

	specs  []TaskSpec // admitted tasks, insertion order, unique names
	set    *task.Set  // effective set; nil while empty
	policy sim.Policy // base policy for the current set; nil while empty
	prov   *offline.PlanProvenance

	gov  *Governor
	shed []string // names forced deepest, in shed order (LIFO restore)

	overloadLeft  int
	overloadRates sim.FaultRates

	root   *rng.Stream
	epoch  int64
	digest uint64
	met    Metrics
}

// New builds an empty runtime.
func New(opt Options) (*Runtime, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	gov, err := NewGovernor(opt.Governor)
	if err != nil {
		return nil, err
	}
	opt.Governor = gov.Config()
	return &Runtime{
		opt:    opt,
		gov:    gov,
		root:   rng.New(opt.Seed ^ rootSeedSalt),
		digest: fnvOffset,
	}, nil
}

// rootSeedSalt decorrelates the runtime's seed-derivation stream from the
// plain sampler streams other components derive from the same user seed.
const rootSeedSalt = 0x5ca1ab1e0ddba11

// Epoch returns the number of completed epochs.
func (r *Runtime) Epoch() int64 { return r.epoch }

// Digest returns the running FNV-1a digest over every admission decision
// and epoch result. Two runs (or a checkpointed and an uninterrupted run)
// are bit-identical iff their digests match at every step.
func (r *Runtime) Digest() uint64 { return r.digest }

// Metrics returns the lifetime counters (governor actions included).
func (r *Runtime) Metrics() Metrics {
	m := r.met
	m.Sheds, m.Restores = r.gov.Sheds(), r.gov.Restores()
	return m
}

// Set returns the current effective task set (nil while empty). Read-only.
func (r *Runtime) Set() *task.Set { return r.set }

// Tasks returns the admitted specs in insertion order (copy).
func (r *Runtime) Tasks() []TaskSpec {
	out := make([]TaskSpec, len(r.specs))
	copy(out, r.specs)
	return out
}

// ShedTasks returns the names currently forced to their deepest level, in
// shed order (copy).
func (r *Runtime) ShedTasks() []string {
	out := make([]string, len(r.shed))
	copy(out, r.shed)
	return out
}

// Provenance returns the last re-plan's provenance (nil under PlanOnline or
// before any admission).
func (r *Runtime) Provenance() *offline.PlanProvenance { return r.prov }

// Governor exposes the control loop (diagnostics, tests).
func (r *Runtime) Governor() *Governor { return r.gov }

// Add screens the task against Theorem 1 in both profiles and admits it iff
// the deepest-imprecise profile stays schedulable. A malformed request
// (invalid task, missing or duplicate name) returns an error and changes
// nothing; a well-formed request that fails screening returns a Rejected
// decision and changes nothing. Admission rebuilds the plan.
func (r *Runtime) Add(spec TaskSpec) (Decision, error) {
	d := Decision{Op: "add", Task: spec.Task.Name}
	if spec.Task.Name == "" {
		return d, ErrUnnamedTask
	}
	if err := spec.Task.Validate(); err != nil {
		return d, err
	}
	if r.findSpec(spec.Task.Name) >= 0 {
		return d, fmt.Errorf("%w: %q", ErrDuplicateTask, spec.Task.Name)
	}

	var candSet *task.Set
	var err error
	if r.set == nil {
		candSet, err = task.New([]task.Task{spec.Task})
	} else {
		candSet, err = r.set.With(spec.Task)
	}
	if err != nil {
		// Structurally inadmissible (e.g. hyper-period overflow): a valid
		// request whose admission is impossible, not a malformed request.
		d.Verdict = Rejected
		d.Reason = err.Error()
		r.met.Rejects++
		r.foldDecision(d)
		return d, nil
	}

	acc, deep := feasibility.Profiles(candSet)
	d.fillProfiles(acc, deep)
	if !deep.Schedulable {
		d.Verdict = Rejected
		d.Reason = "deepest-imprecise profile fails Theorem 1: no guarantee would survive admission"
		r.met.Rejects++
		r.foldDecision(d)
		return d, nil
	}

	if err := r.rebuild(candSet, &d); err != nil {
		return d, err
	}
	r.specs = append(r.specs, spec)
	if acc.Schedulable {
		d.Verdict = Admitted
		r.met.Admits++
	} else {
		d.Verdict = AdmittedDegraded
		d.Reason = "accurate profile fails Theorem 1: admission leans on imprecise execution"
		r.met.AdmitsDegraded++
	}
	r.foldDecision(d)
	return d, nil
}

// Remove withdraws an admitted task. Removal can only relax the Theorem-1
// conditions, so it always succeeds for a known name; the decision still
// carries the remaining set's screening summary for observability. The plan
// is rebuilt.
func (r *Runtime) Remove(name string) (Decision, error) {
	d := Decision{Op: "remove", Task: name, Verdict: Admitted}
	i := r.findSpec(name)
	if i < 0 {
		return d, fmt.Errorf("%w: %q", ErrUnknownTask, name)
	}
	newSet := r.set.Without(r.setIndex(name))
	if newSet != nil {
		acc, deep := feasibility.Profiles(newSet)
		d.fillProfiles(acc, deep)
	}
	if err := r.rebuild(newSet, &d); err != nil {
		return d, err
	}
	r.specs = slices.Delete(r.specs, i, i+1)
	// Drop the removed task from the shed set, preserving shed order.
	kept := r.shed[:0]
	for _, n := range r.shed {
		if n != name {
			kept = append(kept, n)
		}
	}
	r.shed = kept
	r.met.Removes++
	r.foldDecision(d)
	return d, nil
}

// Overload declares an overload window: for the next `epochs` epochs the
// runtime injects seeded WCET-violation faults at the given rates
// (last-writer-wins with any window still open). This is the load the
// governor exists to absorb.
func (r *Runtime) Overload(rates sim.FaultRates, epochs int) (Decision, error) {
	d := Decision{Op: "overload", Verdict: Admitted}
	if epochs <= 0 {
		return d, fmt.Errorf("runtime: overload epochs %d must be positive", epochs)
	}
	if err := rates.Validate(); err != nil {
		return d, err
	}
	r.overloadRates = rates
	r.overloadLeft = epochs
	r.met.Overloads++
	d.Reason = fmt.Sprintf("overrun p=%g ×%g, abort p=%g, drop p=%g for %d epochs",
		rates.OverrunProb, rates.OverrunFactor, rates.AbortProb, rates.DropProb, epochs)
	r.foldDecision(d)
	return d, nil
}

// findSpec returns the index of the named spec, or -1.
func (r *Runtime) findSpec(name string) int {
	for i := range r.specs {
		if r.specs[i].Task.Name == name {
			return i
		}
	}
	return -1
}

// setIndex returns the index of the named task in the effective set, which
// must hold it.
func (r *Runtime) setIndex(name string) int {
	i := 0
	for r.set.Task(i).Name != name {
		i++
	}
	return i
}

// rebuild commits a new effective set, re-planning the policy. On planner
// failure the runtime keeps its previous state and the error is returned
// (admission must be atomic); callers update r.specs only after it succeeds.
func (r *Runtime) rebuild(set *task.Set, d *Decision) error {
	var pol sim.Policy
	var prov *offline.PlanProvenance
	if set != nil {
		switch r.opt.Planner {
		case PlanResilient:
			var err error
			pol, prov, err = offline.ResilientPlan(set, r.opt.Resilient.options())
			if err != nil {
				return fmt.Errorf("runtime: re-planning: %w", err)
			}
			d.PlanRung = prov.Rung.String()
		default:
			pol = &guardedESR{}
		}
		d.Replanned = true
		r.met.Replans++
	}
	r.set, r.policy, r.prov = set, pol, prov
	return nil
}

// EpochReport summarizes one epoch.
type EpochReport struct {
	Epoch    int64  `json:"epoch"`
	Seed     uint64 `json:"seed"` // the epoch's sampler seed, for standalone reproduction
	Idle     bool   `json:"idle"` // no tasks admitted; nothing ran
	Degraded bool   `json:"degraded"`
	Policy   string `json:"policy,omitempty"`

	Jobs        int64     `json:"jobs"`
	Misses      int64     `json:"misses"`
	MissPct     float64   `json:"miss_pct"`
	MeanError   float64   `json:"mean_error"`
	MaxLateness task.Time `json:"max_lateness"`
	Accurate    int64     `json:"accurate"`
	Imprecise   int64     `json:"imprecise"`

	Action       Action   `json:"-"`
	ActionName   string   `json:"action,omitempty"`
	ShedTask     string   `json:"shed_task,omitempty"`
	RestoredTask string   `json:"restored_task,omitempty"`
	Shed         []string `json:"shed,omitempty"` // shed set after the action
	WindowMean   float64  `json:"window_mean"`
}

// RunEpoch simulates one epoch of the current task set, feeds the result to
// the governor, applies its action, and folds everything into the digest.
//
// An epoch is **degraded** when, at its start, the governor has accuracy
// shed or an overload window is open — the windows inside which deadline
// misses are declared expectable. Outside them, an admitted (hence
// deepest-imprecise-schedulable) set under EDF+ESR must not miss; the churn
// soak asserts exactly that.
func (r *Runtime) RunEpoch() (EpochReport, error) {
	seed := r.root.Uint64()
	rep := EpochReport{Epoch: r.epoch, Seed: seed}
	r.epoch++
	r.met.Epochs++

	overloaded := r.overloadLeft > 0
	rep.Degraded = overloaded || len(r.shed) > 0

	if r.set == nil {
		rep.Idle = true
		if overloaded {
			r.overloadLeft--
		}
		r.foldEpoch(seed, &rep, nil)
		return rep, nil
	}

	cfg := sim.Config{
		Hyperperiods: r.opt.EpochHyperperiods,
		Sampler:      sim.NewRandomSampler(r.set, seed),
		Engine:       r.opt.Engine,
		Containment:  r.opt.Containment,
	}
	if overloaded {
		cfg.Faults = sim.NewFaultPlan(seed^faultSeedSalt, r.overloadRates)
		r.overloadLeft--
	}
	pol := r.policy
	if len(r.shed) > 0 {
		pol = &shedPolicy{inner: r.policy, forced: r.forcedIDs()}
	}
	res, err := sim.Run(r.set, pol, cfg)
	if err != nil {
		return rep, fmt.Errorf("runtime: epoch %d: %w", rep.Epoch, err)
	}

	rep.Policy = res.Policy
	rep.Jobs = res.Jobs
	rep.Misses = res.Misses.Events
	rep.MissPct = res.MissPercent()
	rep.MeanError = res.MeanError()
	rep.MaxLateness = res.MaxLateness
	rep.Accurate = res.Accurate
	rep.Imprecise = res.Imprecise

	r.met.Jobs += res.Jobs
	r.met.Misses += res.Misses.Events
	if rep.Degraded {
		r.met.MissesDegraded += res.Misses.Events
	} else {
		r.met.MissesClean += res.Misses.Events
	}

	rep.Action = r.gov.Observe(rep.MissPct, rep.MaxLateness,
		len(r.shed) < len(r.specs), len(r.shed) > 0)
	rep.ActionName = rep.Action.String()
	switch rep.Action {
	case ActionShed:
		victim := r.shedVictim()
		r.shed = append(r.shed, victim)
		rep.ShedTask = victim
	case ActionRestore:
		rep.RestoredTask = r.shed[len(r.shed)-1]
		r.shed = r.shed[:len(r.shed)-1]
	}
	rep.Shed = r.ShedTasks()
	rep.WindowMean = r.gov.WindowMean()

	r.foldEpoch(seed, &rep, res)
	return rep, nil
}

// faultSeedSalt separates the per-epoch fault-plan stream from the sampler
// stream derived from the same epoch seed.
const faultSeedSalt = 0xfa117_5eed

// shedVictim picks the next task to force deepest: lowest criticality
// first, ties by name ascending, among tasks not already shed. Must only be
// called when such a task exists.
func (r *Runtime) shedVictim() string {
	isShed := make(map[string]bool, len(r.shed))
	for _, n := range r.shed {
		isShed[n] = true
	}
	type cand struct {
		name string
		crit int
	}
	var cands []cand
	for i := range r.specs {
		if !isShed[r.specs[i].Task.Name] {
			cands = append(cands, cand{r.specs[i].Task.Name, r.specs[i].Criticality})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].crit != cands[b].crit {
			return cands[a].crit < cands[b].crit
		}
		return cands[a].name < cands[b].name
	})
	return cands[0].name
}

// forcedIDs maps the shed names onto the current set's dense task IDs.
func (r *Runtime) forcedIDs() []bool {
	forced := make([]bool, r.set.Len())
	for _, n := range r.shed {
		for i := 0; i < r.set.Len(); i++ {
			if r.set.Task(i).Name == n {
				forced[i] = true
				break
			}
		}
	}
	return forced
}

// --- digest ----------------------------------------------------------------

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldWord FNV-1a-folds one 64-bit word, little-endian byte order.
func (r *Runtime) foldWord(v uint64) {
	d := r.digest
	for i := 0; i < 8; i++ {
		d ^= v & 0xff
		d *= fnvPrime
		v >>= 8
	}
	r.digest = d
}

// foldString folds a length-prefixed string.
func (r *Runtime) foldString(s string) {
	r.foldWord(uint64(len(s)))
	d := r.digest
	for i := 0; i < len(s); i++ {
		d ^= uint64(s[i])
		d *= fnvPrime
	}
	r.digest = d
}

// foldDecision makes admission outcomes part of the run identity.
func (r *Runtime) foldDecision(d Decision) {
	r.foldString(d.Op)
	r.foldString(d.Task)
	r.foldWord(uint64(d.Verdict))
	r.foldWord(uint64(math.Float64bits(d.DeepestGammaMin)))
	r.foldString(d.PlanRung)
}

// foldEpoch makes epoch results part of the run identity. res is nil for
// idle epochs.
func (r *Runtime) foldEpoch(seed uint64, rep *EpochReport, res *sim.Result) {
	r.foldWord(seed)
	r.foldWord(uint64(rep.Epoch))
	if rep.Degraded {
		r.foldWord(1)
	} else {
		r.foldWord(0)
	}
	if res == nil {
		r.foldString("idle")
		return
	}
	r.foldString(res.Policy)
	r.foldWord(uint64(res.Jobs))
	r.foldWord(uint64(res.Misses.Events))
	r.foldWord(math.Float64bits(res.Error.Mean()))
	r.foldWord(math.Float64bits(res.Error.StdDev()))
	r.foldWord(uint64(res.Busy))
	r.foldWord(uint64(res.MaxLateness))
	r.foldWord(uint64(res.Accurate))
	r.foldWord(uint64(res.Imprecise))
	if res.Faults != nil {
		t := res.Faults.Total
		r.foldWord(uint64(t.Overruns))
		r.foldWord(uint64(t.WatchdogKills))
		r.foldWord(uint64(t.Aborts))
		r.foldWord(uint64(t.DroppedReleases))
		r.foldWord(uint64(t.Downgrades))
		r.foldWord(uint64(t.FaultedMisses))
		r.foldWord(uint64(t.CascadedMisses))
		r.foldWord(uint64(res.Faults.OverrunTime))
	}
	r.foldWord(uint64(rep.Action))
	r.foldString(rep.ShedTask)
	r.foldString(rep.RestoredTask)
}
