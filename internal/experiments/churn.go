package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nprt/internal/rng"
	schedrt "nprt/internal/runtime"
	"nprt/internal/sim"
	"nprt/internal/task"
)

// The churn soak is the endurance experiment for the long-running runtime:
// thousands of admission-controller requests — adds, removes (some stale),
// overload windows — replayed against a live runtime. It checks the
// properties the runtime exists to provide: admitted tasks never miss a
// deadline outside governor-declared degraded windows, and the whole run is
// a pure function of the seed (parallel == serial).

// churnSalt decorrelates tape generation from every other use of a seed.
const churnSalt = 0xc_0a_1e_5ce

// churnPeriods is the period menu (small LCM keeps epochs cheap at 10k
// events).
var churnPeriods = []task.Time{40, 80, 160}

// GenerateChurnTape builds a deterministic churn script: ~45% adds, ~50%
// removes (occasionally of a name that was never admitted — a stale request
// the runtime must survive), ~5% overload windows of 3–10 epochs, separated
// by gaps of 0–2 epochs. The balanced add/remove mix keeps the live set in
// a random walk around the admission controller's capacity ceiling; the
// overload share is small because each window covers several epochs and the
// soak needs a majority of clean epochs for its zero-miss assertion to
// bite. The tape is a pure function of (seed, events).
func GenerateChurnTape(seed uint64, events int) *schedrt.Tape {
	st := rng.New(seed ^ churnSalt)
	tp := &schedrt.Tape{Events: make([]schedrt.Event, 0, events)}
	var epoch int64
	var live []string
	counter := 0

	for i := 0; i < events; i++ {
		epoch += int64(st.Intn(3))
		r := st.Float64()
		switch {
		case r < 0.45 || len(live) == 0:
			p := churnPeriods[st.Intn(len(churnPeriods))]
			w := p/10 + task.Time(st.Intn(int(p/4-p/10)+1))
			xlo := w / 4
			if xlo < 1 {
				xlo = 1
			}
			x := xlo + task.Time(st.Intn(int(w/2-xlo)+1))
			if x >= w {
				x = w - 1
			}
			name := fmt.Sprintf("t%05d", counter)
			counter++
			tp.Events = append(tp.Events, schedrt.Event{
				Epoch: epoch, Op: "add",
				Task: &schedrt.TaskSpec{
					Task: task.Task{
						Name: name, Period: p, WCETAccurate: w, WCETImprecise: x,
						ExecAccurate:  task.Dist{Mean: float64(w) / 2, Sigma: float64(w) / 8, Min: 1, Max: float64(w)},
						ExecImprecise: task.Dist{Mean: float64(x) / 2, Sigma: float64(x) / 8, Min: 1, Max: float64(x)},
						Error:         task.Dist{Mean: 1 + 4*st.Float64(), Sigma: 0.5},
					},
					Criticality: st.Intn(4),
				},
			})
			live = append(live, name)
		case r < 0.95:
			var name string
			if st.Float64() < 0.1 {
				// A name that never existed: the runtime answers with a
				// deterministic ErrUnknownTask the soak tolerates. (Names of
				// *rejected* adds land here organically too — the generator
				// does not screen admission, so some of its "live" names were
				// never admitted.)
				name = fmt.Sprintf("ghost%05d", st.Intn(1000))
			} else {
				j := st.Intn(len(live))
				name = live[j]
				live = append(live[:j], live[j+1:]...)
			}
			tp.Events = append(tp.Events, schedrt.Event{Epoch: epoch, Op: "remove", Name: name})
		default:
			tp.Events = append(tp.Events, schedrt.Event{
				Epoch: epoch, Op: "overload",
				Overload: &schedrt.OverloadSpec{
					Rates: sim.FaultRates{
						OverrunProb:   0.1 + 0.2*st.Float64(),
						OverrunFactor: 2 + st.Float64(),
					},
					Epochs: 3 + st.Intn(8),
				},
			})
		}
	}
	return tp
}

// ChurnRow is the outcome of one replayed tape.
type ChurnRow struct {
	Seed   uint64 `json:"seed"`
	Events int    `json:"events"`
	Epochs int64  `json:"epochs"`
	Jobs   int64  `json:"jobs"`

	Misses         int64 `json:"misses"`
	MissesDegraded int64 `json:"misses_degraded"`
	MissesClean    int64 `json:"misses_clean"`

	Admits         int64 `json:"admits"`
	AdmitsDegraded int64 `json:"admits_degraded"`
	Rejects        int64 `json:"rejects"`
	Removes        int64 `json:"removes"`
	StaleRemoves   int64 `json:"stale_removes"`
	Overloads      int64 `json:"overloads"`
	Sheds          int64 `json:"sheds"`
	Restores       int64 `json:"restores"`

	// Digest is the runtime's final state digest.
	Digest string `json:"digest"`
}

// ChurnResult is the full soak artifact.
type ChurnResult struct {
	Events int        `json:"events"`
	Tapes  int        `json:"tapes"`
	Seed   uint64     `json:"seed"`
	Rows   []ChurnRow `json:"rows"`
}

// churnGovernor is the soak's governor: short window and dwell so 10k-event
// tapes exercise plenty of shed/restore cycles.
var churnGovernor = schedrt.GovernorConfig{
	Window: 4, ShedThreshold: 0.5, RestoreThreshold: 0.1, DwellEpochs: 2,
}

// replayChurn runs one tape to completion.
func replayChurn(seed uint64, tp *schedrt.Tape) (*schedrt.Runtime, int64, error) {
	r, err := schedrt.New(schedrt.Options{Seed: seed, Governor: churnGovernor})
	if err != nil {
		return nil, 0, err
	}
	horizon := int64(32)
	if n := len(tp.Events); n > 0 {
		horizon += tp.Events[n-1].Epoch
	}
	var stale int64
	err = r.Play(tp, horizon, nil, nil, func(ev schedrt.Event, err error) error {
		// Stale requests (remove of a never-admitted name, duplicate add)
		// are part of the churn the runtime must absorb; anything else is a
		// real failure.
		if schedrt.IsStaleRequest(err) {
			stale++
			return nil
		}
		return fmt.Errorf("event at epoch %d: %w", ev.Epoch, err)
	})
	return r, stale, err
}

// ChurnSoak replays `tapes` generated tapes of `events` events each (seeds
// cfg.Seed, cfg.Seed+1, …) against the runtime. Tapes fan out over the
// worker pool when cfg.Parallel is set; rows are indexed by tape, so the
// artifact is bit-identical either way.
func ChurnSoak(cfg Config, events, tapes int) (*ChurnResult, error) {
	cfg = cfg.withDefaults()
	if events <= 0 {
		events = 10000
	}
	if tapes <= 0 {
		tapes = 2
	}

	type cell struct {
		row ChurnRow
		err error
	}
	grid := make([]cell, tapes)
	forEachIndex(tapes, cfg.Parallel, func(i int) {
		seed := cfg.Seed + uint64(i)
		tp := GenerateChurnTape(seed, events)

		r, stale, err := replayChurn(seed, tp)
		if err != nil {
			grid[i].err = fmt.Errorf("tape %d: %w", i, err)
			return
		}

		m := r.Metrics()
		grid[i].row = ChurnRow{
			Seed:           seed,
			Events:         len(tp.Events),
			Epochs:         m.Epochs,
			Jobs:           m.Jobs,
			Misses:         m.Misses,
			MissesDegraded: m.MissesDegraded,
			MissesClean:    m.MissesClean,
			Admits:         m.Admits,
			AdmitsDegraded: m.AdmitsDegraded,
			Rejects:        m.Rejects,
			Removes:        m.Removes,
			StaleRemoves:   stale,
			Overloads:      m.Overloads,
			Sheds:          m.Sheds,
			Restores:       m.Restores,
			Digest:         fmt.Sprintf("%016x", r.Digest()),
		}
	})

	out := &ChurnResult{Events: events, Tapes: tapes, Seed: cfg.Seed}
	for i := range grid {
		if grid[i].err != nil {
			return nil, grid[i].err
		}
		out.Rows = append(out.Rows, grid[i].row)
	}
	return out, nil
}

// FormatChurn renders the soak summary.
func FormatChurn(r *ChurnResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CHURN SOAK. %d TAPES x %d EVENTS AGAINST THE LONG-RUNNING RUNTIME (seed %d)\n",
		r.Tapes, r.Events, r.Seed)
	fmt.Fprintf(&b, "%-6s %8s %10s %8s %8s %8s %7s %7s %6s %6s %6s %-18s\n",
		"seed", "epochs", "jobs", "admits", "degr", "rejects", "miss", "clean", "sheds", "rest", "stale", "digest")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %8d %10d %8d %8d %8d %7d %7d %6d %6d %6d %-18s\n",
			row.Seed, row.Epochs, row.Jobs, row.Admits, row.AdmitsDegraded, row.Rejects,
			row.Misses, row.MissesClean, row.Sheds, row.Restores, row.StaleRemoves, row.Digest)
	}
	return b.String()
}

// WriteChurnCSV emits the per-tape rows.
func WriteChurnCSV(w io.Writer, r *ChurnResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seed", "events", "epochs", "jobs", "misses",
		"misses_degraded", "misses_clean", "admits", "admits_degraded", "rejects",
		"removes", "stale_removes", "overloads", "sheds", "restores", "digest"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			strconv.FormatUint(row.Seed, 10),
			strconv.Itoa(row.Events),
			strconv.FormatInt(row.Epochs, 10),
			strconv.FormatInt(row.Jobs, 10),
			strconv.FormatInt(row.Misses, 10),
			strconv.FormatInt(row.MissesDegraded, 10),
			strconv.FormatInt(row.MissesClean, 10),
			strconv.FormatInt(row.Admits, 10),
			strconv.FormatInt(row.AdmitsDegraded, 10),
			strconv.FormatInt(row.Rejects, 10),
			strconv.FormatInt(row.Removes, 10),
			strconv.FormatInt(row.StaleRemoves, 10),
			strconv.FormatInt(row.Overloads, 10),
			strconv.FormatInt(row.Sheds, 10),
			strconv.FormatInt(row.Restores, 10),
			row.Digest,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
