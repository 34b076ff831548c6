package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nprt/internal/sim"
)

// Event is one entry of a churn tape: a request the outside world makes of
// the runtime at a given epoch. Tapes are the runtime's scripting surface —
// cmd/impserve replays them against a live daemon and the churn soak
// generates them by the thousand.
type Event struct {
	// Epoch at which the event fires, non-decreasing along a tape.
	Epoch int64 `json:"epoch"`
	// Op is "add", "remove" or "overload".
	Op string `json:"op"`
	// Task carries the spec for "add".
	Task *TaskSpec `json:"task,omitempty"`
	// Name identifies the target for "remove".
	Name string `json:"name,omitempty"`
	// Overload carries the window for "overload".
	Overload *OverloadSpec `json:"overload,omitempty"`
	// Seq is an optional strictly-positive cluster sequence number stamped
	// by the sharded router (internal/cluster) before an event reaches a
	// shard store. A durable Store tracks the maximum Seq it has applied
	// (Store.MaxSeq) through its WAL and checkpoints, which is what lets a
	// recovering cluster locate its position in a shared tape without a
	// separate cursor. Zero means unsequenced: a Store driven directly (its
	// PlayTape, or the in-memory Runtime) never sets it, and a cluster
	// adopting such a store numbers its requests (Store.SequenceRequests).
	Seq uint64 `json:"seq,omitempty"`
}

// OverloadSpec is the payload of an "overload" event.
type OverloadSpec struct {
	Rates  sim.FaultRates `json:"rates"`
	Epochs int            `json:"epochs"`
}

// ErrBadEvent wraps every malformed-event rejection.
var ErrBadEvent = errors.New("runtime: malformed event")

// IsStaleRequest reports whether err is a request error that a churning
// client produces in normal operation — removing a task that was never
// admitted (or already removed), or re-adding a name that is still live.
// Long-running drivers tolerate these and count them; everything else is a
// real failure.
func IsStaleRequest(err error) bool {
	return errors.Is(err, ErrUnknownTask) || errors.Is(err, ErrDuplicateTask)
}

// Validate rejects structurally malformed events before they reach a
// runtime.
func (ev *Event) Validate() error {
	if ev.Epoch < 0 {
		return fmt.Errorf("%w: negative epoch %d", ErrBadEvent, ev.Epoch)
	}
	switch ev.Op {
	case "add":
		if ev.Task == nil {
			return fmt.Errorf("%w: add without task", ErrBadEvent)
		}
	case "remove":
		if ev.Name == "" {
			return fmt.Errorf("%w: remove without name", ErrBadEvent)
		}
	case "overload":
		if ev.Overload == nil {
			return fmt.Errorf("%w: overload without spec", ErrBadEvent)
		}
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadEvent, ev.Op)
	}
	return nil
}

// Apply dispatches one event to the runtime. Admission-screening rejections
// are Decisions, not errors; the error return is for malformed events and
// requests the runtime cannot interpret (unknown remove target, invalid
// task). Every decision — including rejections — is folded into the
// digest, so the sequence of requests is part of the run identity.
func (r *Runtime) Apply(ev Event) (Decision, error) {
	if err := ev.Validate(); err != nil {
		return Decision{Op: ev.Op}, err
	}
	switch ev.Op {
	case "add":
		return r.Add(*ev.Task)
	case "remove":
		return r.Remove(ev.Name)
	default: // "overload", by Validate
		return r.Overload(ev.Overload.Rates, ev.Overload.Epochs)
	}
}

// Tape is an event script: a sequence of events ordered by epoch.
type Tape struct {
	Events []Event `json:"events"`
}

// Validate checks every event and the epoch ordering.
func (tp *Tape) Validate() error {
	last := int64(0)
	for i := range tp.Events {
		if err := tp.Events[i].Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if tp.Events[i].Epoch < last {
			return fmt.Errorf("%w: event %d goes back in time (epoch %d after %d)",
				ErrBadEvent, i, tp.Events[i].Epoch, last)
		}
		last = tp.Events[i].Epoch
	}
	return nil
}

// EncodeTape writes the tape as indented JSON.
func EncodeTape(w io.Writer, tp *Tape) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tp)
}

// DecodeTape reads and validates a tape. Unknown fields are rejected so a
// typo'd script fails loudly instead of silently doing nothing.
func DecodeTape(rd io.Reader) (*Tape, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var tp Tape
	if err := dec.Decode(&tp); err != nil {
		return nil, fmt.Errorf("runtime: decoding tape: %w", err)
	}
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	return &tp, nil
}

// Play runs the runtime through the tape: events scheduled for an epoch
// fire immediately before that epoch runs, and epochs advance through
// horizon (exclusive). Events earlier than the runtime's current epoch are
// skipped — on a runtime restored from a checkpoint taken at epoch E they
// are exactly the events that already fired, so resuming a tape needs no
// bookkeeping beyond the checkpoint itself. onEpoch, when non-nil,
// observes every epoch report (the daemon's logging hook); onDecision
// likewise observes every decision. Request-level errors from events
// (duplicate add, unknown remove) are routed to onDecisionErr if non-nil
// and abort the replay otherwise.
func (r *Runtime) Play(tp *Tape, horizon int64,
	onEpoch func(EpochReport), onDecision func(Event, Decision),
	onDecisionErr func(Event, error) error) error {
	i := 0
	for i < len(tp.Events) && tp.Events[i].Epoch < r.Epoch() {
		i++
	}
	for r.Epoch() < horizon {
		for i < len(tp.Events) && tp.Events[i].Epoch <= r.Epoch() {
			ev := tp.Events[i]
			i++
			d, err := r.Apply(ev)
			if err != nil {
				if onDecisionErr == nil {
					return fmt.Errorf("runtime: event at epoch %d: %w", ev.Epoch, err)
				}
				if err := onDecisionErr(ev, err); err != nil {
					return err
				}
				continue
			}
			if onDecision != nil {
				onDecision(ev, d)
			}
		}
		rep, err := r.RunEpoch()
		if err != nil {
			return err
		}
		if onEpoch != nil {
			onEpoch(rep)
		}
	}
	return nil
}
