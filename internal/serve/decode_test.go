package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"

	runtimepkg "nprt/internal/runtime"
	"nprt/internal/sim"
	"nprt/internal/task"
)

// refDecode is the reference semantics: encoding/json with
// DisallowUnknownFields, exactly what the /admit handler used before the
// pooled decoder.
func refDecode(b []byte) (runtimepkg.Event, error) {
	var ev runtimepkg.Event
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return runtimepkg.Event{}, err
	}
	// Match the hand decoder's trailing-data check: only whitespace may
	// follow the event.
	if _, err := dec.Token(); err != io.EOF {
		return runtimepkg.Event{}, fmt.Errorf("trailing data")
	}
	return ev, nil
}

// handDecode runs the pooled decoder and deep-copies the result out of the
// decoder's scratch before recycling it.
func handDecode(b []byte) (runtimepkg.Event, error) {
	d := getDecoder()
	evs, err := d.decodeBytes(b)
	if err != nil {
		putDecoder(d)
		return runtimepkg.Event{}, err
	}
	ev := evs[0]
	if ev.Task != nil {
		spec := *ev.Task
		ev.Task = &spec
	}
	if ev.Overload != nil {
		over := *ev.Overload
		ev.Overload = &over
	}
	putDecoder(d)
	return ev, nil
}

// decodeCorpus returns events covering every field of the schema, the
// numeric fast/slow paths, and empty/partial shapes.
func decodeCorpus() []runtimepkg.Event {
	return []runtimepkg.Event{
		{},
		{Op: "remove", Name: "w3"},
		{Epoch: 12, Op: "add", Task: &runtimepkg.TaskSpec{
			Criticality: 2,
			Task: task.Task{
				ID: 7, Name: "hot-τ", Period: 40, Release: 3,
				WCETAccurate: 10, WCETImprecise: 3,
				ExecAccurate:            task.Dist{Mean: 6.5, Sigma: 1.25, Min: 1, Max: 10},
				ExecImprecise:           task.Dist{Mean: 2.5, Sigma: 0.5, Min: 0.5, Max: 3},
				Error:                   task.Dist{Mean: 2, Sigma: 0.5},
				MaxConsecutiveImprecise: 4,
			},
		}},
		{Op: "add", Task: &runtimepkg.TaskSpec{Task: task.Task{
			Name: "levels", Period: 80, WCETAccurate: 20, WCETImprecise: 5,
			ExtraLevels: []task.Level{
				{WCET: 12, Exec: task.Dist{Mean: 8, Sigma: 2, Min: 4, Max: 12}},
				{WCET: 8, Error: task.Dist{Mean: 1.5}},
			},
		}}},
		{Op: "overload", Overload: &runtimepkg.OverloadSpec{
			Rates: sim.FaultRates{
				OverrunProb: 0.3, OverrunFactor: 3.5,
				AbortProb: 0.01, AbortPoint: 0.75, DropProb: 0.001,
			},
			Epochs: 6,
		}},
		// Numeric edges: exact fast path at both ends and slow-path
		// fallbacks (mantissa > 2^53, subnormal, huge exponent).
		{Op: "overload", Overload: &runtimepkg.OverloadSpec{
			Rates: sim.FaultRates{
				OverrunProb:   1e22,
				OverrunFactor: 1e-22,
				AbortProb:     9007199254740993, // 2^53+1: fast path must punt
				AbortPoint:    5e-324,
				DropProb:      1.7976931348623157e308,
			},
		}},
	}
}

// TestDecodeEventRoundTrip: for every corpus event, Marshal → hand decode
// must equal Marshal → encoding/json decode.
func TestDecodeEventRoundTrip(t *testing.T) {
	for i, want := range decodeCorpus() {
		buf, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refDecode(buf)
		if err != nil {
			t.Fatalf("event %d: reference decode: %v", i, err)
		}
		got, err := handDecode(buf)
		if err != nil {
			t.Fatalf("event %d: hand decode %s: %v", i, buf, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("event %d: hand decode diverges\n json: %s\n hand: %+v\n ref:  %+v", i, buf, got, ref)
		}
	}
}

// handcraftedEvents are JSON shapes Marshal never produces — whitespace,
// case-folded keys, escapes, unicode, null, duplicate keys — that
// encoding/json accepts.
var handcraftedEvents = []string{
	"  {  } \n",
	`{"OP": "remove", "NAME": "w1"}`,
	`{"op": "add", "task": {"Criticality": 1, "TASK": {"name": "x", "PERIOD": 40}}}`,
	`{"name": "tabs\tand\nnewlines!"}`,
	`{"name": "smile 😀 pair"}`,
	`{"name": "lone \ud800 surrogate"}`,
	`{"name": "slash\/quote\""}`,
	"{\"name\": \"raw\xffbyte\"}",
	`{"op": null, "task": null, "overload": null, "name": null, "epoch": null}`,
	`{"op": "add", "op": "remove"}`,
	`{"epoch": 9223372036854775807}`,
	`{"epoch": -9223372036854775808}`,
	`{"overload": {"rates": {"OverrunProb": -0.0, "DropProb": 0}, "epochs": 0}}`,
	`{"overload": {"rates": {}, "epochs": 3}}`,
	`{"task": {"task": {"ExtraLevels": []}}}`,
	`{"task": {"task": {"ExtraLevels": null}}}`,
	`{"task": {"task": {"ExecAccurate": {"Mean": 1.5e2, "Sigma": 2E-1, "Min": 0.125, "Max": 100.0}}}}`,
	// Keys folded onto ASCII letters by encoding/json: ſ with s, the
	// Kelvin sign with k.
	`{"ſeq": 1, "ta\u017f\u212a": null}`,
	"{\"tas\u212a\": {\"criticality\": 2}}",
	// A null between duplicate keys drops what came before it.
	`{"task": {"criticality": 1}, "task": null, "task": {}}`,
	`{"overload": {"epochs": 2}, "overload": null, "overload": {}}`,
	// Null leaves a struct or number unchanged, in every object.
	`{"task": {"task": null, "criticality": null}, "overload": {"rates": null, "epochs": null}}`,
	`{"task": {"task": {"id": null, "Name": null, "ExecAccurate": null, "Error": {"Mean": null}}}}`,
	`{"task": {"task": {"ExtraLevels": [null, {"WCET": 2, "Exec": null}]}}}`,
	// A duplicate levels array merges into the elements already there.
	`{"task": {"task": {"ExtraLevels": [{"WCET": 1, "Exec": {"Mean": 2}}, {"WCET": 4}], "ExtraLevels": [{"WCET": 3}]}}}`,
	`{"task": {"task": {"ExtraLevels": [{"WCET": 1}], "ExtraLevels": [], "ExtraLevels": [{"Error": {"Mean": 1}}]}}}`,
}

// TestDecodeEventHandcrafted: every handcrafted shape must match
// encoding/json byte for byte of behavior.
func TestDecodeEventHandcrafted(t *testing.T) {
	for _, src := range handcraftedEvents {
		ref, refErr := refDecode([]byte(src))
		got, gotErr := handDecode([]byte(src))
		if refErr != nil {
			t.Fatalf("case %q: reference decode unexpectedly failed: %v", src, refErr)
		}
		if gotErr != nil {
			t.Errorf("case %q: hand decode failed: %v", src, gotErr)
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("case %q diverges\n hand: %#v\n ref:  %#v", src, got, ref)
		}
	}
}

// invalidEvents are bodies encoding/json rejects.
var invalidEvents = []string{
	``,
	`not json`,
	`[]`,
	`"string"`,
	`{`,
	`{"op": "add"`,
	`{"op": }`,
	`{"op": "add",}`,
	`{"unknown": 1}`,
	`{"task": {"typo": 1}}`,
	`{"task": {"task": {"frobnicate": 1}}}`,
	`{"overload": {"rates": {"Typo": 0.1}}}`,
	`{"epoch": 1.5}`,
	`{"epoch": 1e3}`,
	`{"epoch": 01}`,
	`{"epoch": 9223372036854775808}`,
	`{"epoch": -9223372036854775809}`,
	`{"epoch": +1}`,
	`{"epoch": .5}`,
	`{"epoch": 1.}`,
	`{"epoch": 1e}`,
	`{"name": "unterminated`,
	`{"name": "bad \q escape"}`,
	`{"name": "bad \u12 escape"}`,
	"{\"name\": \"ctrl \x01 char\"}",
	`{"op": "add"} trailing`,
	`{}}`,
	`{}]`,
	`{} {}`,
	`{"task": {"task": {"ExtraLevels": [{"WCET": 1},]}}}`,
	// An unknown field is rejected whatever its value, null included, at
	// every nesting level.
	`{"task":{"task":{"zz":null}}}`,
	`{"task":{"task":{"ExecAccurate":{"zz":null}}}}`,
	`{"task":{"task":{"ExtraLevels":[{"zz":null}]}}}`,
	`{"overload":{"zz":null}}`,
	`{"overload":{"rates":{"zz":null}}}`,
}

// TestDecodeEventInvalid: everything encoding/json rejects, the hand
// decoder must reject too — nothing malformed may reach the journal.
func TestDecodeEventInvalid(t *testing.T) {
	for _, src := range invalidEvents {
		if _, err := refDecode([]byte(src)); err == nil {
			t.Fatalf("case %q: encoding/json accepts it — not an invalid case", src)
		}
		if _, err := handDecode([]byte(src)); err == nil {
			t.Errorf("case %q: hand decoder accepted invalid input", src)
		}
	}
}

// FuzzDecodeEvent holds the pooled decoder to encoding/json on arbitrary
// bytes: both reject, or both accept with equal events. The one exception
// is a bare top-level null, which encoding/json decodes to the zero Event
// and the decoder rejects (see the package comment).
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range decodeCorpus() {
		b, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, src := range handcraftedEvents {
		f.Add([]byte(src))
	}
	for _, src := range invalidEvents {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ref, refErr := refDecode(b)
		got, gotErr := handDecode(b)
		switch {
		case refErr != nil && gotErr != nil:
		case refErr == nil && gotErr != nil:
			if string(bytes.Trim(b, " \t\r\n")) == "null" {
				return
			}
			t.Fatalf("%q: encoding/json accepts it, the decoder rejects it: %v", b, gotErr)
		case refErr != nil:
			t.Fatalf("%q: encoding/json rejects it (%v), the decoder accepts it", b, refErr)
		case !reflect.DeepEqual(got, ref):
			t.Fatalf("%q diverges\n hand: %#v\n ref:  %#v", b, got, ref)
		}
	})
}

// hotEvent is the steady-state /admit payload: known op, repeated task
// name, full dists, no extra levels.
func hotEvent(name string) []byte {
	return []byte(`{"op": "add", "task": {"criticality": 1, "task": {
		"Name": "` + name + `", "Period": 40, "WCETAccurate": 10, "WCETImprecise": 3,
		"ExecAccurate": {"Mean": 6.5, "Sigma": 1.25, "Min": 1, "Max": 10},
		"ExecImprecise": {"Mean": 2.5, "Sigma": 0.5, "Min": 0.5, "Max": 3},
		"Error": {"Mean": 2, "Sigma": 0.5}}}}`)
}

// TestDecodeEventZeroAlloc is the acceptance criterion: the single-event
// hot path decodes with zero allocations once names are interned.
func TestDecodeEventZeroAlloc(t *testing.T) {
	d := getDecoder()
	defer putDecoder(d)
	payload := hotEvent("w1")
	if _, err := d.decodeBytes(payload); err != nil { // warm the intern table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.decodeBytes(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot-path decode allocates %.1f times per event, want 0", allocs)
	}
}

func BenchmarkDecodeEvent(b *testing.B) {
	payload := hotEvent("w1")
	b.Run("pooled", func(b *testing.B) {
		d := getDecoder()
		defer putDecoder(d)
		if _, err := d.decodeBytes(payload); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.decodeBytes(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var ev runtimepkg.Event
			dec := json.NewDecoder(bytes.NewReader(payload))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}
