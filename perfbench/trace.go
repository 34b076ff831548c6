package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Spans of one request, batch or
// case share an id; parent indexes the enclosing span (-1 for a root).
type span struct {
	ID     int64         `json:"id"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same code. Every workload
// calls the program from one goroutine, so the tracer takes no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(id int64, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0)
}

// place records a child of parent measured apart from it (a replay of
// the parent's work), laid into the parent's interval offset from its
// start, so the parent's self time is what the replayed children do not
// account for.
func (t *tracer) place(parent int, name string, offset, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: p.ID, Name: name, Parent: parent,
		Start: p.Start + offset, End: p.Start + offset + d})
}

// spanCost measures what recording one span costs: the median, over a few
// repetitions, of the time per begin/end pair on a scratch tracer.
func spanCost() time.Duration {
	const pairs, reps = 20000, 5
	costs := make([]time.Duration, reps)
	for r := range costs {
		t := newTracer()
		root := t.begin(0, "calibrate", -1)
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			t.end(t.begin(int64(i), "calibrate.child", root))
		}
		costs[r] = time.Since(t0) / pairs
	}
	return median(costs)
}

// layerStat aggregates every span of one name.
type layerStat struct {
	count int
	busy  time.Duration // Σ span durations
	self  time.Duration // Σ (duration − the part child spans cover)
}

func (s layerStat) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return us(s.busy) / float64(s.count)
}

// stats derives count, busy and self time per span name.
func (t *tracer) stats() map[string]layerStat {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerStat)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		st := out[s.Name]
		st.count++
		st.busy += d
		st.self += d - covered(t.spans, children[i], s.Start, s.End)
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's [start, end].
func covered(spans []span, kids []int, start, end time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if b < 0 {
			continue
		}
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v.a, v.b, true
		} else if v.b > curB {
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
