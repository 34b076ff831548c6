package runtime

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nprt/internal/task"
)

// The admit benchmarks model the serve architecture honestly: a closed
// loop of `conc` clients, each with ONE outstanding request (like an HTTP
// caller awaiting its Decision), a bounded ticket queue, and a single
// engine goroutine that owns the store — exactly the shape of one
// shard's engine in cluster.Server. Serial mode applies tickets one at a time (one fsync
// each); group mode drains the queue and commits the batch under one
// fsync. Real fsyncs (b.TempDir), so fsyncs/admit and admits/s are the
// acceptance-criterion numbers.

type benchTicket struct {
	ev    Event
	reply chan struct{}
}

// benchEvent alternates add/remove over a small cyclic name set so the
// runtime's working set stays bounded; duplicate adds and unknown removes
// are stale requests, which the ingest path journals like any other.
func benchEvent(i uint64) Event {
	name := fmt.Sprintf("w%d", (i/2)%8)
	if i%2 == 0 {
		return Event{Op: "add", Task: &TaskSpec{Task: mkTask(name, 40, 10, 3)}}
	}
	return Event{Op: "remove", Name: name}
}

func benchAdmit(b *testing.B, conc int, batched bool) {
	var syncs atomic.Uint64
	s, err := OpenStore(b.TempDir(), StoreOptions{
		AfterSync: func() { syncs.Add(1) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	const maxBatch = 64
	queue := make(chan benchTicket, 4*maxBatch)
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		tickets := make([]benchTicket, 0, maxBatch)
		evs := make([]Event, 0, maxBatch)
		for t := range queue {
			tickets = append(tickets[:0], t)
			if batched {
				// Greedy drain, then the engine-level commit_delay: a batch
				// that already has company may stall briefly to fill (the
				// waiting clients' resubmissions are racing this drain); a
				// lone ticket commits immediately.
				drain := func() {
					for len(tickets) < maxBatch {
						select {
						case t2, ok := <-queue:
							if !ok {
								return
							}
							tickets = append(tickets, t2)
						default:
							return
						}
					}
				}
				drain()
				if len(tickets) == 1 {
					runtime.Gosched() // let racing submitters land
					drain()
				}
				if len(tickets) > 1 {
					for empty := 0; len(tickets) < maxBatch && empty < 4; {
						before := len(tickets)
						runtime.Gosched()
						drain()
						if len(tickets) == before {
							empty++
						} else {
							empty = 0
						}
					}
				}
				evs = evs[:0]
				for _, t := range tickets {
					evs = append(evs, t.ev)
				}
				if _, _, err := s.ApplyBatch(evs); err != nil {
					b.Error(err)
					return
				}
			} else {
				for _, t := range tickets {
					if _, err := s.Apply(t.ev); err != nil && !IsStaleRequest(err) {
						b.Error(err)
						return
					}
				}
			}
			for _, t := range tickets {
				t.reply <- struct{}{}
			}
		}
	}()

	startSyncs := syncs.Load() // exclude store-open fsyncs
	b.ResetTimer()
	var next atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply := make(chan struct{}, 1)
			for {
				i := next.Add(1) - 1
				if i >= uint64(b.N) {
					return
				}
				queue <- benchTicket{ev: benchEvent(i), reply: reply}
				<-reply
			}
		}()
	}
	wg.Wait()
	close(queue)
	<-engineDone
	b.StopTimer()

	n := float64(b.N)
	b.ReportMetric(float64(syncs.Load()-startSyncs)/n, "fsyncs/admit")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(n/sec, "admits/s")
	}
}

func BenchmarkAdmitSerial(b *testing.B) {
	for _, conc := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			benchAdmit(b, conc, false)
		})
	}
}

func BenchmarkAdmitGroupCommit(b *testing.B) {
	for _, conc := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			benchAdmit(b, conc, true)
		})
	}
}

// BenchmarkRuntimeChurn measures one admission round trip on a dense
// resident set: remove a task, then add its twin (same period and WCETs,
// another name), so the set's shape never changes. The pool is the
// admit-dense workload's: harmonic periods 1000–8000 µs by 50 accurate
// WCETs over 20–95 µs, imprecise WCETs a third of them, added in shape
// order until 113 are resident (the size first-fit gives shard 0 there).
// One op is one remove+add pair on the in-memory Runtime, no journal.
func BenchmarkRuntimeChurn(b *testing.B) {
	b.Run("dense113", func(b *testing.B) {
		const resident = 113
		periods := []task.Time{1000, 2000, 4000, 8000}
		shape := func(k int, twin string) TaskSpec {
			w := task.Time(20 + k/len(periods)*77/50)
			return TaskSpec{Task: mkTask(fmt.Sprintf("%s%03d", twin, k), periods[k%len(periods)], w, w/3),
				Criticality: k % 4}
		}
		r, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		var held []int // shape of each resident task
		for k := 0; len(held) < resident && k < 200; k++ {
			d, err := r.Add(shape(k, "a"))
			if err != nil {
				b.Fatal(err)
			}
			if d.Verdict != Rejected {
				held = append(held, k)
			}
		}
		if len(held) != resident {
			b.Fatalf("warm-up admitted %d tasks, want %d", len(held), resident)
		}
		twins := make([][2]TaskSpec, 200)
		for _, k := range held {
			twins[k] = [2]TaskSpec{shape(k, "a"), shape(k, "b")}
		}
		live := make([]int, 200) // which twin of each shape is resident
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := held[i*37%resident]
			if _, err := r.Remove(twins[k][live[k]].Task.Name); err != nil {
				b.Fatal(err)
			}
			live[k] ^= 1
			d, err := r.Add(twins[k][live[k]])
			if err != nil || d.Verdict == Rejected {
				b.Fatalf("re-adding shape %d: %+v, %v", k, d, err)
			}
		}
	})
}
