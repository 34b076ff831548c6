package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeSink mimics a Writer's index assignment while letting tests gate and
// fail syncs deterministically.
type fakeSink struct {
	mu       sync.Mutex
	next     uint64 // index the next record gets (Writer starts at 1)
	payloads [][]byte
	appends  int
	syncs    int
	gate     chan struct{}        // when non-nil, every Sync blocks on a receive
	syncErr  func(call int) error // per-sync error injection (1-based call number)
}

func newFakeSink() *fakeSink { return &fakeSink{next: 1} }

func (s *fakeSink) AppendBatch(recs []Pending) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appends++
	first := s.next
	for _, r := range recs {
		s.payloads = append(s.payloads, r.Payload)
		s.next++
	}
	return first, nil
}

func (s *fakeSink) Sync() error {
	s.mu.Lock()
	s.syncs++
	call := s.syncs
	gate := s.gate
	fail := s.syncErr
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if fail != nil {
		return fail(call)
	}
	return nil
}

// waitOpenLen polls until the committer's open group holds at least n
// records (the deterministic way to know followers have parked).
func waitOpenLen(t *testing.T, g *GroupCommitter, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g.mu.Lock()
		l := 0
		if g.open != nil {
			l = len(g.open.recs)
		}
		g.mu.Unlock()
		if l >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("open group never reached %d members (at %d)", n, l)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGroupCommitSingleCaller is the no-batching-overhead contract: a lone
// Commit behaves exactly like Append+Sync — one record, one sync, no
// stall — and the record is durable and replayable.
func TestGroupCommitSingleCaller(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitter(w, GroupOptions{})
	idx, err := g.Commit(TypeEvent, []byte("solo"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("index %d, want 1", idx)
	}
	st := g.Stats()
	if st.Records != 1 || st.Syncs != 1 || st.Groups != 1 || st.MaxGroup != 1 {
		t.Fatalf("single-caller stats %+v, want 1/1/1/1", st)
	}
	if st.Stalls != 0 {
		t.Fatalf("lone caller stalled %d times — the serial path must pay nothing", st.Stalls)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := Replay(dir, 0, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "solo" {
		t.Fatalf("replay %v", got)
	}
}

// TestGroupCommitCoalesces parks one leader inside a gated fsync and
// shows that every caller arriving meanwhile shares ONE follow-up group:
// 8 commits, 2 syncs.
func TestGroupCommitCoalesces(t *testing.T) {
	sink := newFakeSink()
	sink.gate = make(chan struct{})
	g := NewGroupCommitter(sink, GroupOptions{MaxBatch: 64, MaxDelay: -1})

	var wg sync.WaitGroup
	idxs := make(chan uint64, 8)
	commit := func(i int) {
		defer wg.Done()
		idx, err := g.Commit(TypeEvent, []byte(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Errorf("commit %d: %v", i, err)
			return
		}
		idxs <- idx
	}
	wg.Add(1)
	go commit(0) // leader of group 1, blocks inside Sync
	// Wait until it is actually inside the gated sync.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sink.mu.Lock()
		entered := sink.syncs
		sink.mu.Unlock()
		if entered == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never reached Sync")
		}
		time.Sleep(50 * time.Microsecond)
	}
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go commit(i)
	}
	waitOpenLen(t, g, 7) // all 7 latecomers share the next group
	close(sink.gate)
	wg.Wait()
	close(idxs)

	st := g.Stats()
	if st.Syncs != 2 || st.Groups != 2 {
		t.Fatalf("8 concurrent commits took %d syncs / %d groups, want 2/2 (%+v)", st.Syncs, st.Groups, st)
	}
	if st.Records != 8 || st.MaxGroup != 7 {
		t.Fatalf("stats %+v, want 8 records, max group 7", st)
	}
	// Every caller got a unique contiguous index.
	var all []int
	for idx := range idxs {
		all = append(all, int(idx))
	}
	sort.Ints(all)
	for i, idx := range all {
		if idx != i+1 {
			t.Fatalf("indices %v, want 1..8", all)
		}
	}
}

// TestGroupCommitMaxBatchSeals bounds group size: with MaxBatch 4 and 10
// commits racing, no group may exceed 4 records and at least one group is
// sealed early, yet every commit lands with a unique contiguous index.
func TestGroupCommitMaxBatchSeals(t *testing.T) {
	sink := newFakeSink()
	sink.gate = make(chan struct{})
	g := NewGroupCommitter(sink, GroupOptions{MaxBatch: 4, MaxDelay: -1})

	var wg sync.WaitGroup
	idxs := make(chan uint64, 10)
	wg.Add(1)
	go func() {
		defer wg.Done()
		idx, err := g.Commit(TypeEvent, []byte("leader"))
		if err != nil {
			t.Error(err)
			return
		}
		idxs <- idx
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sink.mu.Lock()
		entered := sink.syncs
		sink.mu.Unlock()
		if entered == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never reached Sync")
		}
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx, err := g.Commit(TypeEvent, []byte(fmt.Sprintf("f%d", i)))
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			idxs <- idx
		}(i)
	}
	// A group seals itself the instant its 4th member joins.
	for {
		if g.Stats().Sealed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no group ever filled to MaxBatch (stats %+v)", g.Stats())
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(sink.gate)
	wg.Wait()
	close(idxs)

	st := g.Stats()
	if st.MaxGroup > 4 {
		t.Fatalf("group of %d exceeded MaxBatch 4 (%+v)", st.MaxGroup, st)
	}
	if st.Records != 10 || st.Sealed < 1 {
		t.Fatalf("stats %+v, want 10 records with ≥1 sealed group", st)
	}
	var all []int
	for idx := range idxs {
		all = append(all, int(idx))
	}
	sort.Ints(all)
	for i, idx := range all {
		if idx != i+1 {
			t.Fatalf("indices %v, want 1..10", all)
		}
	}
}

// TestGroupCommitSyncErrorFanOut fails the sync covering a 4-member group
// and requires every member — leader and followers alike — to see the
// error, while the group before and after are unaffected.
func TestGroupCommitSyncErrorFanOut(t *testing.T) {
	wantErr := errors.New("disk on fire")
	sink := newFakeSink()
	sink.gate = make(chan struct{})
	sink.syncErr = func(call int) error {
		if call == 2 {
			return wantErr
		}
		return nil
	}
	g := NewGroupCommitter(sink, GroupOptions{MaxBatch: 64, MaxDelay: -1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // healthy group 1
		defer wg.Done()
		if _, err := g.Commit(TypeEvent, []byte("ok")); err != nil {
			t.Errorf("group 1: %v", err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sink.mu.Lock()
		entered := sink.syncs
		sink.mu.Unlock()
		if entered == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never reached Sync")
		}
		time.Sleep(50 * time.Microsecond)
	}
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := g.Commit(TypeEvent, []byte(fmt.Sprintf("doomed%d", i)))
			errs <- err
		}(i)
	}
	waitOpenLen(t, g, 4)
	close(sink.gate)
	wg.Wait()
	close(errs)

	n := 0
	for err := range errs {
		n++
		if !errors.Is(err, wantErr) {
			t.Errorf("group member got %v, want the shared sync error", err)
		}
	}
	if n != 4 {
		t.Fatalf("%d members reported, want 4", n)
	}
	st := g.Stats()
	if st.Errors != 1 {
		t.Errorf("stats.Errors %d, want 1 (%+v)", st.Errors, st)
	}
	if st.Records != 1 { // only the healthy group's record counts as committed
		t.Errorf("stats.Records %d, want 1 (%+v)", st.Records, st)
	}
	// The committer is not poisoned: a later commit succeeds.
	if _, err := g.Commit(TypeEvent, []byte("after")); err != nil {
		t.Fatalf("commit after failed group: %v", err)
	}
}

// TestGroupCommitClosed rejects commits after Close.
func TestGroupCommitClosed(t *testing.T) {
	g := NewGroupCommitter(newFakeSink(), GroupOptions{})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Commit(TypeEvent, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close: %v, want ErrClosed", err)
	}
	if _, err := g.CommitAll([]Pending{{Type: TypeEvent}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CommitAll after Close: %v, want ErrClosed", err)
	}
}

// TestCommitAll writes a caller-formed batch as one group over a real
// journal and replays it back in order.
func TestCommitAll(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitter(w, GroupOptions{})
	var recs []Pending
	for i := 0; i < 5; i++ {
		recs = append(recs, Pending{Type: TypeEvent, Payload: []byte(fmt.Sprintf("b%d", i))})
	}
	first, err := g.CommitAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first index %d, want 1", first)
	}
	st := g.Stats()
	if st.Records != 5 || st.Syncs != 1 {
		t.Fatalf("stats %+v, want 5 records / 1 sync", st)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := Replay(dir, 0, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if p != fmt.Sprintf("b%d", i) {
			t.Fatalf("replay %v out of order", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("replay saw %d records, want 5", len(got))
	}
}

// TestAppendBatchTornTail is the crash-between-write-and-sync case: a
// multi-record batch whose tail is torn mid-record must repair to the last
// WHOLE record on Open, and the journal must stay appendable.
func TestAppendBatchTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Pending
	var sizes []int
	for i := 0; i < 5; i++ {
		p := []byte(fmt.Sprintf("batched-%d", i))
		recs = append(recs, Pending{Type: TypeEvent, Payload: p})
		sizes = append(sizes, frameSize+bodyMin+len(p))
	}
	if _, err := w.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	// "Crash": no Sync, no Close — just tear the file mid-record 4.
	bases, err := listSegments(dir)
	if err != nil || len(bases) != 1 {
		t.Fatalf("segments %v (%v)", bases, err)
	}
	path := filepath.Join(dir, segName(bases[0]))
	cut := int64(headerSize + sizes[0] + sizes[1] + sizes[2] + 5)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if w2.LastIndex() != 3 {
		t.Fatalf("recovered to index %d, want 3 (the last whole record)", w2.LastIndex())
	}
	if _, err := w2.Append(TypeMark, []byte("post-tear")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	st, err := Replay(dir, 0, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	})
	if err != nil || st.Torn {
		t.Fatalf("post-repair replay: %v torn=%v", err, st.Torn)
	}
	want := []string{"batched-0", "batched-1", "batched-2", "post-tear"}
	if len(got) != len(want) {
		t.Fatalf("replay %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay %v, want %v", got, want)
		}
	}
}

// TestAppendBatchInterleavesWithAppend keeps index contiguity across mixed
// serial and batched appends, including across a rotation.
func TestAppendBatchInterleavesWithAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	add := func(batch int) {
		t.Helper()
		if batch <= 1 {
			if _, err := w.Append(TypeEvent, []byte(fmt.Sprintf("r%02d", n))); err != nil {
				t.Fatal(err)
			}
			n++
			return
		}
		var recs []Pending
		for i := 0; i < batch; i++ {
			recs = append(recs, Pending{Type: TypeEvent, Payload: []byte(fmt.Sprintf("r%02d", n))})
			n++
		}
		first, err := w.AppendBatch(recs)
		if err != nil {
			t.Fatal(err)
		}
		if int(first) != n-batch+1 {
			t.Fatalf("batch first index %d, want %d", first, n-batch+1)
		}
	}
	add(1)
	add(3)
	add(1)
	add(4)
	add(2)
	if w.Segments() < 2 {
		t.Fatalf("expected a rotation, have %d segment(s)", w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	i := 0
	if _, err := Replay(dir, 0, func(r Record) error {
		if string(r.Payload) != fmt.Sprintf("r%02d", i) {
			return fmt.Errorf("record %d holds %q", i, r.Payload)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("replayed %d records, want %d", i, n)
	}
}

// BenchmarkGroupCommit measures real-fsync amortization at the journal
// layer: c goroutines committing concurrently share syncs. fsyncs/commit
// is the figure the acceptance criterion bounds (< 0.25 at c ≥ 8).
func BenchmarkGroupCommit(b *testing.B) {
	for _, c := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("conc=%d", c), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			g := NewGroupCommitter(w, GroupOptions{})
			payload := []byte(`{"op":"add","task":"bench"}`)
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / c
			extra := b.N % c
			for i := 0; i < c; i++ {
				n := per
				if i < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for j := 0; j < n; j++ {
						if _, err := g.Commit(TypeEvent, payload); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			st := g.Stats()
			if st.Records > 0 {
				b.ReportMetric(float64(st.Syncs)/float64(st.Records), "fsyncs/commit")
				b.ReportMetric(st.RecordsPerSync(), "records/sync")
			}
			if err := g.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
