package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fakeSink mimics a Writer's index assignment while letting tests fail
// syncs deterministically.
type fakeSink struct {
	next     uint64 // index the next record gets (Writer starts at 1)
	payloads [][]byte
	syncs    int
	syncErr  func(call int) error // per-sync error injection (1-based call number)
}

func newFakeSink() *fakeSink { return &fakeSink{next: 1} }

func (s *fakeSink) AppendBatch(recs []Pending) (uint64, error) {
	first := s.next
	for _, r := range recs {
		s.payloads = append(s.payloads, r.Payload)
		s.next++
	}
	return first, nil
}

func (s *fakeSink) Sync() error {
	s.syncs++
	if s.syncErr != nil {
		return s.syncErr(s.syncs)
	}
	return nil
}

// TestGroupCommitSingleCaller: a one-record CommitAll is exactly
// Append+Sync — one record, one sync, no stall — and the record is durable
// and replayable.
func TestGroupCommitSingleCaller(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitter(w, GroupOptions{})
	idx, err := g.CommitAll([]Pending{{Type: TypeEvent, Payload: []byte("solo")}})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("index %d, want 1", idx)
	}
	st := g.Stats()
	if st.Records != 1 || st.Syncs != 1 || st.Groups != 1 || st.MaxGroup != 1 {
		t.Fatalf("single-record stats %+v, want 1/1/1/1", st)
	}
	if st.Stalls != 0 {
		t.Fatalf("committer stalled %d times — it never delays a sync", st.Stalls)
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

// TestGroupCommitSyncError fails the sync covering one batch: the caller
// sees the error, the batch counts as one error and no records, and the
// committer is not poisoned — the next batch commits.
func TestGroupCommitSyncError(t *testing.T) {
	wantErr := errors.New("disk on fire")
	sink := newFakeSink()
	sink.syncErr = func(call int) error {
		if call == 1 {
			return wantErr
		}
		return nil
	}
	g := NewGroupCommitter(sink, GroupOptions{})

	var doomed []Pending
	for i := 0; i < 4; i++ {
		doomed = append(doomed, Pending{Type: TypeEvent, Payload: []byte(fmt.Sprintf("doomed%d", i))})
	}
	if _, err := g.CommitAll(doomed); !errors.Is(err, wantErr) {
		t.Fatalf("CommitAll got %v, want the sync error", err)
	}
	st := g.Stats()
	if st.Errors != 1 {
		t.Errorf("stats.Errors %d, want 1 (%+v)", st.Errors, st)
	}
	if st.Records != 0 || st.Syncs != 0 {
		t.Errorf("failed batch counted as committed: %+v", st)
	}
	if _, err := g.CommitAll([]Pending{{Type: TypeEvent, Payload: []byte("after")}}); err != nil {
		t.Fatalf("commit after failed batch: %v", err)
	}
	if st := g.Stats(); st.Records != 1 || st.Syncs != 1 {
		t.Fatalf("stats after recovery %+v, want 1 record / 1 sync", st)
	}
}

// TestGroupCommitClosed rejects commits after Close.
func TestGroupCommitClosed(t *testing.T) {
	g := NewGroupCommitter(newFakeSink(), GroupOptions{})
	if err := g.Close(); err != nil {
		t.Fatal(err)
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
