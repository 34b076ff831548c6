package journal

import (
	"errors"
	"testing"
)

// scriptInjector fails exactly the scripted op indices (0-based over the
// combined write+sync sequence) — the surgical counterpart to FaultFS's
// statistical schedule.
type scriptInjector struct {
	op        uint64
	syncFails map[uint64]error
	tornAt    map[uint64]int // op -> bytes to land
}

func (s *scriptInjector) Write(n int) (int, error) {
	op := s.op
	s.op++
	if k, ok := s.tornAt[op]; ok {
		if k > n {
			k = n
		}
		return k, ErrInjectedTorn
	}
	return n, nil
}

func (s *scriptInjector) Sync() error {
	op := s.op
	s.op++
	if err, ok := s.syncFails[op]; ok {
		return err
	}
	return nil
}

// countOps returns the op index the writer is at after setup, so a test
// can aim a fault at the next sync precisely.
func openWithInjector(t *testing.T, dir string, inj Injector) *Writer {
	t.Helper()
	w, err := Open(dir, Options{Inject: inj})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return w
}

// TestStickyPoisonSerial pins satellite semantics on the serial path: one
// failed fsync poisons the writer — every subsequent Append/Sync returns
// ErrJournalPoisoned — and reopening recovers whatever prefix survived.
func TestStickyPoisonSerial(t *testing.T) {
	dir := t.TempDir()
	inj := &scriptInjector{syncFails: map[uint64]error{}}
	w := openWithInjector(t, dir, inj)

	if _, err := w.Append(TypeEvent, []byte("a")); err != nil {
		t.Fatalf("append a: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync a: %v", err)
	}
	if _, err := w.Append(TypeEvent, []byte("b")); err != nil {
		t.Fatalf("append b: %v", err)
	}
	inj.syncFails[inj.op] = ErrInjectedSync
	if err := w.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("sync b: got %v, want injected sync failure", err)
	}

	// Sticky: the writer must refuse to write past the limbo frame.
	if _, err := w.Append(TypeEvent, []byte("c")); !errors.Is(err, ErrJournalPoisoned) {
		t.Fatalf("append after poison: got %v, want ErrJournalPoisoned", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrJournalPoisoned) {
		t.Fatalf("sync after poison: got %v, want ErrJournalPoisoned", err)
	}
	if err := w.CompactTo(1); !errors.Is(err, ErrJournalPoisoned) {
		t.Fatalf("compact after poison: got %v, want ErrJournalPoisoned", err)
	}
	// The original cause stays visible through the wrap.
	if err := w.Sync(); !errors.Is(err, ErrJournalPoisoned) || err.Error() == ErrJournalPoisoned.Error() {
		t.Fatalf("poison error should wrap the cause: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close poisoned: %v", err)
	}

	// Reopen is the repair path: record b's bytes DID land (only the
	// injected sync failed), so recovery keeps both records.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if w2.LastIndex() != 2 {
		t.Fatalf("recovered LastIndex = %d, want 2", w2.LastIndex())
	}
	if _, err := w2.Append(TypeEvent, []byte("c")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestStickyPoisonGroupCommit pins the same semantics through the
// committer: the batch whose covering sync fails returns the error, and
// later batches see ErrJournalPoisoned.
func TestStickyPoisonGroupCommit(t *testing.T) {
	dir := t.TempDir()
	inj := &scriptInjector{syncFails: map[uint64]error{}}
	w := openWithInjector(t, dir, inj)
	defer w.Close()
	gc := NewGroupCommitter(w, GroupOptions{})
	commit := func(p string) error {
		_, err := gc.CommitAll([]Pending{{Type: TypeEvent, Payload: []byte(p)}})
		return err
	}

	if err := commit("a"); err != nil {
		t.Fatalf("commit a: %v", err)
	}
	// The commit consumes one write op then one sync op; fail the sync.
	inj.syncFails[inj.op+1] = ErrInjectedSync
	if err := commit("b"); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("commit b: got %v, want injected sync failure", err)
	}
	if err := commit("c"); !errors.Is(err, ErrJournalPoisoned) {
		t.Fatalf("commit after poison: got %v, want ErrJournalPoisoned", err)
	}
	if s := gc.Stats(); s.Errors < 1 {
		t.Fatalf("group stats should count the failed batch: %+v", s)
	}
}

// TestTornWriteRecovery: an injected torn write lands a prefix; the writer
// poisons, and reopening truncates back to the last whole record.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := &scriptInjector{tornAt: map[uint64]int{}}
	w := openWithInjector(t, dir, inj)

	if _, err := w.Append(TypeEvent, []byte("intact")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	inj.tornAt[inj.op] = 5 // five bytes of the next frame land
	if _, err := w.Append(TypeEvent, []byte("torn")); !errors.Is(err, ErrInjectedTorn) {
		t.Fatalf("torn append: got %v, want ErrInjectedTorn", err)
	}
	if _, err := w.Append(TypeEvent, []byte("after")); !errors.Is(err, ErrJournalPoisoned) {
		t.Fatalf("append after torn: got %v, want ErrJournalPoisoned", err)
	}
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if w2.LastIndex() != 1 {
		t.Fatalf("recovered LastIndex = %d, want 1 (torn frame truncated)", w2.LastIndex())
	}
	var got []string
	if _, err := Replay(dir, 0, func(r Record) error {
		got = append(got, string(r.Payload))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 1 || got[0] != "intact" {
		t.Fatalf("replayed %q, want [intact]", got)
	}
}

// TestFaultFSDeterminism: the fault schedule is a pure function of
// (seed, op index) — two instances with the same seed agree op for op,
// and a different seed disagrees somewhere.
func TestFaultFSDeterminism(t *testing.T) {
	rates := FaultRates{SyncFailProb: 0.2, TornProb: 0.15, FullProb: 0.1, StallProb: 0.05}
	type outcome struct {
		n   int
		err error
	}
	run := func(seed uint64) []outcome {
		f := NewFaultFS(seed, rates)
		var out []outcome
		for i := 0; i < 200; i++ {
			if i%3 == 0 {
				out = append(out, outcome{0, f.Sync()})
			} else {
				n, err := f.Write(100)
				out = append(out, outcome{n, err})
			}
		}
		return out
	}
	a, b, c := run(42), run(42), run(43)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: same seed diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-op schedules")
	}
	st := NewFaultFS(42, rates)
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			st.Sync()
		} else {
			st.Write(100)
		}
	}
	s := st.Stats()
	if s.Ops != 200 || s.SyncFails+s.TornWrites+s.FullWrites+s.Stalls == 0 {
		t.Fatalf("stats look wrong for these rates: %+v", s)
	}
}

// TestFaultFSWedgeHeal: a wedged device fails every op; Heal restores it.
func TestFaultFSWedgeHeal(t *testing.T) {
	f := NewFaultFS(1, FaultRates{})
	if _, err := f.Write(10); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	f.Wedge()
	if !f.Wedged() {
		t.Fatal("Wedged() false after Wedge")
	}
	if _, err := f.Write(10); !errors.Is(err, ErrInjectedWedge) {
		t.Fatalf("wedged write: got %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedWedge) {
		t.Fatalf("wedged sync: got %v", err)
	}
	f.Heal()
	if _, err := f.Write(10); err != nil {
		t.Fatalf("healed write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("healed sync: %v", err)
	}
}

// TestFaultFSStallWindow: a stall opens a window of StallOps consecutive
// failing ops, then the device recovers.
func TestFaultFSStallWindow(t *testing.T) {
	// StallProb 1 on the first write op guarantees the window opens
	// immediately; after the window, StallProb 1 would reopen it — so
	// verify the window length by counting consecutive stall errors.
	f := NewFaultFS(9, FaultRates{StallProb: 1, StallOps: 4})
	stalls := 0
	for i := 0; i < 4; i++ {
		if _, err := f.Write(10); errors.Is(err, ErrInjectedStall) {
			stalls++
		} else {
			t.Fatalf("op %d: got %v, want stall", i, err)
		}
	}
	if stalls != 4 {
		t.Fatalf("stall window = %d ops, want 4", stalls)
	}
	if got := f.Stats(); got.Stalls != 1 || got.StallOps != 4 {
		t.Fatalf("stats: %+v, want 1 window of 4 ops", got)
	}
}

// TestFaultFSDiskFull: a full-disk write lands nothing and poisons the
// writer through the normal error path.
func TestFaultFSDiskFull(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(3, FaultRates{FullProb: 1})
	w, err := Open(dir, Options{Inject: f})
	// Open itself writes the first segment header through the injector —
	// with FullProb 1 it must fail, which is the honest model of creating
	// a journal on a full disk.
	if err == nil {
		w.Close()
		t.Fatal("open on full disk should fail")
	}
	if !errors.Is(err, ErrInjectedFull) {
		t.Fatalf("open: got %v, want ErrInjectedFull", err)
	}
}
