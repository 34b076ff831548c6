package cluster_test

// The single node is a one-shard cluster: these tests hold cluster.Server
// at width 1 to the serving contract — readiness gating, decisions and
// counters, load shedding with drain, timed epochs and checkpoints,
// batched ingest, saturation and deadline sheds with their Retry-After
// hints.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nprt/internal/cluster"
	"nprt/internal/journal"
	schedrt "nprt/internal/runtime"
)

// wedge is a journal.Injector that parks every shard fsync while held,
// emulating an engine stuck mid-fsync: the queue then fills behind it.
// release lets the parked sync and every later one through.
type wedge struct {
	mu     sync.Mutex
	free   chan struct{} // closed by release; nil while not held
	parked chan struct{} // buffered: the one engine parks at most once per hold
}

func newWedge() *wedge { return &wedge{parked: make(chan struct{}, 1)} }

func (w *wedge) Write(n int) (int, error) { return n, nil }

func (w *wedge) Sync() error {
	w.mu.Lock()
	free := w.free
	w.mu.Unlock()
	if free != nil {
		w.parked <- struct{}{}
		<-free
	}
	return nil
}

func (w *wedge) hold() {
	w.mu.Lock()
	w.free = make(chan struct{})
	w.mu.Unlock()
}

func (w *wedge) release() {
	w.mu.Lock()
	close(w.free)
	w.free = nil
	w.mu.Unlock()
}

// waitParked blocks until an engine sits in a held fsync.
func (w *wedge) waitParked(t *testing.T) {
	t.Helper()
	select {
	case <-w.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no engine ever reached the held fsync")
	}
}

// oneShard opens a one-shard cluster in dir, the shard's journal behind inj
// (nil: none), and a server over it that the caller attaches.
func oneShard(t *testing.T, dir string, sopt cluster.ServeOptions, inj journal.Injector) (*cluster.Server, *cluster.Cluster, *httptest.Server) {
	t.Helper()
	opt := cluster.Options{Store: schedrt.StoreOptions{NoSync: true}, RelaxedMeta: true}
	if inj != nil {
		opt.Inject = func(int) journal.Injector { return inj }
	}
	return newServer(t, dir, opt, sopt)
}

func batchJSON(t *testing.T, names ...string) []byte {
	t.Helper()
	evs := make([]json.RawMessage, len(names))
	for i, name := range names {
		evs[i] = addEventJSON(t, name, 6)
	}
	buf, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// postDeadline posts body with an X-Deadline-Ms header (none when ms is
// ""), returning the response with its body read, or the transport error.
func postDeadline(url string, body []byte, ms string) (*http.Response, string, error) {
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if ms != "" {
		req.Header.Set("X-Deadline-Ms", ms)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b), err
}

// admitAsync posts body from its own goroutine and reports the status (0
// on a transport error) on out.
func admitAsync(url string, body []byte, ms string, out chan<- int) {
	go func() {
		resp, _, err := postDeadline(url, body, ms)
		if err != nil {
			out <- 0
			return
		}
		out <- resp.StatusCode
	}()
}

// TestOneShardReadyzGatesOnAttach is the readiness contract: alive from
// the first byte, ready only between Attach (recovery done) and Shutdown.
func TestOneShardReadyzGatesOnAttach(t *testing.T) {
	s, c, ts := oneShard(t, t.TempDir(), cluster.ServeOptions{}, nil)

	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before attach: %d", resp.StatusCode)
	}
	resp, _ := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before attach: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 missing Retry-After")
	}
	// Admissions are shed, not queued, while unready.
	if resp, _ := post(t, ts.URL+"/admit", addEventJSON(t, "a", 6)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admit before attach: %d, want 503", resp.StatusCode)
	}

	s.Attach(c)
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after attach: %d, want 200", resp.StatusCode)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/admit", addEventJSON(t, "a", 6)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admit after shutdown: %d, want 503", resp.StatusCode)
	}
}

func TestOneShardAdmitDecisions(t *testing.T) {
	s, c, ts := oneShard(t, t.TempDir(), cluster.ServeOptions{}, nil)
	s.Attach(c)

	resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "a", 6))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit a: %d: %s", resp.StatusCode, body)
	}
	var out entry
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Decision.Verdict == schedrt.Rejected || out.Shard != 0 {
		t.Fatalf("admit a: %s", body)
	}

	// Duplicate add: stale, 409 with the decision and error attached.
	resp, body = post(t, ts.URL+"/admit", addEventJSON(t, "a", 6))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate admit: %d, want 409: %s", resp.StatusCode, body)
	}

	// Structural garbage never reaches the journal.
	for _, bad := range []string{
		`{"op": "frobnicate"}`,
		`{"op": "add"}`,
		`{"op": "add", "typo": 1}`,
		`not json`,
	} {
		resp, _ := post(t, ts.URL+"/admit", []byte(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("admit %q: %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, body = get(t, ts.URL+"/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state: %d", resp.StatusCode)
	}
	var st cluster.ClusterState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Shards != 1 || st.Tasks != 1 || st.Admitted != 1 || st.Rejected != 1 {
		t.Errorf("state after admits: %+v", st)
	}
	// The router answers the duplicate of a confirmed task itself, so only
	// the admission reached the journal. One shard's digest is the node's.
	if st.EventsApplied != 1 || len(st.PerShard) != 1 || st.Digest != st.PerShard[0].Digest {
		t.Errorf("state cursor: digest %q (shard %+v), events %d", st.Digest, st.PerShard, st.EventsApplied)
	}
}

// TestOneShardLoadShedAndDrain wedges the engine in an fsync, fills the
// bounded queue behind it, verifies the overflow admission is shed with
// 503 + Retry-After, then releases the engine and drains: every accepted
// admission must be applied (zero accepted-then-dropped), and the shed
// one must NOT be.
func TestOneShardLoadShedAndDrain(t *testing.T) {
	w := newWedge()
	s, c, ts := oneShard(t, t.TempDir(), cluster.ServeOptions{QueueDepth: 2, RequestTimeout: 10 * time.Second, RetryAfter: 3 * time.Second}, w)
	s.Attach(c)
	w.hold()

	statuses := make(chan int, 3)
	admitAsync(ts.URL+"/admit", addEventJSON(t, "q0", 6), "", statuses)
	w.waitParked(t) // q0 is inside the engine, parked in its fsync
	admitAsync(ts.URL+"/admit", addEventJSON(t, "q1", 6), "", statuses)
	admitAsync(ts.URL+"/admit", addEventJSON(t, "q2", 6), "", statuses)
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().PerShard[0].QueueDepth != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", s.Snapshot().PerShard[0].QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "overflow", 6))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow admit: %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After %q, want %q", ra, "3")
	}
	if !strings.Contains(body, "queue full") {
		t.Errorf("shed body: %s", body)
	}

	// Unwedge the engine, then immediately drain.
	w.release()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Errorf("accepted admit got %d", code)
		}
	}
	// All three accepted admissions applied; the shed one never touched
	// the store or the journal.
	if got := c.Shards()[0].Store.EventsApplied(); got != 3 {
		t.Errorf("store applied %d events, want exactly the 3 accepted", got)
	}
	if got := s.Snapshot().LoadShed; got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}
}

// TestOneShardEpochsAndCheckpoints covers the timed-epoch path and the
// checkpoint cadence, and the snapshot flags after a drain.
func TestOneShardEpochsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := oneShard(t, dir, cluster.ServeOptions{EpochInterval: time.Millisecond, CheckpointEvery: 2}, nil)
	s.Attach(c)

	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Epoch < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at epoch %d", s.Snapshot().Epoch)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Epoch < 4 || snap.Digest == "" {
		t.Errorf("snapshot after epochs: %+v", snap)
	}
	if snap.Ready || !snap.Draining {
		t.Errorf("snapshot flags after shutdown: ready=%v draining=%v", snap.Ready, snap.Draining)
	}
	// Shard 0 checkpointed its store and, with it, the router meta state.
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "shard-000", "ckpt-*.ckpt")); len(ckpts) == 0 {
		t.Error("no shard checkpoint after the checkpoint cadence")
	}
	if _, err := os.Stat(filepath.Join(dir, "meta.snap")); err != nil {
		t.Errorf("no meta snapshot: %v", err)
	}
}

// TestOneShardAdmitBatch: one POST carries several events; the response
// holds one decision per event, in order, with per-event errors for the
// stale ones — and the counters count each batch member exactly once.
func TestOneShardAdmitBatch(t *testing.T) {
	s, c, ts := oneShard(t, t.TempDir(), cluster.ServeOptions{}, nil)
	s.Attach(c)

	// b1 duplicates b1: the dup is stale, everything else admits.
	resp, body := post(t, ts.URL+"/admit/batch", batchJSON(t, "b1", "b2", "b1", "b3"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch admit: %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Decisions []entry `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 4 {
		t.Fatalf("%d decisions for 4 events: %s", len(out.Decisions), body)
	}
	for i, stale := range []bool{false, false, true, false} {
		d := out.Decisions[i]
		if d.Decision.Op != "add" {
			t.Errorf("decision %d op %q, want add — order not preserved", i, d.Decision.Op)
		}
		if stale && d.Error == "" {
			t.Errorf("decision %d: duplicate add has no error: %s", i, body)
		}
		if !stale && (d.Error != "" || d.Decision.Verdict == schedrt.Rejected) {
			t.Errorf("decision %d rejected: %+v %q", i, d.Decision, d.Error)
		}
	}

	snap := s.Snapshot()
	if snap.Admitted != 3 || snap.Rejected != 1 {
		t.Errorf("counters admitted=%d rejected=%d, want 3 and 1 — batch members double-counted?", snap.Admitted, snap.Rejected)
	}
	// The duplicate arrived while the first b1 was still pending, so it
	// followed it to the shard, which journaled it as stale — exactly as a
	// single store does.
	if snap.Tasks != 3 || snap.EventsApplied != 4 {
		t.Errorf("tasks=%d events=%d, want 3 and 4", snap.Tasks, snap.EventsApplied)
	}
	if cs := snap.PerShard[0].Commit; cs == nil || cs.Records < 4 {
		t.Errorf("state missing commit stats: %+v", cs)
	}

	// An empty array is a no-op, not an error.
	resp, body = post(t, ts.URL+"/admit/batch", []byte(`[]`))
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"decisions":[]`) {
		t.Errorf("empty batch: %d %s", resp.StatusCode, body)
	}

	// Over the event cap: rejected outright, nothing journaled.
	before := s.Snapshot().EventsApplied
	many := make([]schedrt.Event, 257)
	for i := range many {
		many[i] = schedrt.Event{Op: "remove", Name: "x"}
	}
	buf, _ := json.Marshal(many)
	resp, body = post(t, ts.URL+"/admit/batch", buf)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400: %s", resp.StatusCode, body)
	}
	if got := s.Snapshot().EventsApplied; got != before {
		t.Errorf("oversized batch advanced the journal: %d → %d", before, got)
	}

	// Malformed batch bodies.
	for _, bad := range []string{`{"op": "add"}`, `[{"typo": 1}]`, `not json`} {
		resp, _ := post(t, ts.URL+"/admit/batch", []byte(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestOneShardAdmitSaturatedTimeout: when the engine cannot reply within
// the request timeout, the client is shed with the standard 503 +
// Retry-After contract — not a generic error — and the shed counter ticks.
// The accepted events are still applied, exactly once.
func TestOneShardAdmitSaturatedTimeout(t *testing.T) {
	w := newWedge()
	s, c, ts := oneShard(t, t.TempDir(), cluster.ServeOptions{QueueDepth: 8, RequestTimeout: 50 * time.Millisecond, RetryAfter: 2 * time.Second}, w)
	s.Attach(c)
	w.hold()

	resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "slow", 6))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated admit: %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want %q", ra, "2")
	}
	if !strings.Contains(body, "saturated") {
		t.Errorf("shed body should name the condition: %s", body)
	}
	if got := s.Snapshot().LoadShed; got != 1 {
		t.Errorf("shed counter %d, want 1", got)
	}

	resp, body = post(t, ts.URL+"/admit/batch", batchJSON(t, "s1", "s2"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated batch admit: %d, want 503: %s", resp.StatusCode, body)
	}
	if got := s.Snapshot().LoadShed; got != 2 {
		t.Errorf("shed counter %d, want 2", got)
	}

	// The accepted events are still in flight: unwedge and drain — they
	// must be applied exactly once (durable despite the shed reply).
	w.release()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.Shards()[0].Store.EventsApplied(); got != 3 {
		t.Errorf("store applied %d events after drain, want 3", got)
	}
}

// TestOneShardDeadlineShedAtAdmit covers the handler path of deadline
// propagation: an /admit carrying X-Deadline-Ms shorter than the
// predicted queue wait is shed at the door (503, the deadline counter,
// nothing applied) with the predicted drain of the standing queue as its
// Retry-After hint, while one with a generous deadline rides the normal
// accepted-⇒-applied contract.
func TestOneShardDeadlineShedAtAdmit(t *testing.T) {
	w := newWedge()
	s, c, ts := oneShard(t, t.TempDir(), cluster.ServeOptions{QueueDepth: 2, RequestTimeout: 10 * time.Second, RetryAfter: 3 * time.Second}, w)
	s.Attach(c)
	statuses := make(chan int, 3)
	admit := func(name, ms string) { admitAsync(ts.URL+"/admit", addEventJSON(t, name, 6), ms, statuses) }

	// Seed the drain-rate estimate: one admission held in its fsync for
	// 150ms measures at least 150ms per event.
	w.hold()
	admit("warm", "60000")
	w.waitParked(t)
	time.Sleep(150 * time.Millisecond)
	w.release()
	if code := <-statuses; code != http.StatusOK {
		t.Fatalf("warm admit: %d", code)
	}

	// Wedge the engine again with one event inside it and one queued: the
	// next arrival would wait at least two service times, far past 10ms.
	w.hold()
	admit("inside", "60000")
	w.waitParked(t)
	admit("queued", "60000")
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().PerShard[0].QueueDepth != 1; {
		if time.Now().After(deadline) {
			t.Fatal("second admission never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _, err := postDeadline(ts.URL+"/admit", addEventJSON(t, "tight", 6), "10")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tight-deadline admit: %d, want 503", resp.StatusCode)
	}
	// The hint is the standing queue's predicted drain (one event at
	// ≥150ms), not the static 3s: Retry-After ceils it to 1s.
	ms, _ := strconv.Atoi(resp.Header.Get("Retry-After-Ms"))
	if resp.Header.Get("Retry-After") != "1" || ms < 150 || ms >= 3000 {
		t.Errorf("deadline shed hints Retry-After %q, Retry-After-Ms %q; want 1 and the queue's drain time",
			resp.Header.Get("Retry-After"), resp.Header.Get("Retry-After-Ms"))
	}
	snap := s.Snapshot()
	if snap.DeadlineShed != 1 || snap.LoadShed != 1 {
		t.Fatalf("deadline_shed %d, load_shed %d; want 1 and 1", snap.DeadlineShed, snap.LoadShed)
	}
	w.release()
	for i := 0; i < 2; i++ {
		if code := <-statuses; code != http.StatusOK {
			t.Fatalf("generous-deadline admit: %d, want 200", code)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// warm, inside and queued applied; the shed one never reached the store.
	if got := c.Shards()[0].Store.EventsApplied(); got != 3 {
		t.Fatalf("store applied %d events, want 3", got)
	}
}
