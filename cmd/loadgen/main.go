// Command loadgen drives one or more impserve admission endpoints and
// reports latency and throughput, so the group-commit ingest path has a
// measured number instead of a believed one.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -mode closed -conns 16 -duration 10s
//	loadgen -url ... -mode open -rate 2000 -duration 10s -out report.json
//	loadgen -url ... -batch 32                 # POST /admit/batch
//	loadgen -url ... -p99-max 50ms -fail-on-error   # smoke assertion
//	loadgen -target http://h1:8080 -target http://h2:8080 ...  # fan out
//
// Two load models:
//
//   - closed: -conns clients, each with ONE outstanding request — the
//     classic closed loop. Latency is measured from send to response.
//     Throughput self-adjusts to the server; queues cannot build.
//   - open: requests fire on a fixed schedule of -rate per second,
//     regardless of how the server is doing. Latency is measured from the
//     SCHEDULED send time, so server-side queueing is charged to the
//     request that suffered it (no coordinated omission).
//
// With repeated -target flags the stream round-robins across endpoints
// request by request (client-side sharding); the report carries one
// latency block per target next to the merged totals.
//
// The event stream is deterministic in -seed: adds and removes over a
// cyclic set of -names task names, so the server's working set stays
// bounded and a rerun with the same seed offers the same work. Widening
// -names raises the offered admission load past one scheduler's Theorem-1
// capacity — the knob the cluster-scaling benchmark turns. Duplicate adds
// and unknown removes come back 409 (stale); that is expected churn,
// counted separately from errors.
//
// A 503 shed is not final: the client honors the server's backoff
// guidance (millisecond-resolution Retry-After-Ms when present, else the
// standard Retry-After), sleeping at most -retry-max, and re-sends up to
// -retries times. The report splits shed (budget exhausted) from
// retried/recovered, so transient backpressure — a shard mid-failover —
// reads differently from capacity the cluster truly refused. Responses are parsed for verdicts, so
// the report separates *admitted* adds (the capacity headline) from
// feasibility rejections, and counts the events a 200 batch reply shed
// one by one as shed_events, apart from whole-request sheds.
//
// With -deadline-ms every request carries an X-Deadline-Ms header — the
// server's admission gate sheds up front when its predicted queue wait
// already exceeds the deadline, instead of accepting work whose answer
// will arrive too late. The report then splits goodput (replies that made
// the deadline) from deadline misses (late replies), the number that
// actually matters to a real-time client.
//
// Latencies land in one stats.LatencyHistogram per connection and target
// (log2 octaves × 64 sub-buckets: within 2^-6 of the true value, exact
// below 64ns, never above the max), merged for the report's
// p50/p90/p99/p999.
// The report is JSON on stdout (or -out), ending with a scrape of each
// server's /state so records-per-sync lands next to the latency it bought.
//
// Exit codes: 0 ok · 1 internal error · 2 bad flags · 3 assertion failed
// (-p99-max exceeded or -fail-on-error with errors > 0).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	runtimepkg "nprt/internal/runtime"
	"nprt/internal/stats"
	"nprt/internal/task"
)

const (
	exitOK           = 0
	exitInternal     = 1
	exitInvalidInput = 2
	exitAssertFailed = 3
)

func main() {
	os.Exit(run())
}

// --- seeded event stream ------------------------------------------------

// events builds the n'th request payload: -batch events, each an add or a
// remove over a cyclic set of `names` task names. Deterministic in
// (seed, n, names).
func events(seed uint64, n uint64, batch, names int) []runtimepkg.Event {
	rng := rand.New(rand.NewSource(int64(seed ^ n*0x9e3779b97f4a7c15)))
	evs := make([]runtimepkg.Event, batch)
	for i := range evs {
		name := fmt.Sprintf("lg%d", rng.Intn(names))
		if rng.Intn(2) == 0 {
			w := task.Time(8 + rng.Intn(8))
			evs[i] = runtimepkg.Event{Op: "add", Task: &runtimepkg.TaskSpec{Task: task.Task{
				Name: name, Period: task.Time(40 + 20*rng.Intn(3)),
				WCETAccurate: w, WCETImprecise: w / 3,
				ExecAccurate:  task.Dist{Mean: float64(w) * 0.6, Sigma: 1, Min: 1, Max: float64(w)},
				ExecImprecise: task.Dist{Mean: float64(w) * 0.2, Sigma: 0.3, Min: 0.5, Max: float64(w) / 3},
				Error:         task.Dist{Mean: 2, Sigma: 0.5},
			}}}
		} else {
			evs[i] = runtimepkg.Event{Op: "remove", Name: name}
		}
	}
	return evs
}

// --- report -------------------------------------------------------------

type latencyReport struct {
	P50Micros  float64 `json:"p50_us"`
	P90Micros  float64 `json:"p90_us"`
	P99Micros  float64 `json:"p99_us"`
	P999Micros float64 `json:"p999_us"`
	MaxMicros  float64 `json:"max_us"`
	MeanMicros float64 `json:"mean_us"`
}

// targetReport is one endpoint's slice of a multi-target run.
type targetReport struct {
	URL            string        `json:"url"`
	Requests       uint64        `json:"requests"`
	OK             uint64        `json:"ok"`
	Stale          uint64        `json:"stale"`
	Shed           uint64        `json:"shed"`
	ShedEvents     uint64        `json:"shed_events"`
	Errors         uint64        `json:"errors"`
	Admits         uint64        `json:"admits"`
	Retried        uint64        `json:"retried"`
	Recovered      uint64        `json:"recovered"`
	Goodput        uint64        `json:"goodput,omitempty"`
	DeadlineMisses uint64        `json:"deadline_misses,omitempty"`
	Latency        latencyReport `json:"latency"`
}

type report struct {
	Mode       string   `json:"mode"`
	URLs       []string `json:"urls"`
	Conns      int      `json:"conns"`
	Batch      int      `json:"batch"`
	Names      int      `json:"names"`
	TargetRate float64  `json:"target_rate,omitempty"`
	Seed       uint64   `json:"seed"`
	DurationS  float64  `json:"duration_s"`

	Requests uint64 `json:"requests"`
	Events   uint64 `json:"events"`
	OK       uint64 `json:"ok"`
	Stale    uint64 `json:"stale"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`

	// ShedEvents counts events the server shed inside a 200 /admit/batch
	// reply (an entry whose error starts "load shed:"). Shed above counts
	// whole requests refused with 503; the two never overlap.
	ShedEvents uint64 `json:"shed_events"`

	// Retried counts 503 responses that were retried after honoring the
	// server's Retry-After guidance; Recovered counts requests that then
	// landed. Shed counts only requests whose retry budget ran dry, so
	// Shed vs Retried/Recovered separates transient backpressure from
	// capacity the cluster truly refused.
	Retried   uint64 `json:"retried"`
	Recovered uint64 `json:"recovered"`

	// With -deadline-ms set, Goodput counts OK replies that arrived within
	// the deadline and DeadlineMisses counts late ones — a reply a real-
	// time client could no longer use, even though the server said 200.
	DeadlineMs     int64  `json:"deadline_ms,omitempty"`
	Goodput        uint64 `json:"goodput,omitempty"`
	DeadlineMisses uint64 `json:"deadline_misses,omitempty"`

	// Admits counts add events whose decision came back admitted (either
	// profile); AddRejects counts feasibility rejections. Their split is
	// what distinguishes a saturated scheduler (flat Admits, climbing
	// AddRejects) from a scaled one.
	Admits     uint64 `json:"admits"`
	AddRejects uint64 `json:"add_rejects"`

	RequestsPerSec float64 `json:"requests_per_sec"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AdmitsPerSec   float64 `json:"admits_per_sec"`
	GoodputPerSec  float64 `json:"goodput_per_sec,omitempty"`

	Latency latencyReport  `json:"latency"`
	Targets []targetReport `json:"targets,omitempty"`

	ServerState []json.RawMessage `json:"server_state,omitempty"`

	// ShardHealth summarizes per-shard containment state scraped from each
	// target's /state: shed requests during the run read next to which
	// shard was degraded or failed and why. Absent when no target answered
	// /state.
	ShardHealth []shardHealthRow `json:"shard_health,omitempty"`
}

// shardHealthRow is one shard's health as scraped from /state.
type shardHealthRow struct {
	URL        string `json:"url"`
	Shard      int    `json:"shard"`
	State      string `json:"state"`
	ConsecErrs int    `json:"consec_errs,omitempty"`
	TotalErrs  uint64 `json:"total_errs,omitempty"`
	Reopens    uint64 `json:"reopens,omitempty"`
	Reimages   uint64 `json:"reimages,omitempty"`
	LastError  string `json:"last_error,omitempty"`
}

// scrapeShardHealth pulls the per-shard health rows out of a raw /state
// body. Best-effort: a body without per_shard rows yields nothing.
func scrapeShardHealth(url string, body []byte) []shardHealthRow {
	var st struct {
		PerShard []struct {
			Shard  int `json:"shard"`
			Health struct {
				State      string `json:"state"`
				ConsecErrs int    `json:"consec_errs"`
				TotalErrs  uint64 `json:"total_errs"`
				Reopens    uint64 `json:"reopens"`
				Reimages   uint64 `json:"reimages"`
				LastError  string `json:"last_error"`
			} `json:"health"`
		} `json:"per_shard"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil
	}
	rows := make([]shardHealthRow, 0, len(st.PerShard))
	for _, sh := range st.PerShard {
		rows = append(rows, shardHealthRow{
			URL: url, Shard: sh.Shard, State: sh.Health.State,
			ConsecErrs: sh.Health.ConsecErrs, TotalErrs: sh.Health.TotalErrs,
			Reopens: sh.Health.Reopens, Reimages: sh.Health.Reimages,
			LastError: sh.Health.LastError,
		})
	}
	return rows
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func latencyOf(h *stats.LatencyHistogram) latencyReport {
	return latencyReport{
		P50Micros:  micros(h.Quantile(0.50)),
		P90Micros:  micros(h.Quantile(0.90)),
		P99Micros:  micros(h.Quantile(0.99)),
		P999Micros: micros(h.Quantile(0.999)),
		MaxMicros:  micros(h.Max()),
		MeanMicros: micros(h.Mean()),
	}
}

// --- worker -------------------------------------------------------------

// tstat is one worker's ledger for one target.
type tstat struct {
	h          stats.LatencyHistogram
	ok         uint64
	stale      uint64
	shed       uint64
	shedEvents uint64
	errs       uint64
	reqs       uint64
	events     uint64
	admits     uint64
	addRejects uint64
	retried    uint64
	recovered  uint64
	good       uint64
	dmiss      uint64
}

type worker struct {
	per []tstat // indexed by target
}

// decisionBody is the minimal shape of both admit responses (single and
// batch): enough to count verdicts.
type decisionBody struct {
	Decision  *wireDecision  `json:"decision"`
	Error     string         `json:"error"`
	Decisions []verdictEntry `json:"decisions"`
}

type wireDecision struct {
	Op      string `json:"op"`
	Verdict int    `json:"verdict"`
}

type verdictEntry struct {
	Decision wireDecision `json:"decision"`
	Error    string       `json:"error"`
}

// countVerdicts tallies admitted vs rejected adds, and events shed inside
// a batch, out of a 200 response.
func (s *tstat) countVerdicts(body []byte) {
	var d decisionBody
	if err := json.Unmarshal(body, &d); err != nil {
		return // latency and status already counted; verdicts are best-effort
	}
	tally := func(op string, verdict int, errmsg string) {
		if strings.HasPrefix(errmsg, "load shed:") {
			s.shedEvents++
			return
		}
		if op != "add" || errmsg != "" {
			return
		}
		if verdict == int(runtimepkg.Rejected) {
			s.addRejects++
		} else {
			s.admits++
		}
	}
	if d.Decision != nil {
		tally(d.Decision.Op, d.Decision.Verdict, d.Error)
	}
	for _, e := range d.Decisions {
		tally(e.Decision.Op, e.Decision.Verdict, e.Error)
	}
}

// backoffHint extracts the server's backoff guidance from a 503: the
// millisecond-resolution Retry-After-Ms (the cluster derives it from the
// shed shard's live containment backoff), else the seconds-granular
// standard Retry-After, else zero (caller falls back to exponential).
func backoffHint(resp *http.Response) time.Duration {
	if ms := resp.Header.Get("Retry-After-Ms"); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v >= 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	if sec := resp.Header.Get("Retry-After"); sec != "" {
		if v, err := strconv.Atoi(sec); err == nil && v >= 0 {
			return time.Duration(v) * time.Second
		}
	}
	return 0
}

// send posts one payload, honoring 503 backoff: a shed response is
// retried up to `retries` times, sleeping the server's Retry-After hint
// (capped at retryMax; exponential fallback when absent) instead of
// hammering a shard that just said when its recovery will next attempt.
// Only a request that exhausts the budget counts as shed; one that lands
// on a retry counts as recovered. Retry sleeps stay inside the measured
// latency, so backoff cost is charged to the request that paid it.
// deadline > 0 is stamped as X-Deadline-Ms so the server's admission gate
// can shed instead of serving an answer that would arrive too late.
// Returns whether the request landed (200).
func (w *worker) send(client *http.Client, ti int, url string, batch int, payload []byte, retries int, retryMax, deadline time.Duration) bool {
	s := &w.per[ti]
	s.reqs++
	s.events += uint64(batch)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			s.errs++
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		if deadline > 0 {
			req.Header.Set("X-Deadline-Ms", strconv.FormatInt(deadline.Milliseconds(), 10))
		}
		resp, err := client.Do(req)
		if err != nil {
			s.errs++
			return false
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			s.ok++
			if attempt > 0 {
				s.recovered++
			}
			if rerr == nil {
				s.countVerdicts(body)
			}
			return true
		case resp.StatusCode == http.StatusConflict:
			s.stale++
			return false
		case resp.StatusCode == http.StatusServiceUnavailable:
			if attempt < retries {
				d := backoffHint(resp)
				if d <= 0 {
					d = 50 * time.Millisecond << uint(attempt)
				}
				if d > retryMax {
					d = retryMax
				}
				s.retried++
				time.Sleep(d)
				continue
			}
			s.shed++
			s.errs++
			return false
		default:
			s.errs++
			return false
		}
	}
}

func run() int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "impserve base URL (single target)")
	var targets []string
	fs.Func("target", "impserve base URL; repeat to round-robin across endpoints (overrides -url)", func(v string) error {
		targets = append(targets, v)
		return nil
	})
	mode := fs.String("mode", "closed", "load model: closed (conns with one outstanding request) or open (fixed schedule of -rate/s)")
	conns := fs.Int("conns", 8, "concurrent client connections")
	rate := fs.Float64("rate", 0, "open mode: target requests per second")
	duration := fs.Duration("duration", 5*time.Second, "measured run length")
	warmup := fs.Duration("warmup", 0, "discard samples from the first part of the run")
	batch := fs.Int("batch", 1, "events per request (1: POST /admit, >1: POST /admit/batch)")
	names := fs.Int("names", 16, "distinct task names in the event stream (widen to raise offered admission load)")
	retries := fs.Int("retries", 3, "retry budget per request for 503 sheds (0 disables; sleeps honor the server's Retry-After)")
	retryMax := fs.Duration("retry-max", time.Second, "cap on a single Retry-After backoff sleep")
	deadlineMs := fs.Int64("deadline-ms", 0, "per-request deadline stamped as X-Deadline-Ms (0: none); replies later than this count as deadline misses, not goodput")
	seed := fs.Uint64("seed", 1, "event-stream seed")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	p99Max := fs.Duration("p99-max", 0, "exit 3 if p99 latency exceeds this")
	failOnError := fs.Bool("fail-on-error", false, "exit 3 if any request errored (including shed)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return exitInvalidInput
	}
	if *conns <= 0 || *batch <= 0 || *duration <= 0 || *names <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -conns, -batch, -names and -duration must be positive")
		return exitInvalidInput
	}
	if *mode != "closed" && *mode != "open" {
		fmt.Fprintf(os.Stderr, "loadgen: unknown mode %q (closed or open)\n", *mode)
		return exitInvalidInput
	}
	if *mode == "open" && *rate <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: open mode needs -rate > 0")
		return exitInvalidInput
	}
	if *deadlineMs < 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -deadline-ms must be >= 0")
		return exitInvalidInput
	}
	deadline := time.Duration(*deadlineMs) * time.Millisecond
	if len(targets) == 0 {
		targets = []string{*url}
	}

	endpoints := make([]string, len(targets))
	for i, t := range targets {
		if *batch > 1 {
			endpoints[i] = t + "/admit/batch"
		} else {
			endpoints[i] = t + "/admit"
		}
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *conns * len(targets),
			MaxIdleConnsPerHost: *conns,
		},
		Timeout: 30 * time.Second,
	}

	// Payloads are pre-marshaled round-robin so encoding cost stays out of
	// the measured latency.
	payloads := make([][]byte, 256)
	for i := range payloads {
		evs := events(*seed, uint64(i), *batch, *names)
		var buf []byte
		var err error
		if *batch == 1 {
			buf, err = json.Marshal(evs[0])
		} else {
			buf, err = json.Marshal(evs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return exitInternal
		}
		payloads[i] = buf
	}

	workers := make([]*worker, *conns)
	start := time.Now()
	measureFrom := start.Add(*warmup)
	end := start.Add(*warmup + *duration)
	var seq atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < *conns; c++ {
		w := &worker{per: make([]tstat, len(targets))}
		workers[c] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := seq.Add(1) - 1
				var sched time.Time
				if *mode == "open" {
					sched = start.Add(time.Duration(float64(n) / *rate * float64(time.Second)))
					if sched.After(end) {
						return
					}
					time.Sleep(time.Until(sched))
				} else {
					sched = time.Now()
					if sched.After(end) {
						return
					}
				}
				ti := int(n % uint64(len(targets)))
				landed := w.send(client, ti, endpoints[ti], *batch, payloads[n%uint64(len(payloads))], *retries, *retryMax, deadline)
				lat := time.Since(sched)
				if sched.After(measureFrom) {
					w.per[ti].h.Record(lat)
				}
				if landed && deadline > 0 {
					if lat <= deadline {
						w.per[ti].good++
					} else {
						w.per[ti].dmiss++
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(measureFrom)
	if elapsed <= 0 {
		elapsed = time.Since(start)
	}

	rep := report{
		Mode: *mode, URLs: targets, Conns: *conns, Batch: *batch, Names: *names,
		TargetRate: *rate, Seed: *seed, DurationS: elapsed.Seconds(),
		DeadlineMs: *deadlineMs,
	}
	h := new(stats.LatencyHistogram)
	for ti, t := range targets {
		th := new(stats.LatencyHistogram)
		tr := targetReport{URL: t}
		for _, w := range workers {
			s := &w.per[ti]
			th.Merge(&s.h)
			tr.Requests += s.reqs
			tr.OK += s.ok
			tr.Stale += s.stale
			tr.Shed += s.shed
			tr.ShedEvents += s.shedEvents
			tr.Errors += s.errs
			tr.Admits += s.admits
			tr.Retried += s.retried
			tr.Recovered += s.recovered
			tr.Goodput += s.good
			tr.DeadlineMisses += s.dmiss
			rep.Requests += s.reqs
			rep.Events += s.events
			rep.OK += s.ok
			rep.Stale += s.stale
			rep.Shed += s.shed
			rep.ShedEvents += s.shedEvents
			rep.Errors += s.errs
			rep.Admits += s.admits
			rep.AddRejects += s.addRejects
			rep.Retried += s.retried
			rep.Recovered += s.recovered
			rep.Goodput += s.good
			rep.DeadlineMisses += s.dmiss
		}
		tr.Latency = latencyOf(th)
		h.Merge(th)
		if len(targets) > 1 {
			rep.Targets = append(rep.Targets, tr)
		}
	}
	rep.RequestsPerSec = float64(rep.Requests) / elapsed.Seconds()
	rep.EventsPerSec = float64(rep.Events) / elapsed.Seconds()
	rep.AdmitsPerSec = float64(rep.Admits) / elapsed.Seconds()
	if deadline > 0 {
		rep.GoodputPerSec = float64(rep.Goodput) / elapsed.Seconds()
	}
	rep.Latency = latencyOf(h)
	for _, t := range targets {
		if resp, err := client.Get(t + "/state"); err == nil {
			if body, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
				rep.ServerState = append(rep.ServerState, json.RawMessage(body))
				rep.ShardHealth = append(rep.ShardHealth, scrapeShardHealth(t, body)...)
			}
			resp.Body.Close()
		}
	}
	for _, row := range rep.ShardHealth {
		if row.State != "" && row.State != "healthy" {
			fmt.Fprintf(os.Stderr, "loadgen: %s shard %d %s (consec_errs %d, last_error %q)\n",
				row.URL, row.Shard, row.State, row.ConsecErrs, row.LastError)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return exitInternal
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return exitInternal
		}
	} else {
		os.Stdout.Write(buf)
	}

	code := exitOK
	if *failOnError && rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d errored requests (fail-on-error)\n", rep.Errors)
		code = exitAssertFailed
	}
	if *p99Max > 0 && h.Quantile(0.99) > *p99Max {
		fmt.Fprintf(os.Stderr, "loadgen: p99 %.0fµs exceeds bound %v\n", rep.Latency.P99Micros, *p99Max)
		code = exitAssertFailed
	}
	return code
}
