// Command perfbench is the repository's benchmark. It runs one named
// workload against the program from outside — through the exported
// functions of the nprt facade and the internal packages behind it —
// checks the workload's outputs against references computed apart from
// the program, and prints the end-to-end metrics (or, with -trace 1, the per-layer metrics derived from spans the
// benchmark records around its calls) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every run does a fixed amount of seeded work; -seconds scales it (the
// per-second rates are calibrated so a run measures about that long on a
// 2-CPU machine). Run it through run.sh, which builds this package from
// the checkout first:
//
//	bash perfbench/run.sh --workload admit-dense --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	root    string // checkout root (holds go.mod)
	work    string // scratch directory for stores, inside the checkout
	seed    uint64
	seconds int
}

// outcome is what one execution of a workload's measured phase yields.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
}

// workload runs a measured phase. With tr == nil it reports the end-to-end
// metrics; with a tracer it records spans around its calls and reports the
// per-layer metrics derived from them. reaches lists the prefixes of the
// per-layer metrics its layers give; the others read 0 in its traced run.
type workload struct {
	why     string
	run     func(cfg config, chk *checks, tr *tracer) (*outcome, error)
	reaches []string
}

var workloads = map[string]workload{
	"admit-dense": {"in-process 2-shard cluster, 16-event batches", runAdmitDense,
		[]string{"serve.", "cluster.", "feasibility.", "runtime.", "journal.", "trace."}},
	"plan-paper": {"Table I cases through screens, planners, ILP and simulation", runPlanPaper,
		[]string{"feasibility.profiles_", "sim.", "offline.", "ilp.", "lp.", "cumulative.", "trace."}},
}

// endToEnd are the metrics of an untraced run, with their units; every
// workload reports each of them. BENCHMARK.json declares the same list.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"peak_rss_mb":    "MB",
	"ops_per_s":      "1/s",
	"latency_p50_ms": "ms",
}

// perLayer are the metrics of a traced run, with their units. Times are
// shares (%) of the workload's measured time, so that a layer a workload
// does not reach reads 0 like its counts; only the Theorem-1 screen, which
// both workloads reach, also has a time per call.
var perLayer = map[string]string{
	"serve.decode_pct":                 "%",
	"serve.decode_allocs_per_event":    "count",
	"cluster.apply_pct":                "%",
	"cluster.route_pct":                "%",
	"cluster.probes_per_add":           "count",
	"cluster.placed_per_probe":         "ratio",
	"feasibility.profiles_calls":       "count",
	"feasibility.profiles_us_per_call": "us",
	"feasibility.profiles_pct":         "%",
	"feasibility.mirror_probe_pct":     "%",
	"feasibility.mirror_update_pct":    "%",
	"runtime.apply_pct":                "%",
	"runtime.epoch_pct":                "%",
	"runtime.checkpoint_pct":           "%",
	"runtime.recovery_pct":             "%",
	"runtime.replayed_events":          "count",
	"runtime.replayed_epochs":          "count",
	"journal.records":                  "count",
	"journal.syncs":                    "count",
	"journal.records_per_sync":         "ratio",
	"journal.stalls":                   "count",
	"journal.commit_pct":               "%",
	"journal.bytes_per_event":          "B",
	"sim.jobs":                         "count",
	"sim.run_pct":                      "%",
	"sim.allocs_per_run":               "count",
	"offline.dp_pct":                   "%",
	"offline.post_pct":                 "%",
	"offline.flipped_pct":              "%",
	"ilp.nodes":                        "count",
	"ilp.solve_pct":                    "%",
	"lp.root_pct":                      "%",
	"cumulative.states_expanded":       "count",
	"cumulative.pruned_per_expanded":   "ratio",
	"cumulative.solve_pct":             "%",
	"trace.overhead_pct":               "%",
}

// complete checks a run's metrics against the declared list: each must be
// reported in its unit, except the per-layer metrics of layers the
// workload does not reach, which are set to 0 here.
func complete(mets map[string]metric, declared map[string]string, reaches []string) error {
	for name, m := range mets {
		if unit, ok := declared[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared with that unit", name, m.Unit)
		}
	}
	for _, name := range sortedKeys(declared) {
		if _, ok := mets[name]; ok {
			continue
		}
		if reaches == nil || hasAnyPrefix(name, reaches) {
			return fmt.Errorf("metric %s was not reported", name)
		}
		mets[name] = metric{0, declared[name]}
	}
	return nil
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run length the work is sized for")
	traceOn := fs.Int("trace", 0, "1: report per-layer metrics from spans instead of end-to-end ones")
	root := fs.String("root", ".", "checkout root")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		root:    absRoot,
		work:    filepath.Join(absRoot, ".bench_build", "run", fmt.Sprintf("%s-%d", *name, os.Getpid())),
		seed:    *seed,
		seconds: *seconds,
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	fmt.Printf("workload: %s (%s), seed %d, seconds %d, store %s on %s\n",
		*name, w.why, cfg.seed, cfg.seconds, cfg.work, fsType(cfg.work))

	chk := &checks{}
	var out *outcome
	if *traceOn == 0 {
		out, err = w.run(cfg, chk, nil)
		if err == nil {
			err = complete(out.metrics, endToEnd, nil)
		}
	} else {
		out, err = tracedRun(cfg, *name, w, chk)
		if err == nil {
			err = complete(out.metrics, perLayer, w.reaches)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   chk.ok(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// tracedRun runs the phase with spans, reports the per-layer metrics
// derived from them and the tracing overhead, and writes the spans out.
// The overhead is what recording the run's spans cost — their number times
// the measured cost of one begin/end pair — as a share of the rest of the
// traced run's wall time.
func tracedRun(cfg config, name string, w workload, chk *checks) (*outcome, error) {
	tr := newTracer()
	t0 := time.Now()
	out, err := w.run(cfg, chk, tr)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	cost := time.Duration(len(tr.spans)) * spanCost()
	out.metrics["trace.overhead_pct"] = metric{100 * cost.Seconds() / (wall - cost).Seconds(), "%"}
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	st := tr.stats()
	for _, name := range sortedKeys(st) {
		s := st[name]
		fmt.Printf("span %s: n=%d busy=%.3fms self=%.3fms mean=%.3fus\n",
			name, s.count, ms(s.busy), ms(s.self), s.meanUS())
	}
	return out, nil
}

// pct is part as a percentage of whole.
func pct(part, whole time.Duration) float64 { return 100 * part.Seconds() / whole.Seconds() }

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checks collects output-check failures; any failure makes the run
// incorrect.
type checks struct {
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(c.failures) < 50 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	c.failures = append(c.failures, msg)
}

func (c *checks) ok() bool {
	return len(c.failures) == 0
}

// quantile returns the q-quantile of sorted durations by the nearest-rank
// rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
}

// median of a small set of repeated measurements.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sortDurations(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianFloat(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tailLine prints the p50, p90, p99 and p999 of a latency sample with the
// samples beyond each, for the record; they carry no bound.
func tailLine(label string, sorted []time.Duration) {
	n := len(sorted)
	fmt.Printf("%s: n=%d p50=%.3fms p90=%.3fms (%d beyond) p99=%.3fms (%d beyond) p999=%.3fms (%d beyond) max=%.3fms\n",
		label, n, ms(quantile(sorted, 0.5)), ms(quantile(sorted, 0.9)), n-int(math.Ceil(0.9*float64(n))),
		ms(quantile(sorted, 0.99)), n-int(math.Ceil(0.99*float64(n))),
		ms(quantile(sorted, 0.999)), n-int(math.Ceil(0.999*float64(n))), ms(sorted[n-1]))
}

// threadCPU is the CPU time the calling OS thread has used. Callers lock
// their goroutine to its thread, so the difference of two readings is the
// CPU the code between them took on that thread, whatever other tenants
// of the host were running meanwhile.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// selfPeakRSSMB is this process's resident high-water mark.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// fsType names the file system holding dir, for the run header.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs 0x%x", st.Type)
}
