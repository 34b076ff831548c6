// Durable modes: with -dir the tape mode and the HTTP service run over a
// cluster of -shards shard stores (default 1) behind the partition-aware
// router. One shard is the single node — shard 0 runs the root seed and
// the cluster digest of one shard is that store's digest — so the width
// changes how far the state spreads, never the contract: same tape, same
// exit codes, same signal handling, same crash-only recovery.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"nprt/internal/cluster"
	schedrt "nprt/internal/runtime"
	"nprt/internal/serve"
)

// openCluster recovers (or initializes) the cluster under -dir. relaxedMeta
// is the serve mode's write-behind meta journal; tape mode fsyncs every
// placement record.
func openCluster(fs flags, fsyncs *int, relaxedMeta bool) (*cluster.Cluster, error) {
	c, err := cluster.Open(*fs.dir, cluster.Options{
		Shards:    *fs.shards,
		Replicas:  *fs.replicas,
		Placement: *fs.placement,
		Store: schedrt.StoreOptions{
			Runtime:   runtimeOptions(fs),
			AfterSync: crashHook(fs, fsyncs),
		},
		RelaxedMeta:   relaxedMeta,
		LatencySLO:    *fs.latencySLO,
		AdmitDeadline: *fs.deadline,
	})
	if err != nil {
		return nil, err
	}
	rec := c.Recovery()
	if rec.AdoptedStore {
		fmt.Printf("adopted:     single-store layout in %s as shard 0\n", *fs.dir)
	}
	restored := rec.Cursor > 0 || rec.ReplayedPlacements > 0
	for _, sr := range rec.Shards {
		restored = restored || sr.FromCheckpoint != "" || sr.ReplayedEvents+sr.ReplayedEpochs > 0
	}
	if restored {
		fmt.Printf("restored:    %s at epoch %d (digest %016x, cursor %d, %d placements replayed, %d adopted, %d dropped)\n",
			*fs.dir, c.Epoch(), c.Digest(), rec.Cursor, rec.ReplayedPlacements, rec.Adopted, rec.Dropped)
	}
	return c, nil
}

func printClusterSummary(c *cluster.Cluster, horizon int64) {
	fmt.Printf("shards:      %d (placement %s)\n", len(c.Shards()), c.Policy().Name())
	for _, sh := range c.Shards() {
		fmt.Printf("shard %03d:   %d tasks, digest %016x\n", sh.ID, sh.Resident(), sh.Store.Digest())
	}
	printSummary(c.Metrics(), c.Epoch(), horizon, c.Digest())
}

// runDurable is the -dir tape mode: the in-memory play loop over a
// crash-only cluster — every mutation journaled before it is applied, a
// checkpoint every -checkpoint-every epochs, recovery on open. The tape
// plays one epoch at a time (the signal boundary) through the serial
// router: the durable resume contract (skip exactly the journaled sequence
// prefix) holds only when events become durable in tape order.
func runDurable(fs flags) int {
	if *fs.tape == "" {
		fmt.Fprintln(os.Stderr, "impserve: -dir needs -tape (or -listen for the HTTP service)")
		return exitInvalidInput
	}
	if *fs.restore != "" || *fs.checkpoint != "" {
		fmt.Fprintln(os.Stderr, "impserve: -dir manages its own checkpoints; drop -restore/-checkpoint")
		return exitInvalidInput
	}
	tp, err := readTape(*fs.tape, *fs.strict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInvalidInput
	}

	fsyncs := 0
	c, err := openCluster(fs, &fsyncs, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "impserve: opening %s: %v\n", *fs.dir, err)
		return exitInvalidInput
	}
	defer c.Close()

	horizon := tapeHorizon(fs, tp)
	jsonl, code := openJSONL(fs)
	if jsonl != nil {
		defer jsonl.Close()
	} else if code != exitOK {
		return code
	}

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	onEpoch := func(rep cluster.ShardEpoch) {
		if jsonl != nil {
			if err := json.NewEncoder(jsonl).Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, "impserve: epoch log:", err)
			}
		}
		if !*fs.quiet && rep.Report.ActionName != "" {
			fmt.Printf("epoch %d: shard %d governor %s (shed %v, window mean %.2f)\n",
				rep.Report.Epoch, rep.Shard, rep.Report.ActionName, rep.Report.Shed, rep.Report.WindowMean)
		}
	}
	onDecision := func(ev schedrt.Event, res cluster.Result) {
		if !*fs.quiet {
			fmt.Printf("epoch %d: shard %d: %s %s: %s%s\n",
				c.Epoch(), res.Shard, res.Decision.Op, res.Decision.Task,
				res.Decision.Verdict, reason(res.Decision))
		}
	}

	every := *fs.ckptEvery
	interrupted := false
	for c.Epoch() < horizon && !interrupted {
		select {
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "impserve: %v: state is durable at epoch %d\n", sig, c.Epoch())
			interrupted = true
			continue
		default:
		}
		err := c.PlayTape(tp, c.Epoch()+1, 0,
			onEpoch, onDecision, staleTolerant(fs, c.Epoch))
		if err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
		if every > 0 && c.Epoch()%int64(every) == 0 {
			if err := c.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "impserve:", err)
				return exitInternal
			}
		}
	}

	// A final checkpoint bounds the next open's replay; the journals alone
	// would recover identically, just more slowly.
	if err := c.Checkpoint(); err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
	printClusterSummary(c, horizon)
	fmt.Printf("fsyncs:      %d\n", fsyncs)
	if interrupted {
		return exitInterrupted
	}
	return exitOK
}

// runServe is the supervised HTTP service: the listener binds first (so
// probes see "alive, not ready" instead of connection refused), then each
// supervisor incarnation recovers the cluster, attaches the control plane,
// and serves until a fatal store error (restart, with backoff) or a
// signal (graceful drain, exit 0). Every /admit routes through placement;
// /state aggregates the shards.
func runServe(fs flags) int {
	if *fs.dir == "" {
		fmt.Fprintln(os.Stderr, "impserve: -listen needs -dir (the service is durable or it is nothing)")
		return exitInvalidInput
	}
	if *fs.tape != "" {
		fmt.Fprintln(os.Stderr, "impserve: -listen and -tape are exclusive; the service admits over HTTP")
		return exitInvalidInput
	}

	ln, err := net.Listen("tcp", *fs.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInvalidInput
	}
	fmt.Printf("listening:   %s\n", ln.Addr())

	// The handler indirection outlives any single incarnation: between
	// restarts (and before the first attach) everything but /healthz is 503.
	var current atomic.Pointer[http.Handler]
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := current.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			if r.URL.Path == "/healthz" {
				fmt.Fprintln(w, "ok")
				return
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error": "restarting"}`, http.StatusServiceUnavailable)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go httpSrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fsyncs := 0
	sup := &serve.Supervisor{
		MaxRestarts: *fs.maxRestarts,
		ResetAfter:  *fs.restartReset,
		OnRestart: func(attempt int, err error, delay time.Duration) {
			fmt.Fprintf(os.Stderr, "impserve: incarnation %d died (%v); restarting in %v\n", attempt, err, delay)
		},
	}
	err = sup.Run(ctx, func(ctx context.Context) error {
		c, err := openCluster(fs, &fsyncs, true)
		if err != nil {
			return err
		}
		defer c.Close()
		fmt.Printf("serving:     %d shards (placement %s)\n", len(c.Shards()), c.Policy().Name())

		srv := cluster.NewServer(cluster.ServeOptions{
			QueueDepth:      *fs.queue,
			EpochInterval:   *fs.epochEvery,
			CheckpointEvery: *fs.ckptEvery,
			CoDelTarget:     *fs.codelTarget,
			StuckOpAfter:    *fs.watchdog,
			Logf:            func(f string, a ...any) { fmt.Fprintf(os.Stderr, "impserve: "+f+"\n", a...) },
		})
		h := srv.Handler()
		current.Store(&h)
		defer current.Store(nil)
		srv.Attach(c)

		select {
		case err := <-srv.Fatal():
			shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(shctx)
			return err
		case <-ctx.Done():
			// Graceful drain: bar the door, apply everything accepted,
			// leave the journals clean. Exit 0 — recovery needs nothing.
			shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(shctx); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			fmt.Printf("drained:     epoch %d\n", c.Epoch())
			fmt.Printf("epochs:      %d\n", c.Epoch())
			fmt.Printf("digest:      %016x\n", c.Digest())
			return nil
		}
	})
	switch {
	case err == nil, errors.Is(err, context.Canceled):
		return exitOK
	case errors.Is(err, serve.ErrRestartBudget):
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitBudget
	default:
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
}
