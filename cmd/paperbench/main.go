// Command paperbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	paperbench table1
//	paperbench table2 -hp 10000          # the paper's 10K hyper-periods
//	paperbench fig3
//	paperbench table3
//	paperbench fig4
//	paperbench table4
//	paperbench fig5
//	paperbench all -hp 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"nprt/internal/cli"
	"nprt/internal/experiments"
)

func main() {
	// Exit via a helper so the profile-flushing defers run before the
	// process terminates.
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("paperbench", flag.ExitOnError)
	hp := fs.Int("hp", 300, "hyper-periods per simulation (paper: 10000)")
	seed := fs.Uint64("seed", 1, "root random seed")
	csvDir := fs.String("csv", "", "also write machine-readable CSV files into this directory")
	par := fs.Bool("parallel", runtime.NumCPU() > 1,
		"run per-case simulations concurrently (default: on whenever >1 CPU; results are identical to serial)")
	ilpWorkers := fs.Int("ilpworkers", runtime.NumCPU(),
		"LP-relaxation workers inside each offline ILP branch-and-bound (results are bit-identical at any setting)")
	events := fs.Int("events", 10000, "churn artifact: admission events per soak tape")
	replicas := fs.Int("replicas", 0, "chaos artifact: synchronous followers per shard (0 = unreplicated)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	fs.Usage = usage

	if len(os.Args) < 2 {
		usage()
		return 2
	}
	what := os.Args[1]
	if err := fs.Parse(os.Args[2:]); err != nil {
		return 2
	}
	cfg := experiments.Config{Hyperperiods: *hp, Seed: *seed, Parallel: *par, ILPWorkers: *ilpWorkers}
	churnEvents = *events
	chaosReplicas = *replicas

	// First SIGINT/SIGTERM: finish the artifact in flight (its CSV is
	// already flushed per artifact), skip the rest, exit 4. Second: abort.
	interrupted := cli.Interrupted()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accurate allocation stats before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperbench:", err)
			}
		}()
	}

	artifacts := []string{what}
	if what == "all" {
		artifacts = []string{"table1", "table2", "fig3", "table3", "fig4", "table4", "fig5", "overhead", "energy"}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			return 1
		}
	}
	for i, a := range artifacts {
		if interrupted() {
			fmt.Fprintf(os.Stderr, "paperbench: interrupted; skipping %v\n", artifacts[i:])
			return cli.ExitInterrupted
		}
		if i > 0 {
			fmt.Println()
		}
		if err := emit(a, cfg, *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench %s: %v\n", a, err)
			return 1
		}
	}
	if interrupted() {
		// The signal arrived inside the last artifact: its output is
		// complete, but the exit code still reports the cut.
		return cli.ExitInterrupted
	}
	return 0
}

// churnEvents is the -events flag, plumbed to the churn artifact.
var churnEvents int

// chaosReplicas is the -replicas flag, plumbed to the chaos artifact.
var chaosReplicas int

// writeCSV writes one artifact's CSV file when a directory was requested.
func writeCSV(dir, name string, write func(f *os.File) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func emit(what string, cfg experiments.Config, csvDir string) error {
	switch what {
	case "table1":
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable1(rows))
		return writeCSV(csvDir, "table1.csv", func(f *os.File) error {
			return experiments.WriteTable1CSV(f, rows)
		})
	case "table2":
		res, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable2(res))
		return writeCSV(csvDir, "table2.csv", func(f *os.File) error {
			return experiments.WriteTable2CSV(f, res)
		})
	case "fig3":
		res, err := experiments.Fig3(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig("FIGURE 3. MEAN ERROR VERSUS UTILIZATION", res))
		return writeCSV(csvDir, "fig3.csv", func(f *os.File) error {
			return experiments.WriteFigCSV(f, res)
		})
	case "table3":
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable3(rows))
		return writeCSV(csvDir, "table3.csv", func(f *os.File) error {
			return experiments.WriteTable3CSV(f, rows)
		})
	case "fig4":
		res, err := experiments.Fig4(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig4(res))
		return writeCSV(csvDir, "fig4.csv", func(f *os.File) error {
			return experiments.WriteFig4CSV(f, res)
		})
	case "table4":
		infos, err := experiments.Table4()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable4(infos))
		return writeCSV(csvDir, "table4.json", func(f *os.File) error {
			return experiments.WriteJSON(f, infos)
		})
	case "fig5":
		res, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFig("FIGURE 5. PROTOTYPE MEAN ERROR VERSUS UTILIZATION", res))
		return writeCSV(csvDir, "fig5.csv", func(f *os.File) error {
			return experiments.WriteFigCSV(f, res)
		})
	case "overhead":
		rows, err := experiments.Overhead("Rnd9", cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatOverhead("Rnd9", rows))
		return writeCSV(csvDir, "overhead.json", func(f *os.File) error {
			return experiments.WriteJSON(f, rows)
		})
	case "robustness":
		r, err := experiments.Robustness(cfg, []uint64{1, 2, 3, 4, 5})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatRobustness(r))
		return writeCSV(csvDir, "robustness.json", func(f *os.File) error {
			return experiments.WriteJSON(f, r)
		})
	case "ilp":
		rows, err := experiments.ILPBench(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatILPBench(rows))
		return writeCSV(csvDir, "ilp.json", func(f *os.File) error {
			return experiments.WriteJSON(f, rows)
		})
	case "faults":
		r, err := experiments.FaultSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFaults(r))
		if err := writeCSV(csvDir, "faults.json", func(f *os.File) error {
			return experiments.WriteJSON(f, r)
		}); err != nil {
			return err
		}
		return writeCSV(csvDir, "faults.csv", func(f *os.File) error {
			return experiments.WriteFaultsCSV(f, r)
		})
	case "churn":
		r, err := experiments.ChurnSoak(cfg, churnEvents, 2)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatChurn(r))
		if err := writeCSV(csvDir, "churn.json", func(f *os.File) error {
			return experiments.WriteJSON(f, r)
		}); err != nil {
			return err
		}
		return writeCSV(csvDir, "churn.csv", func(f *os.File) error {
			return experiments.WriteChurnCSV(f, r)
		})
	case "chaos", "gray":
		faults := experiments.ChaosFaults
		if what == "gray" {
			faults = experiments.GrayFaults
		}
		dir, err := os.MkdirTemp("", "paperbench-"+what+"-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		r, err := experiments.Soak(cfg, dir, churnEvents, nil, "", chaosReplicas, faults)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatSoak(r))
		if err := writeCSV(csvDir, what+".json", func(f *os.File) error {
			return experiments.WriteJSON(f, r)
		}); err != nil {
			return err
		}
		return writeCSV(csvDir, what+".csv", func(f *os.File) error {
			return experiments.WriteSoakCSV(f, r)
		})
	case "energy":
		rows, err := experiments.Energy("Rnd8", cfg)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatEnergy("Rnd8", rows))
		return writeCSV(csvDir, "energy.json", func(f *os.File) error {
			return experiments.WriteJSON(f, rows)
		})
	default:
		return fmt.Errorf("unknown artifact %q", what)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `paperbench regenerates the paper's evaluation artifacts.

usage: paperbench <artifact> [-hp N] [-seed S] [-parallel=bool] [-csv DIR]
                  [-ilpworkers N] [-cpuprofile FILE] [-memprofile FILE]

artifacts:
  table1   testcase characteristics and schedulability
  table2   independent-error simulation results
  fig3     mean error versus utilization
  table3   cumulative-error stress tests
  fig4     DP(C) pruning effectiveness
  table4   Newton-Raphson task profiles
  fig5     prototype mean error versus utilization
  overhead measured scheduling overhead (the paper's runtime remarks)
  energy   busy-time (energy) versus error tradeoff per method
  robustness  Table II normalized ordering across seeds
  ilp      offline mode-ILP solver bench (fixed node budget, per-case timing)
  faults   overrun-containment fault sweep (miss rate and error vs. overrun
           probability/magnitude per containment policy)
  churn    long-running runtime churn soak (-events admission events per
           tape, zero-clean-miss and digest checks)
  chaos    cluster chaos soak (-events churn events under seeded shard
           kills, wedge-evacuations and storage faults; soak invariants
           checked after every tick, per-tick digest reproducibility)
  gray     cluster gray-failure soak (-events churn events under seeded
           drive brownouts; latency-SLO detection, deadline sheds and
           proactive promotion versus a blind control drive, with the
           same per-tick invariant and digest checks)
  all      everything above (except ilp, faults, churn, chaos and gray)

SIGINT/SIGTERM finishes the artifact in flight, keeps the CSVs already
written, and exits with code 4; a second signal aborts immediately.

-parallel fans independent per-case simulations over all CPUs (the default
on multi-core machines); outputs are bit-identical to a serial run.
-ilpworkers parallelizes LP relaxation solves inside each offline ILP
branch-and-bound (default: all CPUs); solver output is bit-identical at any
worker count.

profiling a run:
  paperbench table2 -hp 10000 -cpuprofile cpu.out -memprofile mem.out
  go tool pprof -top cpu.out      # where the time goes
  go tool pprof -top mem.out      # what allocates
`)
}
