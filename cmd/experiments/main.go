// Command experiments regenerates every reconstructed figure and table of
// the evaluation (see DESIGN.md for the index). Each experiment prints its
// result table to stdout and, with -out, also writes <id>.txt and <id>.csv
// into the output directory.
//
// Campaign replications and sweep points fan out over a bounded worker
// pool (-workers, default GOMAXPROCS). The rendered tables, notes and CSV
// series are byte-identical at every worker count for a fixed seed; only
// wall-clock changes. Per-experiment timing goes to stderr so stdout stays
// a stable artifact.
//
// With -metrics and/or -events the run attaches a telemetry recorder to
// the worker pool — per-job latency, job counts, pool utilization — and
// exports it after the last experiment (CSV, or JSON when the file
// extension is .json). Telemetry never changes the rendered tables or
// CSV series.
//
// Campaign jobs can also shard across worker processes: -shards N
// -worker-cmd ./wrsnworker spawns N local workers (length-prefixed JSON
// over stdin/stdout), while -connect addr1,addr2 dials workers already
// listening (wrsnworker -listen; the same frames over TCP).
// Distributed output is byte-identical to the in-process pool at any
// shard count — a worker killed mid-job fails over to a surviving shard
// and re-runs bit-identically from the spec's seeds.
//
// Usage:
//
//	experiments [-quick] [-seeds N] [-workers N] [-only rfig4] [-out results/]
//	            [-metrics telemetry.csv] [-events events.json]
//	            [-job-timeout 5m] [-job-retries 2]
//	            [-shards N -worker-cmd ./wrsnworker | -connect host1:7601,host2:7601]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"github.com/reprolab/wrsn-csa/internal/cliexport"
	"github.com/reprolab/wrsn-csa/internal/distengine"
	"github.com/reprolab/wrsn-csa/internal/experiments"
	"github.com/reprolab/wrsn-csa/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the CLI against explicit streams. Result tables, notes and
// CSV files are deterministic for a fixed configuration; timing lines go
// to errw only.
func run(ctx context.Context, args []string, stdout, errw io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(errw)
	quick := fs.Bool("quick", false, "shrink sweeps and seed counts for a fast pass")
	seeds := fs.Int("seeds", 0, "seeds per data point (0 = default)")
	workers := fs.Int("workers", 0, "max concurrent campaigns (0 = GOMAXPROCS)")
	only := fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	outDir := fs.String("out", "", "directory to write <id>.txt and <id>.csv into")
	baseSeed := fs.Uint64("seed", 0, "base seed offset for independent replications")
	timing := fs.Bool("timing", true, "print per-experiment timing to stderr")
	jobTimeout := fs.Duration("job-timeout", 0, "per-campaign-job wall-clock bound (0 = none)")
	jobRetries := fs.Int("job-retries", 0, "retries per failed campaign job (re-seeded identically)")
	shards := fs.Int("shards", 0, "spawn this many worker processes and shard campaign jobs across them (needs -worker-cmd)")
	workerCmd := fs.String("worker-cmd", "", "worker binary to spawn per shard (cmd/wrsnworker; exec mode, stdin/stdout)")
	connect := fs.String("connect", "", "comma-separated addresses of listening workers to shard jobs across (TCP mode)")
	var tel cliexport.Telemetry
	tel.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	probe := tel.Probe()
	cfg := experiments.NewConfig(
		experiments.WithQuick(*quick),
		experiments.WithSeeds(*seeds),
		experiments.WithWorkers(*workers),
		experiments.WithBaseSeed(*baseSeed),
		experiments.WithProbe(probe),
		experiments.WithJobTimeout(*jobTimeout),
		experiments.WithJobRetries(*jobRetries),
	)
	pool, err := dialPool(ctx, *shards, *workerCmd, *connect)
	if err != nil {
		return err
	}
	if pool != nil {
		defer pool.Close()
		cfg.Dispatch = pool.Submit
		if cfg.Workers <= 0 {
			// Concurrency follows the fleet, not the local CPU count:
			// each engine slot spends its time waiting on a shard.
			cfg.Workers = pool.Shards()
		}
		fmt.Fprintf(errw, "distributed: %d shard(s)\n", pool.Shards())
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.ByID(id)
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
	}

	// A failed experiment (panicking job, per-job timeout, campaign error)
	// must not cost the other experiments their output: log it, keep
	// going, and exit non-zero at the end. Parent cancellation still
	// aborts the whole run.
	var failed []string
	for _, e := range selected {
		fmt.Fprintf(stdout, "=== %s: %s ===\n", e.ID, e.Title)
		out, err := experiments.Run(ctx, e, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintf(errw, "experiment %s failed: %v\n", e.ID, err)
			fmt.Fprintln(stdout, "(failed — see stderr)")
			fmt.Fprintln(stdout)
			failed = append(failed, e.ID)
			continue
		}
		if err := out.Table.Render(stdout); err != nil {
			return err
		}
		for _, note := range out.Notes {
			fmt.Fprintln(stdout, "note:", note)
		}
		fmt.Fprintln(stdout)
		if *timing {
			printTiming(errw, out)
		}
		if *outDir != "" {
			if err := writeOutputs(*outDir, out); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
	}
	if err := tel.Export(); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d experiment(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// dialPool assembles the distributed worker pool the flags ask for, or
// nil for the classic in-process run. -shards/-worker-cmd spawn local
// worker processes (exec mode); -connect dials workers that are already
// listening (TCP mode). The two modes are mutually exclusive.
func dialPool(ctx context.Context, shards int, workerCmd, connect string) (*distengine.Pool, error) {
	switch {
	case connect != "" && (shards > 0 || workerCmd != ""):
		return nil, fmt.Errorf("-connect is exclusive with -shards/-worker-cmd")
	case connect != "":
		return distengine.Dial(ctx, distengine.DialConfig{
			Addrs:        strings.Split(connect, ","),
			CrashRetries: -1,
		})
	case shards > 0 && workerCmd == "":
		return nil, fmt.Errorf("-shards needs -worker-cmd (the worker binary, e.g. a built cmd/wrsnworker)")
	case shards <= 0 && workerCmd != "":
		return nil, fmt.Errorf("-worker-cmd needs -shards ≥ 1")
	case shards > 0:
		return distengine.NewExecPool(ctx, distengine.ExecConfig{
			Shards:       shards,
			Command:      workerCmd,
			CrashRetries: -1,
		})
	default:
		return nil, nil
	}
}

// printTiming reports wall-clock telemetry on the error stream, keeping
// stdout byte-identical across worker counts and machines.
func printTiming(w io.Writer, out *experiments.Output) {
	fmt.Fprintf(w, "[timing] %s: wall=%s workers=%d\n",
		out.ID, out.Timing.Wall.Round(time.Millisecond), out.Timing.Workers)
	for _, p := range out.Timing.Points {
		fmt.Fprintf(w, "[timing]   %-24s %s\n", p.Label, p.Elapsed.Round(time.Millisecond))
	}
}

func writeOutputs(dir string, out *experiments.Output) error {
	txt, err := os.Create(filepath.Join(dir, out.ID+".txt"))
	if err != nil {
		return err
	}
	defer func() { _ = txt.Close() }()
	if err := out.Table.Render(txt); err != nil {
		return err
	}
	for _, note := range out.Notes {
		if _, err := fmt.Fprintln(txt, "note:", note); err != nil {
			return err
		}
	}
	if len(out.Series) == 0 {
		return nil
	}
	csv, err := os.Create(filepath.Join(dir, out.ID+".csv"))
	if err != nil {
		return err
	}
	defer func() { _ = csv.Close() }()
	return report.WriteCSV(csv, out.XName, out.Series...)
}
