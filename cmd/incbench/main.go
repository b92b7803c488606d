// Command incbench regenerates the paper's evaluation — Table 1 and
// Figures 7–11 — plus the extra experiments (summarization comparison,
// design-knob ablation, strategy-1-vs-strategy-2 comparison). Each
// experiment prints the rows or series the paper reports; absolute values
// depend on scale (-points/-reps) but the qualitative shapes do not.
//
// Usage:
//
//	incbench -experiment table1            # F-score + compactness table
//	incbench -experiment fig7              # extent vs β quality measure
//	incbench -experiment fig8 -csvdir out  # complex-scenario snapshots
//	incbench -experiment fig9|fig10|fig11  # update-size sweeps
//	incbench -experiment compare           # bubbles vs CFs vs sample vs raw
//	incbench -experiment ablation          # maintenance design knobs
//	incbench -experiment strategies        # vs IncrementalDBSCAN
//	incbench -experiment all
//
// Paper scale: -points 100000 -reps 10 (slow); defaults run in seconds.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"incbubbles/internal/cli"
	"incbubbles/internal/experiments"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1 | fig7 | fig8 | fig9 | fig10 | fig11 | sweep | compare | ablation | strategies | recovery | all")
		points     = flag.Int("points", 10000, "initial database size")
		bubbles    = flag.Int("bubbles", 100, "number of data bubbles")
		reps       = flag.Int("reps", 3, "repetitions to average over (paper: 10)")
		batches    = flag.Int("batches", 10, "update batches per run")
		updateFrac = flag.Float64("update", 0.10, "batch size as a fraction of the database")
		minPts     = flag.Int("minpts", 10, "OPTICS MinPts")
		prob       = flag.Float64("p", 0.9, "Chebyshev containment probability")
		seed       = flag.Int64("seed", 1, "base random seed")
		fracs      = flag.String("fracs", "0.02,0.04,0.06,0.08,0.10", "update fractions for the fig9-11 sweep")
		csvDir     = flag.String("csvdir", "", "directory for fig8 per-batch CSV snapshots")
		datasets   = flag.String("datasets", "", "comma-separated Table 1 dataset names (default: all eleven)")
		everyBatch = flag.Bool("evalEveryBatch", false, "average Table 1 quality over every batch instead of final state")
		workers    = flag.Int("workers", 0, "concurrent repetitions (0 = GOMAXPROCS)")
		audit      = flag.Bool("audit", false, "validate summary invariants after every batch; any violation aborts the run")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/trace and /debug/pprof on this address while running")
		walDir     = flag.String("wal-dir", "", "recovery experiment: host its WAL/checkpoint directories here (default: temp)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "recovery experiment: checkpoint cadence in batches (0 = default)")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run here (plus a flame summary on stderr)")
		traceCap   = flag.Int("trace-cap", 0, "span ring capacity; oldest spans drop beyond it (0 = default)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run at the next batch boundary; durable
	// state (the recovery experiment's WAL) stays resumable by design.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tracer *trace.Tracer
	if *traceOut != "" || *debugAddr != "" {
		tracer = trace.New(trace.Options{Capacity: *traceCap})
	}
	var sink *telemetry.Sink
	if *debugAddr != "" {
		sink = telemetry.NewSink()
		addr, done, err := telemetry.ServeDebug(ctx, *debugAddr, sink, tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "incbench:", err)
			os.Exit(1)
		}
		defer func() { stop(); <-done }() // drain in-flight scrapes, then exit
		fmt.Fprintf(os.Stderr, "incbench: debug endpoint on http://%s/metrics\n", addr)
	}

	opts := cli.IncbenchOptions{
		Experiment: *experiment,
		Config: experiments.Config{
			Points:         *points,
			Bubbles:        *bubbles,
			Reps:           *reps,
			Batches:        *batches,
			UpdateFraction: *updateFrac,
			MinPts:         *minPts,
			Probability:    *prob,
			Seed:           *seed,
			EvalEveryBatch: *everyBatch,
			Workers:        *workers,
			Audit:          *audit,
			Telemetry:      sink,
			Tracer:         tracer,
		},
		Fracs:           *fracs,
		CSVDir:          *csvDir,
		Datasets:        *datasets,
		WALDir:          *walDir,
		CheckpointEvery: *ckptEvery,
	}
	err := cli.RunIncbench(ctx, opts, os.Stdout)
	// Export whatever spans accumulated even when the run failed: the
	// trace is most useful exactly then.
	if xerr := cli.ExportTrace(tracer, *traceOut, os.Stderr); xerr != nil {
		fmt.Fprintln(os.Stderr, "incbench: trace export:", xerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "incbench:", err)
		os.Exit(1)
	}
}
