// Command quickcluster summarizes a CSV point database into data bubbles
// and prints the hierarchical clustering obtained from them: cluster
// sizes, the F-score against the input's label column, and optionally the
// reachability plot (text or PNG) and per-point assignments.
//
// The input format is the one bubblegen and DB.WriteCSV produce:
// a header "id,label,x0,x1,..." followed by one row per point.
//
// Usage:
//
//	bubblegen -kind complex -out db.csv
//	quickcluster -in db.csv -bubbles 100 -minpts 10 -plot -png reach.png
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"incbubbles/internal/cli"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
)

func main() {
	var (
		in        = flag.String("in", "-", "input CSV ('-' for stdin)")
		bubbles   = flag.Int("bubbles", 100, "number of data bubbles")
		minPts    = flag.Int("minpts", 10, "OPTICS MinPts")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "assignment worker pool (0 = GOMAXPROCS; results identical for any value)")
		plotFlag  = flag.Bool("plot", false, "print the reachability plot")
		assign    = flag.Bool("assignments", false, "print id,cluster for every point")
		pngOut    = flag.String("png", "", "write a reachability-plot PNG to this path")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/trace and /debug/pprof on this address while running")
		walDir    = flag.String("wal-dir", "", "persist the summary here (WAL + checkpoints); rerun with the same directory to resume instead of rebuilding")
		ckptEvery = flag.Int("checkpoint-every", 0, "durable checkpoint cadence in batches (0 = default)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run here (plus a flame summary on stderr)")
		traceCap  = flag.Int("trace-cap", 0, "span ring capacity; oldest spans drop beyond it (0 = default)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the summarize phase; a durable summary that
	// reached its initial checkpoint stays resumable via -wal-dir.
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
			fmt.Fprintln(os.Stderr, "quickcluster:", err)
			os.Exit(1)
		}
		defer func() { stop(); <-done }() // drain in-flight scrapes, then exit
		fmt.Fprintf(os.Stderr, "quickcluster: debug endpoint on http://%s/metrics\n", addr)
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quickcluster:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	opts := cli.QuickclusterOptions{
		Bubbles:         *bubbles,
		MinPts:          *minPts,
		Seed:            *seed,
		Workers:         *workers,
		Plot:            *plotFlag,
		Assignments:     *assign,
		PNGOut:          *pngOut,
		WALDir:          *walDir,
		CheckpointEvery: *ckptEvery,
		Telemetry:       sink,
		Tracer:          tracer,
	}
	err := cli.RunQuickcluster(ctx, r, opts, os.Stdout, os.Stderr)
	// Export whatever spans accumulated even when the run failed: the
	// trace is most useful exactly then.
	if xerr := cli.ExportTrace(tracer, *traceOut, os.Stderr); xerr != nil {
		fmt.Fprintln(os.Stderr, "quickcluster: trace export:", xerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickcluster:", err)
		os.Exit(1)
	}
}
