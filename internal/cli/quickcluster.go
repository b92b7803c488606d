package cli

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"

	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/eval"
	"incbubbles/internal/extract"
	"incbubbles/internal/optics"
	"incbubbles/internal/plot"
	"incbubbles/internal/stats"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// QuickclusterOptions parameterises a one-shot summarize+cluster run.
type QuickclusterOptions struct {
	Bubbles     int
	MinPts      int
	Seed        int64
	Workers     int    // assignment/space worker pool (≤0 = GOMAXPROCS)
	Plot        bool   // print the text reachability plot
	Assignments bool   // print id,cluster rows
	PNGOut      string // write a reachability-plot PNG here
	// WALDir, when non-empty, makes the summary durable: a fresh run
	// persists the database and built bubbles there (WAL + checkpoint),
	// and a rerun pointing at the same directory resumes them instead of
	// re-reading and re-summarizing the input. Seed and Bubbles must match
	// the original run when resuming.
	WALDir string
	// CheckpointEvery is the durable checkpoint cadence (≤0 = wal default).
	CheckpointEvery int
	// Telemetry optionally receives build/cluster metrics (and is what a
	// -debug-addr endpoint serves). Instrumentation never changes results.
	Telemetry *telemetry.Sink
	// Tracer optionally records hierarchical spans of the build, the WAL
	// and the clustering (and is what -trace exports). Like Telemetry it
	// never changes results.
	Tracer *trace.Tracer
}

func (opts QuickclusterOptions) coreOptions(numBubbles int, counter *vecmath.Counter) core.Options {
	return core.Options{
		NumBubbles:            numBubbles,
		UseTriangleInequality: true,
		Seed:                  opts.Seed,
		Counter:               counter,
		Telemetry:             opts.Telemetry,
		Tracer:                opts.Tracer,
		Config:                core.Config{Workers: opts.Workers},
	}
}

func (opts QuickclusterOptions) walOptions() wal.Options {
	return wal.Options{Dir: opts.WALDir, CheckpointEvery: opts.CheckpointEvery,
		Telemetry: opts.Telemetry, Tracer: opts.Tracer}
}

// RunQuickcluster reads a CSV database from in, summarizes and clusters
// it, and reports on stdout (progress notes on stderr). With WALDir set
// the summary is durable — see QuickclusterOptions.WALDir. ctx cancels
// the build phase; clustering a built summary runs to completion.
func RunQuickcluster(ctx context.Context, in io.Reader, opts QuickclusterOptions, stdout, stderr io.Writer) error {
	var (
		db      *dataset.DB
		set     *bubble.Set
		counter vecmath.Counter
	)
	switch {
	case opts.WALDir != "" && wal.HasState(opts.WALDir):
		st, err := wal.Resume(opts.coreOptions(opts.Bubbles, &counter), opts.walOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "quickcluster: resumed %d points from %s (%d batches replayed)\n",
			st.DB.Len(), opts.WALDir, st.Replayed)
		db, set = st.DB, st.Summarizer.Set()
		defer st.Log.Close()
	case opts.WALDir != "":
		var err error
		db, err = dataset.ReadCSV(bufio.NewReader(in))
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		numBubbles := opts.Bubbles
		if db.Len() < numBubbles {
			numBubbles = db.Len()
		}
		s, l, err := wal.New(db, opts.coreOptions(numBubbles, &counter), opts.walOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "quickcluster: summary persisted to %s\n", opts.WALDir)
		set = s.Set()
		defer l.Close()
	default:
		var err error
		db, err = dataset.ReadCSV(bufio.NewReader(in))
		if err != nil {
			return err
		}
		numBubbles := opts.Bubbles
		if db.Len() < numBubbles {
			numBubbles = db.Len()
		}
		set, err = bubble.BuildContext(ctx, db, numBubbles, bubble.Options{
			UseTriangleInequality: true,
			RNG:                   stats.NewRNG(opts.Seed),
			Workers:               opts.Workers,
			Counter:               &counter,
			Tracer:                opts.Tracer,
		})
		if err != nil {
			return err
		}
	}
	if opts.Telemetry != nil {
		opts.Telemetry.Counter(telemetry.MetricDistanceComputed).Add(counter.Computed())
		opts.Telemetry.Counter(telemetry.MetricDistancePruned).Add(counter.Pruned())
	}
	space, err := optics.NewBubbleSpaceTelemetry(set, opts.Workers, opts.Telemetry, opts.Tracer)
	if err != nil {
		return err
	}
	res, err := optics.Run(space, optics.Params{MinPts: opts.MinPts, Sink: opts.Telemetry, Tracer: opts.Tracer})
	if err != nil {
		return err
	}
	labels := extract.ExtractTree(res.Order, extract.Params{})
	points, err := eval.PointLabels(set, res, labels)
	if err != nil {
		return err
	}

	clusterSizes := map[int]int{}
	for _, l := range points {
		clusterSizes[l]++
	}
	var ids []int
	for l := range clusterSizes {
		if l != eval.Noise {
			ids = append(ids, l)
		}
	}
	sort.Ints(ids)
	fmt.Fprintf(stdout, "points=%d dim=%d bubbles=%d clusters=%d noise=%d\n",
		db.Len(), db.Dim(), set.Len(), len(ids), clusterSizes[eval.Noise])
	for _, l := range ids {
		fmt.Fprintf(stdout, "  cluster %d: %d points\n", l, clusterSizes[l])
	}
	if truth, flat := eval.AlignWithDB(db, points); len(truth) > 0 {
		if f, err := eval.FScore(truth, flat); err == nil {
			fmt.Fprintf(stdout, "F-score vs label column: %.4f\n", f)
		}
	}
	if opts.Plot {
		fmt.Fprintln(stdout, "\nreachability plot (bubble-level):")
		if err := res.WritePlot(stdout, 60); err != nil {
			return err
		}
	}
	if opts.Assignments {
		w := bufio.NewWriter(stdout)
		fmt.Fprintln(w, "id,cluster")
		recs := db.Snapshot()
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		for _, rec := range recs {
			fmt.Fprintf(w, "%d,%d\n", rec.ID, points[rec.ID])
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if opts.PNGOut != "" {
		f, err := os.Create(opts.PNGOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := plot.Reachability(f, res.Order, labels, 0, 0); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "quickcluster: wrote %s\n", opts.PNGOut)
	}
	return nil
}
