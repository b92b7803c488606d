package incbubbles

import (
	"io"

	"incbubbles/internal/approx"
	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/eval"
	"incbubbles/internal/extract"
	"incbubbles/internal/kmeans"
	"incbubbles/internal/linkage"
	"incbubbles/internal/optics"
	"incbubbles/internal/plot"
	"incbubbles/internal/stats"
	"incbubbles/internal/stream"
	"incbubbles/internal/synth"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// Core data types, re-exported for downstream use.
type (
	// Point is a dense d-dimensional vector.
	Point = vecmath.Point
	// DB is the dynamic point database data bubbles summarize.
	DB = dataset.DB
	// PointID identifies a point for its lifetime in a DB.
	PointID = dataset.PointID
	// Record is one database point with its label.
	Record = dataset.Record
	// Update is one insertion or deletion.
	Update = dataset.Update
	// Batch is an ordered sequence of updates.
	Batch = dataset.Batch
	// DistanceCounter counts distance computations and prunes.
	DistanceCounter = vecmath.Counter

	// Bubble is one data bubble.
	Bubble = bubble.Bubble
	// BubbleSet is a set of data bubbles over one database.
	BubbleSet = bubble.Set
	// BubbleOptions configures bubble construction.
	BubbleOptions = bubble.Options

	// Summarizer incrementally maintains data bubbles (the paper's
	// contribution).
	Summarizer = core.Summarizer
	// SummarizerOptions configures NewSummarizer.
	SummarizerOptions = core.Options
	// SummarizerConfig tunes the maintenance scheme.
	SummarizerConfig = core.Config
	// BatchStats reports what one maintenance pass did.
	BatchStats = core.BatchStats
	// Classification is one quality assessment of all bubbles.
	Classification = core.Classification

	// Scenario generates a dynamic synthetic workload.
	Scenario = synth.Scenario
	// ScenarioConfig parameterises a Scenario.
	ScenarioConfig = synth.Config
	// ScenarioKind selects the dynamics (Random, Appear, ...).
	ScenarioKind = synth.Kind

	// OPTICSResult is a cluster ordering (reachability plot).
	OPTICSResult = optics.Result
	// OPTICSEntry is one bar of the reachability plot.
	OPTICSEntry = optics.Entry
	// ExtractParams tunes reachability-plot cluster extraction.
	ExtractParams = extract.Params
)

// Update operations.
const (
	OpInsert = dataset.OpInsert
	OpDelete = dataset.OpDelete
	// Noise is the label of unclustered points.
	Noise = dataset.Noise
)

// Scenario kinds (the dynamic workloads of the paper's evaluation).
const (
	ScenarioRandom        = synth.Random
	ScenarioAppear        = synth.Appear
	ScenarioExtremeAppear = synth.ExtremeAppear
	ScenarioDisappear     = synth.Disappear
	ScenarioGradmove      = synth.Gradmove
	ScenarioComplex       = synth.Complex
)

// Quality measures for bubble classification.
const (
	MeasureBeta   = core.MeasureBeta
	MeasureExtent = core.MeasureExtent
)

// NewDB creates an empty dynamic database for d-dimensional points. It
// panics for d ≤ 0, mirroring make's behaviour for impossible requests.
func NewDB(d int) *DB { return dataset.MustNew(d) }

// NewScenario builds a synthetic dynamic workload.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) { return synth.NewScenario(cfg) }

// NewSummarizer builds initial data bubbles over db from scratch and
// returns the incremental maintainer. Feed it the applied batches of every
// subsequent update to the database.
func NewSummarizer(db *DB, opts SummarizerOptions) (*Summarizer, error) {
	if !opts.UseTriangleInequality {
		// The paper's scheme always assigns with triangle-inequality
		// pruning (§3); expose the flag but default it on.
		opts.UseTriangleInequality = true
	}
	return core.New(db, opts)
}

// BuildBubbles constructs a set of data bubbles from scratch — the
// "complete rebuild" baseline of the paper, and the way to summarize a
// static database.
func BuildBubbles(db *DB, numBubbles int, opts BubbleOptions) (*BubbleSet, error) {
	return bubble.Build(db, numBubbles, opts)
}

// ClusterOptions configures ClusterBubbles.
type ClusterOptions struct {
	// MinPts is the OPTICS density parameter, counted in points (bubbles
	// contribute their populations). Default 10.
	MinPts int
	// Eps truncates the OPTICS neighbourhood; 0 means unbounded.
	Eps float64
	// Extract tunes the cluster-tree extraction.
	Extract ExtractParams
	// Workers bounds the worker pool of the bubble-space precomputation
	// (pairwise distances and neighbour orders). ≤0 selects GOMAXPROCS;
	// the clustering is identical for every setting.
	Workers int
}

// Clustering is a hierarchical clustering derived from data bubbles: the
// reachability plot, the per-entry cluster labels, and the per-point
// labels obtained by expanding each bubble's membership.
type Clustering struct {
	// Result is the OPTICS cluster ordering over the bubbles.
	Result *OPTICSResult
	// EntryLabels is the extracted cluster label per ordering entry
	// (Noise for entries outside every cluster).
	EntryLabels []int
	// PointLabels maps every summarized point to its cluster label.
	PointLabels map[PointID]int
}

// NumClusters returns the number of distinct extracted clusters.
func (c *Clustering) NumClusters() int {
	seen := map[int]bool{}
	for _, l := range c.EntryLabels {
		if l != Noise {
			seen[l] = true
		}
	}
	return len(seen)
}

// ClusterBubbles runs OPTICS over the bubbles of set, extracts clusters
// from the reachability plot with the cluster-tree method, and maps the
// result down to the summarized points.
func ClusterBubbles(set *BubbleSet, opts ClusterOptions) (*Clustering, error) {
	if opts.MinPts == 0 {
		opts.MinPts = 10
	}
	space, err := optics.NewBubbleSpaceWorkers(set, opts.Workers)
	if err != nil {
		return nil, err
	}
	res, err := optics.Run(space, optics.Params{MinPts: opts.MinPts, Eps: opts.Eps})
	if err != nil {
		return nil, err
	}
	labels := extract.ExtractTree(res.Order, opts.Extract)
	points, err := eval.PointLabels(set, res, labels)
	if err != nil {
		return nil, err
	}
	return &Clustering{Result: res, EntryLabels: labels, PointLabels: points}, nil
}

// FScore computes the clustering F-score of a point labelling against the
// ground-truth labels stored in db (F = 2pr/(p+r), best-match weighted).
func FScore(db *DB, found map[PointID]int) (float64, error) {
	truth, flat := eval.AlignWithDB(db, found)
	return eval.FScore(truth, flat)
}

// NewRNG returns the library's seeded random generator, for callers that
// want reproducible sampling alongside the summarizer.
func NewRNG(seed int64) *stats.RNG { return stats.NewRNG(seed) }

// Streaming types (the paper's §6 "compressing data streams" extension).
type (
	// StreamWindow maintains incremental data bubbles over a sliding
	// window of a point stream.
	StreamWindow = stream.Window
	// StreamConfig parameterises a StreamWindow.
	StreamConfig = stream.Config
)

// NewStreamWindow creates a sliding-window stream summarizer.
func NewStreamWindow(cfg StreamConfig) (*StreamWindow, error) { return stream.NewWindow(cfg) }

// Telemetry types (observability and invariant auditing, DESIGN.md §8).
// Pass a TelemetrySink via SummarizerOptions.Telemetry to collect
// metrics; set SummarizerOptions.Audit to validate the summary
// invariants after every maintenance phase. Both are strict observers:
// results are bit-identical with or without them.
type (
	// TelemetrySink is the metrics registry instrumented code reports
	// into.
	TelemetrySink = telemetry.Sink
	// AuditViolation is one invariant violation an audit pass found.
	AuditViolation = telemetry.Violation
)

// NewTelemetrySink creates a sink with a fresh metrics registry.
func NewTelemetrySink() *TelemetrySink { return telemetry.NewSink() }

// AuditBubbles validates the summary invariants of set against the
// expected total point count and returns any violations (nil when the
// summary is consistent). It never panics and computes its distances
// outside the instrumented counters.
func AuditBubbles(set *BubbleSet, totalPoints int) []AuditViolation {
	return telemetry.Audit(set, totalPoints)
}

// Tracing types (hierarchical span tracing, DESIGN.md §11). Pass a Tracer
// via SummarizerOptions.Tracer to record batch → phase → operation spans
// with distance-work attributes. Like the telemetry sink it is a strict
// observer: results are bit-identical with or without it, and a nil
// *Tracer disables all recording at negligible cost.
type (
	// Tracer records hierarchical spans into a bounded ring.
	Tracer = trace.Tracer
	// TracerOptions sizes the span ring and injects a test clock.
	TracerOptions = trace.Options
	// TraceSpan is one in-flight span; End commits it to the ring.
	TraceSpan = trace.Span
	// TraceRecord is one completed span as retained by the ring.
	TraceRecord = trace.Record
)

// NewTracer creates a span tracer (zero options select the defaults).
func NewTracer(opts TracerOptions) *Tracer { return trace.New(opts) }

// WriteChromeTrace writes completed spans as Chrome trace-event JSON,
// loadable in chrome://tracing or ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, recs []TraceRecord) error { return trace.WriteChrome(w, recs) }

// WriteFlameSummary writes completed spans as an aggregated plain-text
// flame view (spans, wall time and distance work per call path).
func WriteFlameSummary(w io.Writer, recs []TraceRecord) error { return trace.WriteFlame(w, recs) }

// SaveBubbles serializes a bubble set as JSON so a maintained summary
// survives process restarts; LoadBubbles restores it.
func SaveBubbles(set *BubbleSet, w io.Writer) error { return set.Save(w) }

// LoadBubbles restores a bubble set written by SaveBubbles.
func LoadBubbles(r io.Reader) (*BubbleSet, error) { return bubble.Load(r, bubble.Options{}) }

// RenderReachability writes the clustering's reachability plot as a PNG
// (bars coloured by extracted cluster).
func (c *Clustering) RenderReachability(w io.Writer, width, height int) error {
	return plot.Reachability(w, c.Result.Order, c.EntryLabels, width, height)
}

// RenderScatter writes a 2-d scatter PNG of db coloured by the given
// point labels (pass a Clustering's PointLabels, or nil for ground truth).
func RenderScatter(w io.Writer, db *DB, labels map[PointID]int, width, height int) error {
	return plot.Scatter(w, db, labels, width, height)
}

// RenderBubbles writes a 2-d PNG of the non-empty bubbles of set —
// representative dots with extent circles — over an optional database
// backdrop.
func RenderBubbles(w io.Writer, db *DB, set *BubbleSet, width, height int) error {
	var reps []Point
	var extents []float64
	for _, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		reps = append(reps, b.Rep())
		extents = append(extents, b.Extent())
	}
	return plot.Bubbles(w, db, reps, extents, nil, width, height)
}

// MacroCluster partitions the database into k groups by running weighted
// k-means over the bubble representatives (each weighted by its
// population) and fanning the result out to the member points — the
// partitioning consumer of data summaries (micro-to-macro clustering).
func MacroCluster(set *BubbleSet, k int, seed int64) (map[PointID]int, error) {
	var pts []Point
	var weights []float64
	var owners [][]PointID
	for _, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		pts = append(pts, b.Rep())
		weights = append(weights, float64(b.N()))
		owners = append(owners, b.MemberIDs())
	}
	res, err := kmeans.Cluster(pts, weights, kmeans.Config{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make(map[PointID]int)
	for i, label := range res.Labels {
		for _, id := range owners[i] {
			out[id] = label
		}
	}
	return out, nil
}

// QueryBox is an axis-aligned range for approximate counting.
type QueryBox = approx.Box

// EstimateRangeCount approximates how many summarized points lie in box,
// from the bubbles alone (§1's "approximating the number of objects in a
// database within certain attribute ranges of interest").
func EstimateRangeCount(set *BubbleSet, box QueryBox, seed int64) (float64, error) {
	return approx.RangeCount(set, box, 0, seed)
}

// EstimateMean returns the exact global mean derived from the summaries.
func EstimateMean(set *BubbleSet) (Point, error) { return approx.Mean(set) }

// EstimateTotalVariance returns the exact trace of the global covariance
// derived from the summaries.
func EstimateTotalVariance(set *BubbleSet) (float64, error) { return approx.TotalVariance(set) }

// Dendrogram is a single-link merge hierarchy over weighted objects.
type Dendrogram = linkage.Dendrogram

// SingleLinkBubbles builds the single-link dendrogram of the non-empty
// bubbles of set, under the same corrected bubble distances OPTICS uses.
// The i-th dendrogram leaf corresponds to the i-th non-empty bubble in
// set order. Cut it by height or target cluster count for a flat
// clustering — the Single-Link consumer the paper's introduction names.
func SingleLinkBubbles(set *BubbleSet) (*Dendrogram, error) {
	space, err := optics.NewBubbleSpace(set)
	if err != nil {
		return nil, err
	}
	return linkage.NewFromMatrix(space.DistanceMatrix(), space.Weights())
}

// Durability: write-ahead logging and checkpointing (internal/wal).
type (
	// WALOptions configures the durability layer: directory, checkpoint
	// cadence, retention, sync policy.
	WALOptions = wal.Options
	// WAL is the write-ahead log of one Summarizer; it implements the
	// summarizer's durability hooks and takes automatic checkpoints.
	WAL = wal.Log
	// RecoveredState is what ResumeSummarizer reconstructs from disk.
	RecoveredState = wal.RecoveredState
)

// ErrNoDurableState signals a resume against a directory with no
// checkpoint — create a fresh summarizer with NewDurableSummarizer.
var ErrNoDurableState = wal.ErrNoState

// NewDurableSummarizer is NewSummarizer plus crash safety: every applied
// batch is written ahead to a log in walOpts.Dir and checkpoints are
// taken automatically, so the summary survives process crashes. The
// returned WAL must be Closed when done; ResumeSummarizer reopens the
// directory after a crash.
func NewDurableSummarizer(db *DB, opts SummarizerOptions, walOpts WALOptions) (*Summarizer, *WAL, error) {
	if !opts.UseTriangleInequality {
		opts.UseTriangleInequality = true
	}
	return wal.New(db, opts, walOpts)
}

// ResumeSummarizer reconstructs a durable summarizer from walOpts.Dir:
// newest usable checkpoint plus deterministic WAL replay. opts must carry
// the same Seed and Config as the original run.
func ResumeSummarizer(opts SummarizerOptions, walOpts WALOptions) (*RecoveredState, error) {
	if !opts.UseTriangleInequality {
		opts.UseTriangleInequality = true
	}
	return wal.Resume(opts, walOpts)
}

// HasDurableState reports whether dir holds a resumable summary.
func HasDurableState(dir string) bool { return wal.HasState(dir) }

// ResumeStreamWindow reopens a durable StreamWindow from
// cfg.Durability.Dir after a crash or clean Close.
func ResumeStreamWindow(cfg StreamConfig) (*StreamWindow, error) { return stream.Resume(cfg) }
