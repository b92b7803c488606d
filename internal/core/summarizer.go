// Package core implements the paper's contribution: incremental maintenance
// of a fixed-size set of data bubbles over a dynamic database (§4).
//
// After every batch of insertions and deletions the sufficient statistics
// of the affected bubbles are incremented/decremented (Figure 3), the
// data summarization index β = n/N of every bubble is classified against
// Chebyshev bounds on the β distribution (Definitions 2–3), and the
// over-filled bubbles — those degrading compression quality the most — are
// rebuilt with synchronized merge and split operations that recycle
// under-filled bubbles (Figure 6, §4.2).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/failpoint"
	"incbubbles/internal/parallel"
	"incbubbles/internal/stats"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
)

// Durability receives the write-ahead hooks of a durability layer
// (internal/wal) around every applied batch. BeforeApply is called after
// the read-only phase-1 searches but before the first mutation: a
// non-nil error aborts the batch with the summary unchanged, which is
// what makes write-ahead logging sound — a batch is never applied unless
// it is on stable storage first. AfterApply is called once the batch has
// fully applied (or failed mid-mutation, with that error), and is where
// the layer schedules checkpoints.
type Durability interface {
	BeforeApply(ctx context.Context, ordinal uint64, batch dataset.Batch) error
	AfterApply(ctx context.Context, s *Summarizer, applyErr error) error
}

// Failpoints of the apply path, evaluated on every batch when a registry
// is armed via Options.Failpoints (see internal/failpoint).
const (
	// FailApplyStart fires after the read-only phase-1 searches, before
	// BeforeApply and before any mutation. Killing here must leave both
	// the summary and the log unchanged.
	FailApplyStart = "core.apply.start"
	// FailMaintainRound fires at the top of every maintenance round, i.e.
	// mid-mutation after the batch was logged. Killing here leaves a
	// partially maintained in-memory summary whose durable truth is the
	// log: recovery replays the whole batch.
	FailMaintainRound = "core.apply.maintain-round"
	// FailApplyDone fires after the batch fully applied and the ordinal
	// advanced, before the durability layer's AfterApply checkpoint hook.
	FailApplyDone = "core.apply.done"
)

// Failpoints returns the names of every failpoint in the apply path, for
// crash-matrix tests that must cover them all.
func Failpoints() []string {
	return []string{FailApplyStart, FailMaintainRound, FailApplyDone}
}

// Class is the compression-quality class of a bubble (Definition 3).
type Class int

const (
	// Good bubbles have β within [μ−kσ, μ+kσ].
	Good Class = iota
	// UnderFilled bubbles have β < μ−kσ: they compress (nearly) no points
	// and are the preferred donors for splitting over-filled bubbles.
	UnderFilled
	// OverFilled bubbles have β > μ+kσ: they may span several
	// substructures and critically degrade the clustering result.
	OverFilled
)

// String implements fmt.Stringer for Class.
func (c Class) String() string {
	switch c {
	case Good:
		return "good"
	case UnderFilled:
		return "under-filled"
	case OverFilled:
		return "over-filled"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Measure selects the compression-quality statistic bubbles are classified
// by. The paper's §5 opening experiment (Figure 7) contrasts the two.
type Measure int

const (
	// MeasureBeta classifies by the data summarization index β = n/N
	// (Definition 2) — the paper's proposal.
	MeasureBeta Measure = iota
	// MeasureExtent classifies by the spatial extent of each bubble — the
	// BIRCH-style quality notion the paper argues against: it fails to
	// detect over-filled bubbles whose extent barely changes when they
	// absorb new substructure.
	MeasureExtent
)

// String implements fmt.Stringer for Measure.
func (m Measure) String() string {
	switch m {
	case MeasureBeta:
		return "beta"
	case MeasureExtent:
		return "extent"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Config parameterises the incremental scheme.
type Config struct {
	// Probability is the Chebyshev containment probability p defining the
	// good-β interval (paper uses 0.9; reports 0.8 equivalent). Default 0.9.
	Probability float64
	// MaxRounds bounds how many classify→merge/split passes run per batch.
	// The paper performs the synchronized sequence once per batch
	// (default 1); higher values are exposed for ablation.
	MaxRounds int
	// Measure is the quality statistic used for classification.
	// Default MeasureBeta.
	Measure Measure
	// AdaptiveCount enables the extension sketched as future work in the
	// paper's §6: dynamically increasing or decreasing the number of
	// bubbles. After ordinary maintenance, any still-over-filled bubble is
	// split into a freshly added bubble (growth), and surplus empty
	// bubbles are removed (shrink), within [MinBubbles, MaxBubbles].
	AdaptiveCount bool
	// MinBubbles / MaxBubbles bound adaptation. Defaults: half and double
	// the initial bubble count.
	MinBubbles int
	MaxBubbles int
	// Workers bounds the worker pool of the two-phase assignment pipeline:
	// phase 1 of ApplyBatch — and of the merge/split rebuild paths — fans
	// read-only closest-seed searches out over this many goroutines, while
	// phase 2 applies all Set mutation serially. ≤0 selects GOMAXPROCS;
	// 1 forces the serial path. Results are bit-identical for every
	// setting (DESIGN.md, "Parallel batch assignment").
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Probability == 0 {
		c.Probability = 0.9
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Probability <= 0 || c.Probability >= 1 {
		return errors.New("core: probability must be in (0,1)")
	}
	if c.MaxRounds < 1 {
		return errors.New("core: MaxRounds must be at least 1")
	}
	return nil
}

// Classification is the result of one quality assessment of all bubbles.
type Classification struct {
	Betas   []float64      // β_i per bubble
	Bounds  stats.Interval // [μ−kσ, μ+kσ]
	Classes []Class        // per bubble
	Over    []int          // over-filled indices, most over-filled first
	Under   []int          // under-filled indices, most under-filled first
}

// BatchStats reports what one ApplyBatch did.
type BatchStats struct {
	Deleted        int // points removed from bubbles
	Inserted       int // points absorbed into bubbles
	OverFilled     int // bubbles classified over-filled (first round)
	UnderFilled    int // bubbles classified under-filled (first round)
	Rebuilt        int // bubbles rebuilt by merge/split (donor + split target)
	DonorsFromGood int // donors cannibalised from the good class
	Rounds         int // maintenance rounds executed
	BubblesAdded   int // bubbles created by adaptive growth
	BubblesRemoved int // empty bubbles removed by adaptive shrink
	// AuditViolations is the total number of invariant violations the
	// enabled audit passes reported during this batch (0 when Options.Audit
	// is off or the summary is healthy).
	AuditViolations int
}

// Summarizer incrementally maintains a set of data bubbles over a dynamic
// database. The database itself is updated externally (e.g. by a synth
// scenario); the applied batches are fed to ApplyBatch.
type Summarizer struct {
	db  *dataset.DB
	set *bubble.Set
	cfg Config
	rng *stats.RNG

	totalRebuilt int
	batches      int

	// Durability. seedBase is the construction seed: under a durability
	// layer every batch reseeds rng from SubSeed(seedBase, ordinal) so
	// that checkpoint + replay reproduces the uninterrupted run
	// bit-for-bit. Without a layer the RNG free-runs exactly as before.
	seedBase   int64
	durability Durability
	fail       *failpoint.Registry // nil-safe; disarmed in production

	// Observability. sink may be nil (telemetry disabled); the resolved
	// metric handles are always valid — a nil sink hands out detached ones.
	sink    *telemetry.Sink
	metrics coreMetrics
	tracer  *trace.Tracer // nil-safe span recording; see Options.Tracer
	audit   bool
	// lastComputed/lastPruned remember the distance-counter state at the
	// previous sync, so the telemetry counters advance by exact deltas of
	// the same vecmath.Counter every code path counts into — the two
	// surfaces cannot disagree (see syncDistances).
	lastComputed   uint64
	lastPruned     uint64
	lastViolations []telemetry.Violation
}

// coreMetrics holds the summarizer's metric handles, resolved once at
// construction so the hot paths only touch atomics.
type coreMetrics struct {
	distComputed    *telemetry.Counter
	distPruned      *telemetry.Counter
	batches         *telemetry.Counter
	inserts         *telemetry.Counter
	deletes         *telemetry.Counter
	rebuilt         *telemetry.Counter
	rounds          *telemetry.Counter
	donorsFromGood  *telemetry.Counter
	auditRuns       *telemetry.Counter
	auditViolations *telemetry.Counter
	bubbles         *telemetry.Gauge
	searchSeconds   *telemetry.Histogram
	applySeconds    *telemetry.Histogram
	maintainSeconds *telemetry.Histogram
	workerComputed  *telemetry.Histogram
}

func newCoreMetrics(sink *telemetry.Sink) coreMetrics {
	return coreMetrics{
		distComputed:    sink.Counter(telemetry.MetricDistanceComputed),
		distPruned:      sink.Counter(telemetry.MetricDistancePruned),
		batches:         sink.Counter(telemetry.MetricCoreBatches),
		inserts:         sink.Counter(telemetry.MetricCoreInserts),
		deletes:         sink.Counter(telemetry.MetricCoreDeletes),
		rebuilt:         sink.Counter(telemetry.MetricCoreRebuilt),
		rounds:          sink.Counter(telemetry.MetricCoreRounds),
		donorsFromGood:  sink.Counter(telemetry.MetricCoreDonorsFromGood),
		auditRuns:       sink.Counter(telemetry.MetricCoreAuditRuns),
		auditViolations: sink.Counter(telemetry.MetricCoreAuditViolation),
		bubbles:         sink.Gauge(telemetry.MetricCoreBubbles),
		searchSeconds:   sink.Histogram(telemetry.MetricPhaseSearchSeconds, telemetry.SecondsBounds()),
		applySeconds:    sink.Histogram(telemetry.MetricPhaseApplySeconds, telemetry.SecondsBounds()),
		maintainSeconds: sink.Histogram(telemetry.MetricPhaseMaintainSeconds, telemetry.SecondsBounds()),
		workerComputed:  sink.Histogram(telemetry.MetricWorkerComputed, telemetry.CountBounds()),
	}
}

// Options bundles construction parameters for New.
type Options struct {
	// NumBubbles is the fixed compression rate: how many bubbles summarize
	// the database.
	NumBubbles int
	// Config tunes the maintenance scheme.
	Config Config
	// UseTriangleInequality enables §3 pruning (default in the paper's
	// incremental scheme). Recommended true.
	UseTriangleInequality bool
	// Counter receives distance-computation accounting. Optional.
	Counter *vecmath.Counter
	// Seed drives seed selection and probe order. Default 1.
	Seed int64
	// Telemetry receives the core metrics (DESIGN.md §8). Optional; nil
	// disables instrumentation with no overhead on the assignment hot
	// paths. Telemetry is an observer only — enabling it never changes
	// seeds, probe orders, or distance accounting, so instrumented and
	// bare runs produce bit-identical summaries.
	Telemetry *telemetry.Sink
	// Audit enables an invariant audit (telemetry.Audit) after the apply
	// phase, after every maintenance round, and after adaptive count
	// changes. Violations are reported through BatchStats.AuditViolations,
	// the telemetry sink, and LastViolations — never as errors or panics —
	// so a corrupted summary degrades gracefully.
	Audit bool
	// Durability, when non-nil, receives write-ahead hooks around every
	// batch (see the Durability interface). It also switches ApplyBatch to
	// replay-deterministic RNG use: each batch reseeds from
	// SubSeed(Seed, ordinal), so recovery can reproduce the run exactly.
	Durability Durability
	// Failpoints threads a fault-injection registry through the apply
	// path for crash testing. Optional; nil evaluates every point as
	// disarmed at near-zero cost.
	Failpoints *failpoint.Registry
	// Tracer records hierarchical batch → phase → operation spans
	// (internal/trace) including the exact distance-computation delta of
	// every counted phase. Optional; nil disables span recording — the
	// nil-safe no-op spans keep the hot paths branch-free. Like
	// Telemetry, the tracer is an observer only and never perturbs
	// seeds, probe orders, or distance accounting.
	Tracer *trace.Tracer
}

// New builds the initial data bubbles over db from scratch and returns a
// Summarizer maintaining them. db must stay the database the update
// batches are applied to.
func New(db *dataset.DB, opts Options) (*Summarizer, error) {
	cfg, seed, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	set, err := bubble.Build(db, opts.NumBubbles, bubble.Options{
		UseTriangleInequality: opts.UseTriangleInequality,
		Counter:               opts.Counter,
		RNG:                   rng,
		Tracer:                opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return finishConstruct(db, set, cfg, seed, rng, opts), nil
}

// Load reconstructs a Summarizer around a bubble snapshot previously
// written with Set().Save — the restore half of the durability layer's
// checkpoint. The snapshot carries every bubble's member IDs (bubble.Load
// rejects one that does not); batches and totalRebuilt restore the
// progress counters the snapshot does not carry. Under Options.Durability
// the per-batch reseed makes the restored summarizer's future batches
// bit-identical to the original run's, provided opts carries the same
// Seed and Config.
func Load(db *dataset.DB, snapshot io.Reader, opts Options, batches, totalRebuilt int) (*Summarizer, error) {
	cfg, seed, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if batches < 0 || totalRebuilt < 0 {
		return nil, errors.New("core: negative progress counters")
	}
	set, err := bubble.Load(snapshot, bubble.Options{Counter: opts.Counter})
	if err != nil {
		return nil, err
	}
	if set.Dim() != db.Dim() {
		return nil, fmt.Errorf("core: snapshot dimensionality %d != database %d", set.Dim(), db.Dim())
	}
	s := finishConstruct(db, set, cfg, seed, stats.NewRNG(seed), opts)
	s.batches = batches
	s.totalRebuilt = totalRebuilt
	return s, nil
}

// resolveOptions applies defaults and validates the construction options
// shared by New and Load.
func resolveOptions(opts Options) (Config, int64, error) {
	cfg := opts.Config.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, 0, err
	}
	if opts.NumBubbles <= 0 {
		return cfg, 0, errors.New("core: NumBubbles must be positive")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.AdaptiveCount {
		if cfg.MinBubbles == 0 {
			cfg.MinBubbles = opts.NumBubbles / 2
			if cfg.MinBubbles < 2 {
				cfg.MinBubbles = 2
			}
		}
		if cfg.MaxBubbles == 0 {
			cfg.MaxBubbles = opts.NumBubbles * 2
		}
		if cfg.MinBubbles > opts.NumBubbles || cfg.MaxBubbles < opts.NumBubbles {
			return cfg, 0, errors.New("core: initial bubble count outside [MinBubbles, MaxBubbles]")
		}
	}
	return cfg, seed, nil
}

func finishConstruct(db *dataset.DB, set *bubble.Set, cfg Config, seed int64, rng *stats.RNG, opts Options) *Summarizer {
	s := &Summarizer{
		db: db, set: set, cfg: cfg, rng: rng,
		seedBase:   seed,
		durability: opts.Durability,
		fail:       opts.Failpoints,
		sink:       opts.Telemetry,
		metrics:    newCoreMetrics(opts.Telemetry),
		tracer:     opts.Tracer,
		audit:      opts.Audit,
	}
	s.syncDistances()
	if s.sink != nil {
		s.metrics.bubbles.Set(float64(set.Len()))
	}
	s.runAudit(nil)
	return s
}

// Set exposes the maintained bubble set (read-only use).
func (s *Summarizer) Set() *bubble.Set { return s.set }

// DB returns the summarized database.
func (s *Summarizer) DB() *dataset.DB { return s.db }

// Config returns the effective configuration.
func (s *Summarizer) Config() Config { return s.cfg }

// Batches returns the number of batches applied so far.
func (s *Summarizer) Batches() int { return s.batches }

// TotalRebuilt returns the cumulative number of bubbles rebuilt across all
// batches (the numerator of the paper's Figure 9).
func (s *Summarizer) TotalRebuilt() int { return s.totalRebuilt }

// Telemetry returns the sink the summarizer reports into (nil when
// instrumentation is disabled).
func (s *Summarizer) Telemetry() *telemetry.Sink { return s.sink }

// Audit runs an on-demand invariant audit of the maintained summary and
// returns the violations (empty for a healthy summary). Unlike the
// automatic passes enabled by Options.Audit, an on-demand audit touches no
// metrics.
func (s *Summarizer) Audit() []telemetry.Violation {
	return telemetry.Audit(s.set, s.db.Len())
}

// LastViolations returns the violations reported by the most recent
// automatic audit pass that found any (nil if all passes were clean or
// auditing is disabled).
func (s *Summarizer) LastViolations() []telemetry.Violation { return s.lastViolations }

// syncDistances advances the telemetry distance counters by the exact
// delta of the set's vecmath.Counter since the previous sync. Feeding the
// metrics only through these deltas — never by counting independently —
// guarantees the two surfaces agree at every phase boundary.
func (s *Summarizer) syncDistances() {
	if s.sink == nil {
		return
	}
	computed, pruned := s.set.Counter().Snapshot()
	if d := computed - s.lastComputed; d > 0 {
		s.metrics.distComputed.Add(d)
	}
	if d := pruned - s.lastPruned; d > 0 {
		s.metrics.distPruned.Add(d)
	}
	s.lastComputed, s.lastPruned = computed, pruned
}

// runAudit performs one automatic audit pass when enabled, routing any
// violations into bs (if non-nil) and the metrics.
func (s *Summarizer) runAudit(bs *BatchStats) {
	if !s.audit {
		return
	}
	s.metrics.auditRuns.Inc()
	vs := telemetry.Audit(s.set, s.db.Len())
	if len(vs) == 0 {
		return
	}
	s.lastViolations = vs
	s.metrics.auditViolations.Add(uint64(len(vs)))
	if bs != nil {
		bs.AuditViolations += len(vs)
	}
}

// observeWorkerTally records one worker's private distance tally as it is
// merged at a phase boundary.
func (s *Summarizer) observeWorkerTally(t vecmath.Tally) {
	if s.sink == nil {
		return
	}
	s.metrics.workerComputed.Observe(float64(t.Computed))
}

// ApplyBatch incorporates one applied batch of updates (deletions carry
// the removed coordinates, insertions their assigned IDs) and then runs
// quality maintenance: classify all bubbles by β and rebuild the
// over-filled ones via synchronized merge and split.
func (s *Summarizer) ApplyBatch(batch dataset.Batch) (BatchStats, error) {
	return s.ApplyBatchContext(context.Background(), batch)
}

// ApplyBatchContext is ApplyBatch with cancellation. The contract is
// all-or-nothing: ctx is honoured only at mutation-free barriers — on
// entry, during the read-only phase-1 search fan-out, and once more
// before the batch is logged and applied — so a cancelled call always
// returns with the summary (and any write-ahead log) exactly as it was.
// Once mutation starts the batch runs to completion regardless of ctx.
func (s *Summarizer) ApplyBatchContext(ctx context.Context, batch dataset.Batch) (BatchStats, error) {
	var bs BatchStats
	if err := ctx.Err(); err != nil {
		return bs, err
	}
	ordinal := s.batches
	if s.durability != nil {
		// Replay determinism: derive this batch's whole RNG stream from
		// (seed, ordinal) alone, so checkpoint + replay of the log suffix
		// reproduces the uninterrupted run bit-for-bit.
		s.rng.Reseed(stats.SubSeed(s.seedBase, ordinal))
	}
	bsp := s.startBatchSpan(ctx)
	defer bsp.End()
	bsp.SetInt(trace.AttrOrdinal, int64(ordinal))
	bsp.SetInt(trace.AttrBatchSize, int64(len(batch)))
	// The batch span rides the context across the durability boundary so
	// the WAL's append/fsync/checkpoint spans nest under it.
	ctx = trace.ContextWith(ctx, bsp)
	// Figure 3 step 1, phase 1: closest-bubble searches, read-only and
	// therefore cancellable.
	targets, err := s.searchInserts(ctx, batch, bsp)
	if err != nil {
		return bs, err
	}
	if err := ctx.Err(); err != nil {
		return bs, err
	}
	if err := s.fail.Hit(FailApplyStart); err != nil {
		return bs, err
	}
	if s.durability != nil {
		if err := s.durability.BeforeApply(ctx, uint64(ordinal), batch); err != nil {
			return bs, fmt.Errorf("core: batch %d not durable: %w", ordinal, err)
		}
	}
	// Point of no return: the batch is on stable storage (when durable)
	// and mutation starts.
	applyErr := s.applyAndMaintain(batch, targets, &bs, bsp)
	if s.durability != nil {
		if err := s.durability.AfterApply(ctx, s, applyErr); applyErr == nil && err != nil {
			applyErr = err
		}
	}
	return bs, applyErr
}

// startBatchSpan opens the core.batch span. When the caller's context
// already carries a span (the serving layer's server.ingest root), the
// batch parents under it so a whole request traces as one tree;
// otherwise core.batch stays a root span, as in the library-embedded
// paths.
func (s *Summarizer) startBatchSpan(ctx context.Context) *trace.Span {
	if parent := trace.FromContext(ctx); parent != nil {
		return parent.Start("core.batch")
	}
	return s.tracer.Start("core.batch")
}

// applyAndMaintain is the mutating half of a batch: phase-2 statistic
// updates (Figure 3 step 1), then quality maintenance (step 2).
func (s *Summarizer) applyAndMaintain(batch dataset.Batch, targets []int, bs *BatchStats, bsp *trace.Span) error {
	if err := s.applyMutations(batch, targets, bs, bsp); err != nil {
		return err
	}
	s.syncDistances()
	s.runAudit(bs)
	var maintainStart time.Time
	if s.sink != nil {
		maintainStart = time.Now()
	}
	if err := s.maintain(bs, bsp); err != nil {
		return err
	}
	s.totalRebuilt += bs.Rebuilt
	s.batches++
	s.syncDistances()
	if s.sink != nil {
		s.metrics.maintainSeconds.Observe(time.Since(maintainStart).Seconds())
		s.metrics.batches.Inc()
		s.metrics.inserts.Add(uint64(bs.Inserted))
		s.metrics.deletes.Add(uint64(bs.Deleted))
		s.metrics.rebuilt.Add(uint64(bs.Rebuilt))
		s.metrics.rounds.Add(uint64(bs.Rounds))
		s.metrics.donorsFromGood.Add(uint64(bs.DonorsFromGood))
		s.metrics.bubbles.Set(float64(s.set.Len()))
	}
	return s.fail.Hit(FailApplyDone)
}

// maintain is Figure 3 step 2: identify low-quality bubbles and rebuild
// them round by round, then adapt the bubble count when enabled. It is
// one span of the batch trace; the per-operation merge/split/grow spans
// below it carry the distance-calc attribution.
func (s *Summarizer) maintain(bs *BatchStats, bsp *trace.Span) error {
	msp := bsp.Start("core.maintain")
	defer msp.End()
	defer func() { msp.SetInt(trace.AttrCount, int64(bs.Rounds)) }()
	for round := 0; round < s.cfg.MaxRounds; round++ {
		if err := s.fail.Hit(FailMaintainRound); err != nil {
			return err
		}
		cl := s.Classify()
		if round == 0 {
			bs.OverFilled = len(cl.Over)
			bs.UnderFilled = len(cl.Under)
		}
		if len(cl.Over) == 0 {
			break
		}
		rebuilt, fromGood, err := s.rebuild(cl, msp)
		if err != nil {
			return err
		}
		bs.Rebuilt += rebuilt
		bs.DonorsFromGood += fromGood
		bs.Rounds = round + 1
		s.runAudit(bs)
		if rebuilt == 0 {
			break
		}
	}
	if s.cfg.AdaptiveCount {
		added, removed, err := s.adaptCount(msp)
		if err != nil {
			return err
		}
		bs.BubblesAdded = added
		bs.BubblesRemoved = removed
		s.runAudit(bs)
	}
	return nil
}

// minParallelItems is the work-list size below which the default worker
// resolution stays serial: dispatching a pool costs more than a handful of
// pruned searches. An explicit Config.Workers is always honoured.
const minParallelItems = 128

// assignWorkers resolves the configured worker count for an n-item phase-1
// fan-out.
func (s *Summarizer) assignWorkers(n int) int {
	if s.cfg.Workers <= 0 && n < minParallelItems {
		return 1
	}
	return parallel.Workers(s.cfg.Workers, n)
}

// insertIndices returns the batch positions of the insert operations, in
// batch order.
func insertIndices(batch dataset.Batch) []int {
	var inserts []int
	for i, u := range batch {
		if u.Op == dataset.OpInsert {
			inserts = append(inserts, i)
		}
	}
	return inserts
}

// searchInserts is phase 1 of Figure 3 step 1: it computes the closest
// bubble of every insertion in batch concurrently. The searches are
// read-only: between maintenance rounds the seed positions and the seed
// distance matrix are frozen, deletions never move seeds, and each worker
// carries a private Finder (probe stream, scratch buffer, distance
// tally). Each insertion's probe order comes from its own SubSeed-seeded
// probe stream keyed by batch ordinal, so the per-point computed/pruned
// counts are independent of worker count and scheduling, and the chosen
// bubble, the minimum of (distance, ID), does not even depend on the
// probe order;
// the per-worker tallies merge into the shared counter in worker order
// once the fan-out completes, keeping Computed()/Pruned() totals exact.
// Because nothing is mutated, cancelling ctx here aborts the batch with
// the summary untouched.
func (s *Summarizer) searchInserts(ctx context.Context, batch dataset.Batch, bsp *trace.Span) (targets []int, err error) {
	inserts := insertIndices(batch)
	targets = make([]int, len(inserts))
	if len(inserts) == 0 {
		return targets, nil
	}
	// The probe-stream base is the batch's only direct RNG draw in phase 1
	// — drawn here, after the zero-insert early return.
	base := s.rng.Int63()
	// Leaf span bound to the shared counter: the per-worker tallies merge
	// before ForEachWorker returns, so End sees the full search delta.
	ssp := bsp.Start("core.search").Bind(s.set.Counter())
	defer ssp.End()
	ssp.SetInt(trace.AttrCount, int64(len(inserts)))
	var searchStart time.Time
	if s.sink != nil {
		searchStart = time.Now()
	}
	err = parallel.ForEachWorker(ctx, len(inserts), s.assignWorkers(len(inserts)),
		func(int) *bubble.Finder { return s.set.NewFinder() },
		func(f *bubble.Finder, k int) error {
			u := batch[inserts[k]]
			t, _, err := f.ClosestSeed(u.P, stats.SubSeed(base, k))
			if err != nil {
				return fmt.Errorf("core: insert %d: %w", u.ID, err)
			}
			targets[k] = t
			return nil
		},
		func(_ int, f *bubble.Finder) error {
			s.observeWorkerTally(f.Tally())
			f.Flush()
			return nil
		})
	if err != nil {
		return nil, err
	}
	if s.sink != nil {
		s.metrics.searchSeconds.Observe(time.Since(searchStart).Seconds())
	}
	return targets, nil
}

// applyMutations is phase 2 of Figure 3 step 1: it walks the batch
// serially in order, releasing deletions and absorbing insertions into
// their precomputed bubbles. All Set mutation — ownership map, (n, LS,
// SS) accumulation — happens in one goroutine in a fixed order, which
// keeps the Set lock-free and the result bit-identical to the serial path
// (DESIGN.md, "Parallel batch assignment").
// targets[k] is the destination of the k-th insertion in batch order.
func (s *Summarizer) applyMutations(batch dataset.Batch, targets []int, bs *BatchStats, bsp *trace.Span) error {
	// Bound even though phase 2 computes no distances: a non-zero delta
	// here would mean the serial-apply contract was broken.
	asp := bsp.Start("core.apply").Bind(s.set.Counter())
	defer asp.End()
	var applyStart time.Time
	if s.sink != nil {
		applyStart = time.Now()
	}
	next := 0
	for _, u := range batch {
		switch u.Op {
		case dataset.OpDelete:
			if _, err := s.set.Release(u.ID, u.P); err != nil {
				return fmt.Errorf("core: delete %d: %w", u.ID, err)
			}
			bs.Deleted++
		case dataset.OpInsert:
			if err := s.set.AssignTo(targets[next], u.ID, u.P); err != nil {
				return fmt.Errorf("core: insert %d: %w", u.ID, err)
			}
			next++
			bs.Inserted++
		default:
			return fmt.Errorf("core: unknown op %v", u.Op)
		}
	}
	if s.sink != nil {
		s.metrics.applySeconds.Observe(time.Since(applyStart).Seconds())
	}
	return nil
}

// adaptCount implements the §6 future-work extension. Growth: every
// bubble still classified over-filled after ordinary maintenance is split
// into a brand-new bubble seeded at one of its points, up to MaxBubbles.
// Shrink: empty bubbles beyond what the under-filled donor pool needs are
// removed, down to MinBubbles.
func (s *Summarizer) adaptCount(msp *trace.Span) (added, removed int, err error) {
	cl := s.Classify()
	for _, over := range cl.Over {
		if s.set.Len() >= s.cfg.MaxBubbles {
			break
		}
		b := s.set.Bubble(over)
		if b.N() < 2 {
			continue
		}
		// Seed the new bubble anywhere (reset follows inside splitOver).
		// The grow span covers only AddBubble (its seed-matrix extension
		// computes distances); splitOver binds its own leaf span, so the
		// two never double-count.
		gsp := msp.Start("core.grow").Bind(s.set.Counter())
		gsp.SetInt(trace.AttrBubble, int64(over))
		idx, err := s.set.AddBubble(b.Seed())
		gsp.End()
		if err != nil {
			return added, removed, err
		}
		if err := s.splitOver(idx, over, msp); err != nil {
			return added, removed, err
		}
		added++
	}
	// Shrink: keep at most one empty bubble as a spare donor.
	empties := []int{}
	for i, b := range s.set.Bubbles() {
		if b.N() == 0 {
			empties = append(empties, i)
		}
	}
	// Remove from the highest index down so earlier indices stay valid.
	for k := len(empties) - 1; k >= 1; k-- {
		if s.set.Len() <= s.cfg.MinBubbles {
			break
		}
		if err := s.set.RemoveBubble(empties[k]); err != nil {
			return added, removed, err
		}
		removed++
	}
	return added, removed, nil
}

// Classify computes the quality statistic for every bubble (β under
// MeasureBeta, spatial extent under MeasureExtent), the Chebyshev bounds
// for the configured probability, and the per-bubble classes
// (Definition 3). The Classification's Betas field holds whichever
// statistic was classified.
func (s *Summarizer) Classify() Classification {
	var betas []float64
	if s.cfg.Measure == MeasureExtent {
		betas = make([]float64, s.set.Len())
		for i, b := range s.set.Bubbles() {
			betas[i] = b.Extent()
		}
	} else {
		betas = s.set.Betas(s.db.Len())
	}
	mean, std, err := stats.MeanStd(betas)
	var bounds stats.Interval
	if err == nil {
		bounds, _ = stats.ChebyshevBounds(mean, std, s.cfg.Probability)
	}
	cl := Classification{
		Betas:   betas,
		Bounds:  bounds,
		Classes: make([]Class, len(betas)),
	}
	for i, b := range betas {
		switch {
		case b < bounds.Lo:
			cl.Classes[i] = UnderFilled
			cl.Under = append(cl.Under, i)
		case b > bounds.Hi:
			cl.Classes[i] = OverFilled
			cl.Over = append(cl.Over, i)
		default:
			cl.Classes[i] = Good
		}
	}
	// Most over-filled first; most under-filled (lowest β) first. Equal-β
	// ties fall to the lower bubble ID so merge/split pairing never
	// depends on sort internals or bubble iteration order.
	sort.Slice(cl.Over, func(a, b int) bool {
		ba, bb := betas[cl.Over[a]], betas[cl.Over[b]]
		//lint:allow floatsafe exact-β ties order by bubble ID for deterministic merge-candidate selection
		if ba != bb {
			return ba > bb
		}
		return cl.Over[a] < cl.Over[b]
	})
	sort.Slice(cl.Under, func(a, b int) bool {
		ba, bb := betas[cl.Under[a]], betas[cl.Under[b]]
		//lint:allow floatsafe exact-β ties order by bubble ID for deterministic merge-candidate selection
		if ba != bb {
			return ba < bb
		}
		return cl.Under[a] < cl.Under[b]
	})
	return cl
}

// rebuild pairs each over-filled bubble with a donor — an under-filled
// bubble when available, otherwise the lowest-β good bubble — and performs
// the synchronized merge and split of Figure 6. It returns the number of
// bubbles rebuilt and how many donors came from the good class.
func (s *Summarizer) rebuild(cl Classification, msp *trace.Span) (rebuilt, fromGood int, err error) {
	// Donor queue: under-filled first (lowest β first), then good bubbles
	// by ascending β. Over-filled bubbles are never donors.
	type donor struct {
		idx  int
		good bool
	}
	var donors []donor
	for _, i := range cl.Under {
		donors = append(donors, donor{idx: i})
	}
	var goods []int
	for i, c := range cl.Classes {
		if c == Good {
			goods = append(goods, i)
		}
	}
	sort.Slice(goods, func(a, b int) bool {
		ba, bb := cl.Betas[goods[a]], cl.Betas[goods[b]]
		//lint:allow floatsafe exact-β ties order by bubble ID for deterministic donor selection
		if ba != bb {
			return ba < bb
		}
		return goods[a] < goods[b]
	})
	for _, i := range goods {
		donors = append(donors, donor{idx: i, good: true})
	}

	di := 0
	for _, over := range cl.Over {
		if s.set.Bubble(over).N() < 2 {
			continue // cannot split fewer than two points
		}
		if di >= len(donors) {
			break // no donors left
		}
		d := donors[di]
		di++
		if err := s.mergeAndSplit(d.idx, over, msp); err != nil {
			return rebuilt, fromGood, err
		}
		rebuilt += 2
		if d.good {
			fromGood++
		}
	}
	return rebuilt, fromGood, nil
}

// mergeAndSplit improves the quality of over by (1) merging donor: its
// points are released to their next-closest bubbles, and (2) splitting
// over: two new seeds s1, s2 are selected from over's current points,
// donor is re-positioned at s1, over re-seeded at s2, and over's points are
// distributed between the two (§4.2, Figure 6). Triangle-inequality pruning
// is used throughout when enabled.
func (s *Summarizer) mergeAndSplit(donor, over int, msp *trace.Span) error {
	if err := s.mergeAway(donor, msp); err != nil {
		return err
	}
	return s.splitOver(donor, over, msp)
}

// mergeAway empties bubble donor, releasing each of its points to the
// next-closest other bubble (the merge phase of Figure 6). The next-closest
// searches run as the same two-phase pipeline as batch insertion: the
// released points form an independent work list, phase 1 searches them
// concurrently against the unchanged seeds, phase 2 reassigns serially in
// member-ID order.
func (s *Summarizer) mergeAway(donor int, msp *trace.Span) error {
	ids, err := s.set.TakeMembers(donor)
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	sp := msp.Start("core.merge").Bind(s.set.Counter())
	defer sp.End()
	sp.SetInt(trace.AttrBubble, int64(donor))
	sp.SetInt(trace.AttrCount, int64(len(ids)))
	recs := make([]dataset.Record, len(ids))
	for k, id := range ids {
		rec, err := s.db.Get(id)
		if err != nil {
			return fmt.Errorf("core: merge lookup %d: %w", id, err)
		}
		recs[k] = rec
	}
	targets := make([]int, len(ids))
	base := s.rng.Int63()
	err = parallel.ForEachWorker(context.Background(), len(ids), s.assignWorkers(len(ids)),
		func(int) *bubble.Finder { return s.set.NewFinder() },
		func(f *bubble.Finder, k int) error {
			t, _, err := f.ClosestSeedExcluding(recs[k].P, donor, stats.SubSeed(base, k))
			targets[k] = t
			return err
		},
		func(_ int, f *bubble.Finder) error {
			s.observeWorkerTally(f.Tally())
			f.Flush()
			return nil
		})
	if err != nil {
		return err
	}
	for k, id := range ids {
		if err := s.set.AssignTo(targets[k], id, recs[k].P); err != nil {
			return err
		}
	}
	return nil
}

// splitOver splits bubble over between two fresh seeds drawn from its
// current points, re-positioning the (empty) bubble donor at the first
// seed (the split phase of Figure 6).
func (s *Summarizer) splitOver(donor, over int, msp *trace.Span) error {
	// The split span covers reseeding too: ResetBubble recomputes the
	// donor/over rows of the seed-distance matrix, and those counted
	// distances belong to the split operation.
	sp := msp.Start("core.split").Bind(s.set.Counter())
	defer sp.End()
	sp.SetInt(trace.AttrBubble, int64(donor))
	sp.SetInt(trace.AttrBubbleB, int64(over))
	overIDs, err := s.set.TakeMembers(over)
	if err != nil {
		return err
	}
	sp.SetInt(trace.AttrCount, int64(len(overIDs)))
	if len(overIDs) < 2 {
		// Degenerate (points migrated away during merge): restore them.
		for _, id := range overIDs {
			rec, _ := s.db.Get(id)
			if err := s.set.AssignTo(over, id, rec.P); err != nil {
				return err
			}
		}
		return nil
	}
	pick := s.rng.SampleWithoutReplacement(len(overIDs), 2)
	rec1, err := s.db.Get(overIDs[pick[0]])
	if err != nil {
		return err
	}
	rec2, err := s.db.Get(overIDs[pick[1]])
	if err != nil {
		return err
	}
	if err := s.set.ResetBubble(donor, rec1.P); err != nil {
		return err
	}
	if err := s.set.ResetBubble(over, rec2.P); err != nil {
		return err
	}

	// Distribute the points between the two fresh seeds with the same
	// two-phase shape as batch assignment: the per-point two-seed decision
	// is pure (no RNG), so phase 1 fans it out with per-worker tallies and
	// phase 2 absorbs serially in member-ID order.
	counter := s.set.Counter()
	useTI := s.set.Options().UseTriangleInequality
	seedSep := s.set.SeedDistance(donor, over)
	donorSeed := s.set.Bubble(donor).Seed()
	overSeed := s.set.Bubble(over).Seed()
	recs := make([]dataset.Record, len(overIDs))
	for k, id := range overIDs {
		rec, err := s.db.Get(id)
		if err != nil {
			return fmt.Errorf("core: split lookup %d: %w", id, err)
		}
		recs[k] = rec
	}
	targets := make([]int, len(overIDs))
	err = parallel.ForEachWorker(context.Background(), len(overIDs), s.assignWorkers(len(overIDs)),
		func(int) *vecmath.Tally { return &vecmath.Tally{} },
		func(t *vecmath.Tally, k int) error {
			d1 := t.Distance(recs[k].P, donorSeed)
			target := donor
			if useTI && seedSep >= 2*d1 {
				t.Prune() // Lemma 1: s2 cannot be closer
			} else if d2 := t.Distance(recs[k].P, overSeed); d2 < d1 {
				target = over
			}
			targets[k] = target
			return nil
		},
		func(_ int, t *vecmath.Tally) error {
			s.observeWorkerTally(*t)
			t.AddTo(counter)
			return nil
		})
	if err != nil {
		return err
	}
	for k, id := range overIDs {
		if err := s.set.AssignTo(targets[k], id, recs[k].P); err != nil {
			return err
		}
	}
	return nil
}
