package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/eval"
	"incbubbles/internal/extract"
	"incbubbles/internal/optics"
	"incbubbles/internal/synth"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/wal"
)

// reclusterConfig sizes the recluster workload: the paper's own
// batch-then-recluster loop (§4–5), in-process, with one closed-loop
// caller and no WAL or server.
type reclusterConfig struct {
	Dim, Points, Bubbles int
	BatchUpdates         int // updates per batch, half deletes and half inserts
	Batches              int
	MinPts               int // OPTICS MinPts for every re-clustering
	SetupReps            int // static builds timed for setup_s
	RestartReps          int // summary reloads timed for restart_s
	FScoreFloor          float64
	MinTail              int // samples required beyond ingest_p95_ms
}

// reclusterBatchesPerSecond sets the batch count from the run length.
// About 15 batch+recluster rounds fit in a second on a quiet 2-vCPU
// host; 25 per second of run length gives the 400 batches whose
// quieter half still leaves ten samples beyond ingest_p95_ms.
const reclusterBatchesPerSecond = 25

// fscoreFloor is the F-score below which a run fails. Layouts where the
// moving or appearing cluster overlaps another legitimately score lower
// (single re-clusterings down to about 0.65 were seen), so the floor only
// catches a broken summary or clustering, not a bad-luck seed.
const fscoreFloor = 0.6

func reclusterConfigFor(seconds int) reclusterConfig {
	return reclusterConfig{
		Dim: 10, Points: 50000, Bubbles: 500,
		BatchUpdates: 2500,
		Batches:      seconds * reclusterBatchesPerSecond,
		MinPts:       10,
		SetupReps:    5,
		RestartReps:  15,
		FScoreFloor:  fscoreFloor,
		MinTail:      10,
	}
}

func (c reclusterConfig) scenario(seed int64) (*synth.Scenario, error) {
	return synth.NewScenario(synth.Config{
		Kind:           synth.Complex,
		Dim:            c.Dim,
		InitialPoints:  c.Points,
		UpdateFraction: float64(c.BatchUpdates) / float64(c.Points),
		Batches:        c.Batches, // the scenario's events span the whole run
		Seed:           seed,
	})
}

// reclusterRun is what one pass of the loop measured.
type reclusterRun struct {
	setups   []float64 // s, undisturbed repetitions
	ingest   []sample  // ms per ApplyBatch
	plot     []sample  // ms per space+OPTICS+extraction
	restarts []float64 // s, undisturbed repetitions
	timed    time.Duration
	updates  int
	batches  int
	fscores  []float64
	heapMB   float64

	rounds []sample // ms per batch plus re-clustering, for updates_per_s

	// Traced pass only.
	spans         *spanSet
	counters0     map[string]uint64
	counters1     map[string]uint64
	rt0, rt1      rtSample
	allocBytes    float64
	publishMs     []float64
	publishBytes  int
	tracedWindow  [2]int64
	droppedSpans  uint64
	recordedSpans int
}

// reclusterLoop runs the workload once, untraced when tr is nil as the
// end-to-end metrics need. full selects the whole measurement (set-up
// and restart repetitions, checks); the traced run's untraced reference
// pass only needs the timed section.
func reclusterLoop(env *runEnv, cfg reclusterConfig, tr *trace.Tracer, full bool, rep *report) (*reclusterRun, error) {
	sc, err := cfg.scenario(env.seed)
	if err != nil {
		return nil, err
	}
	opts := core.Options{NumBubbles: cfg.Bubbles, UseTriangleInequality: true, Seed: env.seed}
	var sink *telemetry.Sink
	if tr != nil {
		sink = telemetry.NewSink()
		opts.Tracer, opts.Telemetry = tr, sink
	}
	out := &reclusterRun{}

	setupReps := cfg.SetupReps
	if !full {
		setupReps = 1
	}
	var sum *core.Summarizer
	out.setups, err = env.repeatClean(setupReps, 3*setupReps, func() (sample, error) {
		sum = nil
		settle()
		m0 := time.Now()
		s, err := core.New(sc.DB(), opts)
		m1 := time.Now()
		if err != nil {
			return sample{}, fmt.Errorf("static build: %w", err)
		}
		sum = s
		return env.sample(m1.Sub(m0).Seconds(), m0, m1), nil
	})
	if err != nil {
		return nil, err
	}
	if full {
		rep.check(len(sum.Audit()) == 0, "audit of the static build reports violations")
	}

	counters := func() map[string]uint64 {
		m := map[string]uint64{}
		if sink == nil {
			return m
		}
		for _, n := range []string{telemetry.MetricDistanceComputed, telemetry.MetricDistancePruned, telemetry.MetricCoreRebuilt} {
			m[n] = sink.Counter(n).Value()
		}
		return m
	}

	// restart_s repetitions are spread through the run, one every
	// restartEvery batches, so that they sample the host across the
	// whole run rather than in one burst.
	restartEvery := max(cfg.Batches/max(cfg.RestartReps, 1), 1)
	loadOpts := core.Options{NumBubbles: cfg.Bubbles, UseTriangleInequality: true, Seed: env.seed}
	var restarts []sample

	settle()
	out.counters0 = counters()
	out.rt0 = readRuntime()
	out.tracedWindow[0] = tr.Now()
	env.diag.beginTimed()
	for b := 0; b < cfg.Batches; b++ {
		batch, err := sc.NextBatch()
		if err != nil {
			return nil, fmt.Errorf("generating batch %d: %w", b, err)
		}
		env.awaitQuiet(500 * time.Millisecond)
		rep.attempted++
		a0 := readRuntime()
		m0 := time.Now()
		sp := tr.Start("bench.apply_batch")
		_, err = sum.ApplyBatchContext(trace.ContextWith(context.Background(), sp), batch)
		sp.End()
		m1 := time.Now()
		if err != nil {
			rep.failed++
			env.logf("batch %d failed, the loop stops: ApplyBatch: %v", b, err)
			break
		}
		sp = tr.Start("bench.new_bubble_space")
		space, err := optics.NewBubbleSpace(sum.Set())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("batch %d: bubble space: %w", b, err)
		}
		sp = tr.Start("bench.optics_run")
		res, err := optics.Run(space, optics.Params{MinPts: cfg.MinPts})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("batch %d: OPTICS: %w", b, err)
		}
		sp = tr.Start("bench.extract_tree")
		labels := extract.ExtractTree(res.Order, extract.Params{})
		sp.End()
		m2 := time.Now()
		out.allocBytes += readRuntime().allocBytes - a0.allocBytes

		ingest := env.sample(ms(m1.Sub(m0)), m0, m1)
		plot := env.sample(ms(m2.Sub(m1)), m1, m2)
		out.ingest = append(out.ingest, ingest)
		out.plot = append(out.plot, plot)
		out.rounds = append(out.rounds, env.sample(ms(m2.Sub(m0)), m0, m2))
		out.timed += m2.Sub(m0)
		out.updates += len(batch)
		out.batches++

		if !full {
			continue
		}
		// Checks, outside the timing.
		if vs := sum.Audit(); len(vs) > 0 {
			rep.check(false, "batch %d: audit reports %d violations, first: %v", b, len(vs), vs[0])
		}
		f, err := pointFScore(sum.Set(), res, labels, sc)
		if err != nil {
			return nil, fmt.Errorf("batch %d: F-score: %w", b, err)
		}
		out.fscores = append(out.fscores, f)
		if (b+1)%restartEvery == 0 && len(restarts) < cfg.RestartReps {
			s, err := reload(env, sum, sc, loadOpts, rep)
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, s)
		}
	}
	if full {
		f := mean(out.fscores)
		rep.check(f >= cfg.FScoreFloor, "mean F-score %.4f below the floor %.2f", f, cfg.FScoreFloor)
	}
	env.diag.endTimed(out.timed)
	out.tracedWindow[1] = tr.Now()
	out.rt1 = readRuntime()
	out.counters1 = counters()
	out.heapMB = heapMB()
	if !full {
		return out, nil
	}

	out.restarts = quietHalf(restarts)

	if tr != nil {
		// server.publish_*: the Save+Load round trip bubbled's publish
		// runs after every batch, on this workload's final summary.
		p, err := probe(sum.Set(), tr, 5, cfg.MinPts)
		if err != nil {
			return nil, err
		}
		out.publishMs, out.publishBytes = p.publishMs, p.publishBytes
		recs := tr.Snapshot()
		out.recordedSpans = len(recs)
		out.droppedSpans = tr.Dropped()
		out.spans = newSpanSet(recs)
	}
	return out, nil
}

// throughput is updates per second of batch-and-recluster time, over
// the batches the host disturbed least (see quietHalf).
func (r *reclusterRun) throughput() float64 {
	return rate(quietHalf(r.rounds), r.updates, r.batches)
}

// reload times bringing sum back from its saved summary file over the
// same database — what restarting this loop takes, with no bubble
// rebuilt — and checks the reloaded summarizer's fingerprint.
func reload(env *runEnv, sum *core.Summarizer, sc *synth.Scenario, opts core.Options, rep *report) (sample, error) {
	dir, err := env.freshDir("restart")
	if err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(dir)
	var snap bytes.Buffer
	if err := sum.Set().Save(&snap); err != nil {
		return sample{}, err
	}
	path := filepath.Join(dir, "summary.json")
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		return sample{}, err
	}
	want, err := wal.Fingerprint(sum)
	if err != nil {
		return sample{}, err
	}
	settle()
	m0 := time.Now()
	s2, err := loadSummary(path, sc, opts, sum)
	m1 := time.Now()
	if err != nil {
		return sample{}, fmt.Errorf("reloading the summary: %w", err)
	}
	got, err := wal.Fingerprint(s2)
	if err != nil {
		return sample{}, err
	}
	rep.check(bytes.Equal(got, want), "batch %d: the reloaded summarizer's fingerprint differs from the original's", sum.Batches())
	return env.sample(m1.Sub(m0).Seconds(), m0, m1), nil
}

func loadSummary(path string, sc *synth.Scenario, opts core.Options, orig *core.Summarizer) (*core.Summarizer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(sc.DB(), f, opts, orig.Batches(), orig.TotalRebuilt())
}

// pointFScore labels every database point with its bubble's extracted
// cluster and scores the result against the scenario's ground truth.
func pointFScore(set *bubble.Set, res *optics.Result, labels []int, sc *synth.Scenario) (float64, error) {
	found, err := eval.PointLabels(set, res, labels)
	if err != nil {
		return 0, err
	}
	truth, flat := eval.AlignWithDB(sc.DB(), found)
	return eval.FScore(truth, flat)
}

func timedRecluster(cfgFor func(int) reclusterConfig) func(env *runEnv) (*report, error) {
	return func(env *runEnv) (*report, error) {
		cfg := cfgFor(env.seconds)
		rep := newReport()
		run, err := reclusterLoop(env, cfg, nil, true, rep)
		if err != nil {
			return nil, err
		}
		reclusterEndToEnd(rep, cfg, run)
		return rep, nil
	}
}

// reclusterEndToEnd sets the end-to-end metrics of one recluster pass.
func reclusterEndToEnd(rep *report, cfg reclusterConfig, run *reclusterRun) {
	ingest, plot := quietHalf(run.ingest), quietHalf(run.plot)
	tail := cleanValues(run.ingest, max(p95Need(cfg.MinTail), len(ingest)))
	rep.check(tailOK(len(tail), cfg.MinTail), "only %d batches: ingest_p95_ms needs %d samples beyond it", len(tail), cfg.MinTail)
	rep.set("setup_s", median(run.setups), "s", len(run.setups))
	rep.set("updates_per_s", run.throughput(), "1/s", len(quietHalf(run.rounds)))
	rep.set("ingest_p50_ms", median(ingest), "ms", len(ingest))
	rep.set("ingest_p95_ms", quantile(tail, 0.95), "ms", len(tail))
	rep.set("plot_p50_ms", median(plot), "ms", len(plot))
	rep.set("restart_s", median(run.restarts), "s", len(run.restarts))
	rep.set("heap_mb", run.heapMB, "MB", 1)
	rep.set("fscore", mean(run.fscores), "ratio", len(run.fscores))
}

func tracedRecluster(cfgFor func(int) reclusterConfig) func(env *runEnv) (*report, error) {
	return func(env *runEnv) (*report, error) { return reclusterTraced(env, cfgFor(env.seconds)) }
}

func reclusterTraced(env *runEnv, cfg reclusterConfig) (*report, error) {
	rep := newReport()
	// Untraced reference pass for trace.overhead_frac; its operations
	// and checks are not counted twice.
	ref, err := reclusterLoop(env, cfg, nil, false, newReport())
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	run, err := reclusterLoop(env, cfg, tr, true, rep)
	if err != nil {
		return nil, err
	}
	rep.check(run.droppedSpans == 0, "the tracer dropped %d spans", run.droppedSpans)
	path, err := writeTrace(env, run.spans.recs)
	if err != nil {
		return nil, err
	}
	env.logf("trace: %d spans written to %s", run.recordedSpans, path)

	spans := run.spans.within(run.tracedWindow[0], run.tracedWindow[1])
	ls := spans.layers()
	b := run.batches
	delta := func(name string) float64 { return float64(run.counters1[name] - run.counters0[name]) }

	zero := []string{
		"server.http_ms", "server.queue_wait_ms", "server.tax_ratio",
		"pipeline.spec_ms", "pipeline.stall_ms", "pipeline.spec_hit_ratio",
		"wal.fsyncs_per_batch", "wal.fsync_ms", "wal.checkpoint_ms", "wal.checkpoint_bytes", "wal.recover_ms",
		"client.late_ms",
	}
	notOnPath(rep, zero)
	rep.set("server.publish_ms", median(run.publishMs), "ms", len(run.publishMs))
	rep.set("server.publish_bytes", float64(run.publishBytes), "bytes", 1)
	rep.set("core.search_ms", ls.selfMsPer("core.search", b), "ms", b)
	rep.set("core.apply_ms", ls.selfMsPer("core.apply", b), "ms", b)
	rep.set("core.maintain_ms", ls.selfMsPer("core.maintain", b), "ms", b)
	computed, pruned := delta(telemetry.MetricDistanceComputed), delta(telemetry.MetricDistancePruned)
	rep.set("core.dist_per_update", computed/float64(run.updates), "count", run.updates)
	rep.set("core.prune_ratio", ratio(pruned, pruned+computed), "ratio", run.updates)
	rep.set("core.rebuilt_per_batch", delta(telemetry.MetricCoreRebuilt)/float64(b), "count", b)
	rep.set("optics.space_ms", ls.meanMs("bench.new_bubble_space"), "ms", ls.count["bench.new_bubble_space"])
	rep.set("optics.run_ms", ls.meanMs("bench.optics_run"), "ms", ls.count["bench.optics_run"])
	rep.set("extract.tree_ms", ls.meanMs("bench.extract_tree"), "ms", ls.count["bench.extract_tree"])
	rep.set("runtime.alloc_bytes_per_update", run.allocBytes/float64(run.updates), "bytes", run.updates)
	rep.set("runtime.gc_cpu_frac", gcFrac(run.rt0, run.rt1), "ratio", 1)
	client := spans.named("bench.apply_batch")
	rep.set("trace.unattributed_frac", spans.unattributed(client), "ratio", len(client))
	rep.set("trace.overhead_frac", ref.throughput()/run.throughput()-1, "ratio", 2)
	return rep, nil
}

// notOnPath reports layers the workload never reaches as 0.
func notOnPath(rep *report, names []string) {
	for _, n := range names {
		rep.set(n, 0, perLayerUnits[n], 0)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
