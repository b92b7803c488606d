package core

import (
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/synth"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
)

// spanCount counts the retained spans named name.
func spanCount(tr *trace.Tracer, name string) int {
	n := 0
	for _, r := range tr.Snapshot() {
		if r.Name == name {
			n++
		}
	}
	return n
}

// runInstrumented replays a Complex scenario through a summarizer wired to
// a fresh sink and a tracer large enough to retain every span,
// cross-checking after every batch that the telemetry distance counters
// agree exactly with the vecmath.Counter all code paths count into.
func runInstrumented(t *testing.T, seed int64, workers, batches int, audit bool) (*Summarizer, *telemetry.Sink, *vecmath.Counter, string) {
	t.Helper()
	sc, err := synth.NewScenario(synth.Config{Kind: synth.Complex, InitialPoints: 1500, Batches: batches, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var counter vecmath.Counter
	sink := telemetry.NewSink()
	s, err := New(sc.DB(), Options{
		NumBubbles:            25,
		UseTriangleInequality: true,
		Seed:                  seed + 1,
		Counter:               &counter,
		Telemetry:             sink,
		Tracer:                trace.New(trace.Options{Capacity: 1 << 16}),
		Audit:                 audit,
		Config:                Config{Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		batch, err := sc.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		bs, err := s.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if audit && bs.AuditViolations != 0 {
			t.Fatalf("batch %d: audit reported %d violations: %v", i, bs.AuditViolations, s.LastViolations())
		}
		if got, want := sink.Counter(telemetry.MetricDistanceComputed).Value(), counter.Computed(); got != want {
			t.Fatalf("batch %d: telemetry computed=%d, counter computed=%d", i, got, want)
		}
		if got, want := sink.Counter(telemetry.MetricDistancePruned).Value(), counter.Pruned(); got != want {
			t.Fatalf("batch %d: telemetry pruned=%d, counter pruned=%d", i, got, want)
		}
	}
	return s, sink, &counter, fingerprint(t, s, &counter)
}

// TestTelemetryMatchesCounter pins the "metrics can never disagree"
// contract: the telemetry distance counters are fed exclusively by deltas
// of the shared vecmath.Counter at phase boundaries, so at every batch
// boundary the two surfaces are exactly equal — for serial and parallel
// worker counts, with and without auditing.
func TestTelemetryMatchesCounter(t *testing.T) {
	for _, w := range []int{1, 4} {
		for _, audit := range []bool{false, true} {
			s, sink, counter, _ := runInstrumented(t, 51, w, 3, audit)
			if got, want := sink.Counter(telemetry.MetricDistanceComputed).Value(), counter.Computed(); got != want {
				t.Fatalf("workers=%d audit=%v: final computed %d != %d", w, audit, got, want)
			}
			// The worker-tally histogram observes only the fan-out phases,
			// so its sum is bounded by the total computed count.
			h := sink.Histogram(telemetry.MetricWorkerComputed, nil).Snapshot()
			if h.Sum > float64(counter.Computed()) {
				t.Fatalf("worker histogram sum %v exceeds computed total %d", h.Sum, counter.Computed())
			}
			if w > 1 && h.Count == 0 {
				t.Fatal("parallel run observed no worker tallies")
			}
			if s.Batches() != 3 {
				t.Fatalf("batches = %d", s.Batches())
			}
		}
	}
}

// TestTelemetryDoesNotPerturbResults: enabling the sink, the tracer and
// the auditor must leave the summary bit-identical — instrumentation is
// an observer.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	bare := runScenario(t, 52, 2, 3)
	_, _, _, instrumented := runInstrumented(t, 52, 2, 3, true)
	if bare != instrumented {
		t.Fatalf("telemetry changed the result\nbare:\n%s\ninstrumented:\n%s", bare, instrumented)
	}
}

// TestTelemetrySpansAndMetrics checks the maintenance spans and the core
// counters against the summarizer's own bookkeeping.
func TestTelemetrySpansAndMetrics(t *testing.T) {
	s, sink, _, _ := runInstrumented(t, 53, 0, 4, true)
	if d := s.tracer.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d spans", d)
	}
	if got := spanCount(s.tracer, "core.batch"); got != 4 {
		t.Fatalf("core.batch spans = %d, want 4", got)
	}
	if got := sink.Counter(telemetry.MetricCoreBatches).Value(); got != 4 {
		t.Fatalf("core.batches = %d, want 4", got)
	}
	if got := sink.Counter(telemetry.MetricCoreRebuilt).Value(); got != uint64(s.TotalRebuilt()) {
		t.Fatalf("core.rebuilt = %d, want %d", got, s.TotalRebuilt())
	}
	// Every rebuild is one split of the over-filled bubble plus the merge
	// of its donor (no merge span when the donor was already empty): 2
	// bubbles counted per split.
	merges := spanCount(s.tracer, "core.merge")
	splits := spanCount(s.tracer, "core.split")
	if s.TotalRebuilt() > 0 && merges+splits == 0 {
		t.Fatalf("rebuilt %d bubbles but no merge/split spans", s.TotalRebuilt())
	}
	if 2*splits != s.TotalRebuilt() || merges > splits {
		t.Fatalf("%d merge and %d split spans for %d rebuilt bubbles", merges, splits, s.TotalRebuilt())
	}
	if got := sink.Gauge(telemetry.MetricCoreBubbles).Value(); got != float64(s.Set().Len()) {
		t.Fatalf("core.bubbles gauge = %v, set has %d", got, s.Set().Len())
	}
	if got := sink.Counter(telemetry.MetricCoreAuditRuns).Value(); got == 0 {
		t.Fatal("audit enabled but no audit runs recorded")
	}
	if got := sink.Counter(telemetry.MetricCoreAuditViolation).Value(); got != 0 {
		t.Fatalf("healthy run recorded %d violations: %v", got, s.LastViolations())
	}
	if s.Telemetry() != sink {
		t.Fatal("Telemetry() accessor does not return the sink")
	}
	// Phase timings were recorded for each batch.
	if got := sink.Histogram(telemetry.MetricPhaseSearchSeconds, nil).Count(); got == 0 {
		t.Fatal("no search-phase timings recorded")
	}
	if got := sink.Histogram(telemetry.MetricPhaseApplySeconds, nil).Count(); got != 4 {
		t.Fatalf("apply-phase timings = %d, want 4", got)
	}
	if got := sink.Histogram(telemetry.MetricPhaseMaintainSeconds, nil).Count(); got != 4 {
		t.Fatalf("maintain-phase timings = %d, want 4", got)
	}
}

// TestTelemetryAdaptiveEvents drives the §6 adaptive-count extension
// through a grow batch (a massive far-away cluster arrives) and a shrink
// batch (it is deleted again), and checks the grow spans and the
// bubble-count gauge line up with BatchStats.
func TestTelemetryAdaptiveEvents(t *testing.T) {
	rng := stats.NewRNG(54)
	db := dataset.MustNew(2)
	for i := 0; i < 1500; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{20, 20}, 3), 0)
	}
	sink := telemetry.NewSink()
	tracer := trace.New(trace.Options{Capacity: 1 << 16})
	s, err := New(db, Options{
		NumBubbles:            20,
		UseTriangleInequality: true,
		Seed:                  55,
		Telemetry:             sink,
		Tracer:                tracer,
		Audit:                 true,
		Config:                Config{AdaptiveCount: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var grow dataset.Batch
	for i := 0; i < 1500; i++ {
		grow = append(grow, dataset.Update{Op: dataset.OpInsert, P: rng.GaussianPoint(vecmath.Point{500, 500}, 2), Label: 1})
	}
	initial := s.Set().Len()
	var added, removed int
	apply := func(batch dataset.Batch) dataset.Batch {
		t.Helper()
		applied, err := batch.Apply(db)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := s.ApplyBatch(applied)
		if err != nil {
			t.Fatal(err)
		}
		if bs.AuditViolations != 0 {
			t.Fatalf("audit: %v", s.LastViolations())
		}
		added += bs.BubblesAdded
		removed += bs.BubblesRemoved
		return applied
	}
	var shrink dataset.Batch
	for _, u := range apply(grow) {
		shrink = append(shrink, dataset.Update{Op: dataset.OpDelete, ID: u.ID})
	}
	apply(shrink)
	if added == 0 || removed == 0 {
		t.Fatalf("adaptive count added %d and removed %d bubbles, want both nonzero", added, removed)
	}
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d spans", d)
	}
	if got := spanCount(tracer, "core.grow"); got != added {
		t.Fatalf("core.grow spans = %d, BatchStats added = %d", got, added)
	}
	if got, want := sink.Gauge(telemetry.MetricCoreBubbles).Value(), float64(initial+added-removed); got != want {
		t.Fatalf("core.bubbles gauge = %v, want %d initial + %d added - %d removed", got, initial, added, removed)
	}
}

// TestSummarizerOnDemandAudit covers the Audit() accessor on a healthy
// summarizer.
func TestSummarizerOnDemandAudit(t *testing.T) {
	s, _, _, _ := runInstrumented(t, 56, 1, 1, false)
	if vs := s.Audit(); len(vs) != 0 {
		t.Fatalf("healthy summary reported %v", vs)
	}
}
