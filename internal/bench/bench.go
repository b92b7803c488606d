// Package bench is the repository's pinned benchmark suite: a set of
// fixed-seed, fixed-operation workloads over the summarizer, the
// durability layer and the clustering, reported as one JSON document
// (BENCH_incbubbles.json) that the committed baseline and cmd/benchdiff
// gate regressions against.
//
// Unlike testing.B benchmarks, every workload executes a pinned amount
// of work (no adaptive b.N), so the work-proportional metrics — distance
// calculations per operation, spans per run, the per-phase breakdown —
// are byte-stable across runs and machines under the same preset and
// seed. Those metrics come from one instrumented rep whose span trace is
// aggregated per phase; wall-clock and allocator numbers come from
// separate uninstrumented reps and are explicitly excluded from the
// deterministic projection (see Report.Deterministic).
package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"incbubbles/internal/trace"
)

// Schema identifies the report format; bump on breaking changes.
const Schema = "incbubbles-bench/v1"

// Preset scales the suite.
type Preset string

const (
	// PresetShort is the CI-smoke and unit-test scale: a few seconds.
	PresetShort Preset = "short"
	// PresetFull is the committed-baseline scale.
	PresetFull Preset = "full"
)

// Config parameterises one suite run.
type Config struct {
	// Preset selects the workload sizes (default PresetShort).
	Preset Preset
	// Seed is the base random seed (default 1). The committed baseline
	// pins seed 1; changing it changes every deterministic metric.
	Seed int64
	// Reps is how many timed repetitions the wall-clock figures are the
	// median of (default 3; each rep rebuilds its state from scratch).
	Reps int
	// ScratchDir hosts the durable workloads' WAL directories (default:
	// a temp directory removed when the run ends).
	ScratchDir string
}

func (c Config) withDefaults() Config {
	if c.Preset == "" {
		c.Preset = PresetShort
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	return c
}

// PhaseStat aggregates the spans of one name within a workload's
// instrumented rep: the trace-derived phase breakdown.
type PhaseStat struct {
	Name             string `json:"name"`
	Spans            int    `json:"spans"`
	NsTotal          int64  `json:"ns_total"`
	DistanceComputed uint64 `json:"distance_computed"`
	DistancePruned   uint64 `json:"distance_pruned"`
}

// Result is one workload's measurements.
type Result struct {
	Name string `json:"name"`
	// Ops is the pinned operation count the per-op figures divide by
	// (updates applied, or 1 for whole-run workloads).
	Ops  int `json:"ops"`
	Reps int `json:"reps"`

	// Wall-clock and allocator figures; machine-dependent.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// Work-proportional figures; deterministic under preset+seed.
	DistanceComputedPerOp float64     `json:"distance_computed_per_op"`
	DistancePrunedPerOp   float64     `json:"distance_pruned_per_op"`
	Spans                 int         `json:"spans"`
	DroppedSpans          uint64      `json:"dropped_spans"`
	Phases                []PhaseStat `json:"phases"`
}

// Report is the full suite output.
type Report struct {
	Schema     string   `json:"schema"`
	Preset     string   `json:"preset"`
	Seed       int64    `json:"seed"`
	Notes      []string `json:"notes,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// hotpathNote records the standing allocation guarantee behind the
// allocs_per_op figures: it is enforced statically, not just measured, so
// a regression shows up in `make lint` before it shows up here.
const hotpathNote = "hot-path guarantee: every //lint:hotpath function " +
	"(vecmath kernels, distance counters, the Figure 2 closest-seed " +
	"search) is proven free of heap allocation by the hotpathalloc " +
	"analyzer; residual allocs_per_op comes from batch bookkeeping " +
	"outside the annotated hot path"

// Deterministic returns a copy of the report with every machine-dependent
// field (wall clock, allocator) zeroed, leaving exactly the fields that
// must be byte-stable under a pinned preset and seed. The stability test
// and the count-gating side of benchdiff operate on this projection.
func (r Report) Deterministic() Report {
	out := r
	out.Benchmarks = make([]Result, len(r.Benchmarks))
	for i, b := range r.Benchmarks {
		b.NsPerOp = 0
		b.AllocsPerOp = 0
		b.BytesPerOp = 0
		b.Phases = append([]PhaseStat(nil), b.Phases...)
		for j := range b.Phases {
			b.Phases[j].NsTotal = 0
		}
		out.Benchmarks[i] = b
	}
	return out
}

// workload is one suite entry. setup builds fresh state (untimed) and
// returns the measured section; the runner calls it once per rep so
// mutation never leaks between reps. A nil tracer must disable tracing.
type workload struct {
	name string
	// traceTimed times the measured section with an enabled
	// default-capacity tracer instead of a nil one — the overhead probe.
	traceTimed bool
	setup      func(cfg Config, scratch string, tracer *trace.Tracer) (exec func() error, ops int, err error)
}

// metricsCapacity sizes the instrumented rep's ring so nothing drops; a
// drop would make the deterministic metrics depend on eviction order.
const metricsCapacity = 1 << 17

// Run executes the whole suite and assembles the report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	scratch := cfg.ScratchDir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "incbubbles-bench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}
	rep := &Report{Schema: Schema, Preset: string(cfg.Preset), Seed: cfg.Seed, Notes: []string{hotpathNote}}
	for _, w := range workloads() {
		res, err := runWorkload(cfg, scratch, w)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", w.name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, *res)
	}
	return rep, nil
}

func runWorkload(cfg Config, scratch string, w workload) (*Result, error) {
	res := &Result{Name: w.name, Reps: cfg.Reps}

	// Instrumented rep: every deterministic metric is derived from the
	// spans recorded during the measured section.
	tracer := trace.New(trace.Options{Capacity: metricsCapacity})
	exec, ops, err := w.setup(cfg, scratch, tracer)
	if err != nil {
		return nil, err
	}
	res.Ops = ops
	t0 := tracer.Now()
	if err := exec(); err != nil {
		return nil, err
	}
	recs := tracer.SnapshotSince(t0)
	res.Spans = len(recs)
	res.DroppedSpans = tracer.Dropped()
	res.Phases = aggregatePhases(recs)
	var computed, pruned uint64
	for _, p := range res.Phases {
		computed += p.DistanceComputed
		pruned += p.DistancePruned
	}
	res.DistanceComputedPerOp = float64(computed) / float64(ops)
	res.DistancePrunedPerOp = float64(pruned) / float64(ops)

	// Allocator rep: malloc and byte deltas around one untraced run.
	exec, _, err = w.setup(cfg, scratch, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := exec(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	res.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)

	// Timed reps: median wall clock over fresh states. The overhead-probe
	// workloads time against an enabled default tracer; everything else
	// times the disabled (nil) path the production default pays.
	times := make([]int64, cfg.Reps)
	for i := range times {
		var tr *trace.Tracer
		if w.traceTimed {
			tr = trace.New(trace.Options{})
		}
		exec, _, err := w.setup(cfg, scratch, tr)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := exec(); err != nil {
			return nil, err
		}
		times[i] = time.Since(start).Nanoseconds()
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	res.NsPerOp = float64(times[len(times)/2]) / float64(ops)
	return res, nil
}

// aggregatePhases groups completed spans by name, sorted by name so the
// report is order-stable.
func aggregatePhases(recs []trace.Record) []PhaseStat {
	byName := map[string]*PhaseStat{}
	for _, r := range recs {
		p := byName[r.Name]
		if p == nil {
			p = &PhaseStat{Name: r.Name}
			byName[r.Name] = p
		}
		p.Spans++
		p.NsTotal += r.Dur
		if v, ok := r.Attr(trace.AttrDistComputed); ok {
			p.DistanceComputed += uint64(v)
		}
		if v, ok := r.Attr(trace.AttrDistPruned); ok {
			p.DistancePruned += uint64(v)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]PhaseStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}
