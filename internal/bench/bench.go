// Package bench is the repository's pinned count suite: eight
// fixed-seed, fixed-operation workloads over the summarizer, the
// durability layer, the clustering and the serving path, each run once
// under a span tracer and reported as one JSON document
// (BENCH_incbubbles.json) that TestPinnedCounts holds byte for byte.
//
// Every workload executes a pinned amount of work (no adaptive b.N), so
// its counts — distance calculations computed and pruned per operation,
// spans per run, the per-phase breakdown — are the same on every run and
// machine: the paper's machine-independent cost measure (Figures 10–11).
// Nothing here measures time. BenchmarkWorkloads times the same
// workloads with the standard Go harness, and perfbench owns end-to-end
// time.
package bench

import (
	"fmt"
	"os"
	"sort"

	"incbubbles/internal/trace"
)

// Schema identifies the report format; bump on breaking changes.
const Schema = "incbubbles-bench/v2"

// seed is the base random seed every workload derives its inputs from.
const seed int64 = 1

// PhaseStat aggregates the spans of one name within a workload's run:
// the trace-derived phase breakdown.
type PhaseStat struct {
	Name             string `json:"name"`
	Spans            int    `json:"spans"`
	DistanceComputed uint64 `json:"distance_computed"`
	DistancePruned   uint64 `json:"distance_pruned"`
}

// Result is one workload's counts.
type Result struct {
	Name string `json:"name"`
	// Ops is the pinned operation count the per-op figures divide by
	// (updates applied, or 1 for whole-run workloads).
	Ops                   int         `json:"ops"`
	DistanceComputedPerOp float64     `json:"distance_computed_per_op"`
	DistancePrunedPerOp   float64     `json:"distance_pruned_per_op"`
	Spans                 int         `json:"spans"`
	Phases                []PhaseStat `json:"phases"`
}

// Report is the full suite output.
type Report struct {
	Schema     string   `json:"schema"`
	Seed       int64    `json:"seed"`
	Benchmarks []Result `json:"benchmarks"`
}

// workload is one suite entry. setup builds fresh state and returns the
// measured section, which mutates that state, so every run needs its own
// setup. A nil tracer must disable tracing.
type workload struct {
	name  string
	setup func(scratch string, tracer *trace.Tracer) (exec func() error, ops int, err error)
}

// metricsCapacity sizes the run's span ring so nothing drops; a drop
// would make the counts depend on eviction order.
const metricsCapacity = 1 << 17

// Run executes every workload once in a scratch directory it removes
// afterwards, and assembles the report.
func Run() (*Report, error) {
	scratch, err := os.MkdirTemp("", "incbubbles-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rep := &Report{Schema: Schema, Seed: seed}
	for _, w := range workloads() {
		res, err := runWorkload(scratch, w)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", w.name, err)
		}
		rep.Benchmarks = append(rep.Benchmarks, *res)
	}
	return rep, nil
}

// runWorkload derives every count from the spans recorded during the
// measured section.
func runWorkload(scratch string, w workload) (*Result, error) {
	tracer := trace.New(trace.Options{Capacity: metricsCapacity})
	exec, ops, err := w.setup(scratch, tracer)
	if err != nil {
		return nil, err
	}
	t0 := tracer.Now()
	if err := exec(); err != nil {
		return nil, err
	}
	if n := tracer.Dropped(); n > 0 {
		return nil, fmt.Errorf("span ring of %d dropped %d spans", metricsCapacity, n)
	}
	recs := tracer.SnapshotSince(t0)
	res := &Result{Name: w.name, Ops: ops, Spans: len(recs), Phases: aggregatePhases(recs)}
	var computed, pruned uint64
	for _, p := range res.Phases {
		computed += p.DistanceComputed
		pruned += p.DistancePruned
	}
	res.DistanceComputedPerOp = float64(computed) / float64(ops)
	res.DistancePrunedPerOp = float64(pruned) / float64(ops)
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
