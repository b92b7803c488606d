package incbubbles

// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Sizes are scaled down from the paper's 50k–110k points so `go test
// -bench` completes quickly; cmd/incbench reproduces the full-scale runs.
// What matters here is the *shape*: each benchmark reports the headline
// metric of its table or figure alongside wall-clock cost.

import (
	"fmt"
	"testing"

	"incbubbles/internal/experiments"
	"incbubbles/internal/synth"
)

func benchCfg() experiments.Config {
	return experiments.Config{
		Points:  4000,
		Bubbles: 60,
		Reps:    1,
		Batches: 5,
		MinPts:  10,
		Seed:    1,
	}
}

// BenchmarkTable1 regenerates one Table 1 cell pair (complete vs
// incremental F-score and compactness) per named dataset.
func BenchmarkTable1(b *testing.B) {
	for _, spec := range experiments.Table1Datasets() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table1(benchCfg(), []experiments.DatasetSpec{spec})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].FMean, "F-complete")
				b.ReportMetric(rows[1].FMean, "F-inc")
			}
		})
	}
}

// BenchmarkFig7QualityMeasure regenerates the Figure 7 comparison of the
// extent vs β quality measures on the extreme-appear dynamics.
func BenchmarkFig7QualityMeasure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Measure == "beta" {
				b.ReportMetric(float64(r.NewClusterBubbles), "bubbles-on-new-cluster")
			}
		}
	}
}

// BenchmarkFig8ComplexSnapshots regenerates the Figure 8 snapshots of the
// evolving complex database.
func BenchmarkFig8ComplexSnapshots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snaps, err := experiments.Fig8(benchCfg(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(snaps)), "snapshots")
	}
}

// BenchmarkFig9RebuiltFraction regenerates the Figure 9 series: average
// percentage of rebuilt bubbles vs update size.
func BenchmarkFig9RebuiltFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UpdateSweep(benchCfg(), []float64{0.02, 0.10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].RebuiltPct, "rebuilt%-at-2%")
		b.ReportMetric(rows[len(rows)-1].RebuiltPct, "rebuilt%-at-10%")
	}
}

// BenchmarkFig10Pruning regenerates the Figure 10 series: percentage of
// distance computations pruned by the triangle inequality.
func BenchmarkFig10Pruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UpdateSweep(benchCfg(), []float64{0.06})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].PrunedPct, "pruned%")
	}
}

// BenchmarkFig11SavingFactor regenerates the Figure 11 series: the
// distance saving factor of incremental maintenance with pruning over
// complete rebuilds without it.
func BenchmarkFig11SavingFactor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UpdateSweep(benchCfg(), []float64{0.02, 0.10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SavingFactor, "saving-at-2%")
		b.ReportMetric(rows[len(rows)-1].SavingFactor, "saving-at-10%")
	}
}

// BenchmarkSummaryCompare regenerates the bubbles / clustering features /
// raw OPTICS comparison (the motivation the paper inherits from [5]).
func BenchmarkSummaryCompare(b *testing.B) {
	cfg := benchCfg()
	cfg.Points = 2000
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SummaryCompare(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == "bubbles" {
				b.ReportMetric(r.FMean, "F-bubbles")
			}
			if r.Method == "raw" {
				b.ReportMetric(r.FMean, "F-raw")
			}
		}
	}
}

// BenchmarkAblation regenerates the design-knob ablation (probability,
// maintenance rounds, adaptive bubble count, extent measure).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FMean, "F-paper-config")
	}
}

// BenchmarkIncrementalBatch measures the core operation the paper
// accelerates: absorbing one 10% update batch into the summaries.
func BenchmarkIncrementalBatch(b *testing.B) {
	sc, err := NewScenario(ScenarioConfig{Kind: ScenarioComplex, InitialPoints: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sum, err := NewSummarizer(sc.DB(), SummarizerOptions{NumBubbles: 100, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch, err := sc.NextBatch()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sum.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelApplyBatch compares the serial and parallel assignment
// pipelines absorbing a 10% update batch, at two database scales. The
// distcalcs/op metric must be identical between the worker counts of a
// size — the pipeline parallelises the Figure 2 searches without changing
// which distances they compute (see DESIGN.md, "Parallel batch
// assignment").
func BenchmarkParallelApplyBatch(b *testing.B) {
	for _, points := range []int{10000, 100000} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", points, workers), func(b *testing.B) {
				sc, err := NewScenario(ScenarioConfig{Kind: ScenarioComplex, InitialPoints: points, Seed: 6})
				if err != nil {
					b.Fatal(err)
				}
				var counter DistanceCounter
				sum, err := NewSummarizer(sc.DB(), SummarizerOptions{
					NumBubbles: 100,
					Seed:       7,
					Counter:    &counter,
					Config:     SummarizerConfig{Workers: workers},
				})
				if err != nil {
					b.Fatal(err)
				}
				start := counter.Computed()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					batch, err := sc.NextBatch()
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := sum.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(counter.Computed()-start)/float64(b.N), "distcalcs/op")
			})
		}
	}
}

// BenchmarkCompleteRebuild is the baseline the incremental scheme is
// measured against: re-summarizing the whole database from scratch.
func BenchmarkCompleteRebuild(b *testing.B) {
	sc, err := NewScenario(ScenarioConfig{Kind: ScenarioComplex, InitialPoints: 10000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := BuildBubbles(sc.DB(), 100, BubbleOptions{UseTriangleInequality: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = set
	}
}

// BenchmarkAssignmentPruning isolates §3: point-to-seed assignment with
// and without triangle-inequality pruning, across dimensionalities. The
// pruning trades cheap comparisons for coordinate scans, so its wall-clock
// payoff grows with dimension; the pruned-computation counts (Figure 10)
// are dimension-independent.
func BenchmarkAssignmentPruning(b *testing.B) {
	for _, dim := range []int{2, 10, 20} {
		for _, ti := range []bool{false, true} {
			name := "brute"
			if ti {
				name = "triangle"
			}
			b.Run(fmt.Sprintf("d=%d/%s", dim, name), func(b *testing.B) {
				sc, err := synth.NewScenario(synth.Config{Kind: synth.Complex, Dim: dim, InitialPoints: 10000, Seed: 4})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := BuildBubbles(sc.DB(), 100, BubbleOptions{UseTriangleInequality: ti}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClusterBubbles measures obtaining the hierarchical clustering
// from an existing summary — the operation the paper makes "quickly
// available at any point in time".
func BenchmarkClusterBubbles(b *testing.B) {
	sc, err := NewScenario(ScenarioConfig{Kind: ScenarioComplex, InitialPoints: 10000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	set, err := BuildBubbles(sc.DB(), 100, BubbleOptions{UseTriangleInequality: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterBubbles(set, ClusterOptions{MinPts: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
