package incbubbles_test

import (
	"fmt"

	"incbubbles"
)

// Summarize a static database and cluster it from the summaries.
func ExampleBuildBubbles() {
	db := incbubbles.NewDB(2)
	rng := incbubbles.NewRNG(1)
	for i := 0; i < 500; i++ {
		db.Insert(rng.GaussianPoint(incbubbles.Point{10, 10}, 2), 0)
	}
	for i := 0; i < 500; i++ {
		db.Insert(rng.GaussianPoint(incbubbles.Point{90, 90}, 2), 1)
	}
	set, _ := incbubbles.BuildBubbles(db, 20, incbubbles.BubbleOptions{
		UseTriangleInequality: true,
	})
	clus, _ := incbubbles.ClusterBubbles(set, incbubbles.ClusterOptions{MinPts: 10})
	fmt.Println(clus.NumClusters())
	// Output: 2
}

// Maintain summaries incrementally through database updates.
func ExampleNewSummarizer() {
	db := incbubbles.NewDB(2)
	rng := incbubbles.NewRNG(2)
	for i := 0; i < 1000; i++ {
		db.Insert(rng.GaussianPoint(incbubbles.Point{50, 50}, 3), 0)
	}
	sum, _ := incbubbles.NewSummarizer(db, incbubbles.SummarizerOptions{NumBubbles: 25, Seed: 3})

	batch := incbubbles.Batch{
		{Op: incbubbles.OpInsert, P: incbubbles.Point{51, 49}, Label: 0},
	}
	applied, _ := batch.Apply(db)
	stats, _ := sum.ApplyBatch(applied)
	fmt.Println(stats.Inserted, stats.Deleted)
	// Output: 1 0
}

// Replay one of the paper's dynamic workloads.
func ExampleNewScenario() {
	sc, _ := incbubbles.NewScenario(incbubbles.ScenarioConfig{
		Kind:          incbubbles.ScenarioDisappear,
		InitialPoints: 1000,
		Batches:       4,
		Seed:          4,
	})
	before := sc.DB().LabelHistogram()[0]
	for i := 0; i < 4; i++ {
		sc.NextBatch()
	}
	after := sc.DB().LabelHistogram()[0]
	fmt.Println(before > 0, after < before)
	// Output: true true
}

// Summarize a sliding window over a point stream (§6 future work).
func ExampleNewStreamWindow() {
	w, _ := incbubbles.NewStreamWindow(incbubbles.StreamConfig{
		Dim:      2,
		Capacity: 500,
		Bubbles:  10,
		Warmup:   100,
		Seed:     5,
	})
	rng := incbubbles.NewRNG(6)
	for i := 0; i < 1000; i++ {
		w.Push(rng.GaussianPoint(incbubbles.Point{0, 0}, 2), 0)
	}
	w.Flush()
	fmt.Println(w.Ready(), w.Len())
	// Output: true 500
}

// Answer an approximate range-count query from the summaries alone.
func ExampleEstimateRangeCount() {
	db := incbubbles.NewDB(2)
	rng := incbubbles.NewRNG(7)
	for i := 0; i < 1000; i++ {
		db.Insert(rng.GaussianPoint(incbubbles.Point{10, 10}, 1), 0)
	}
	set, _ := incbubbles.BuildBubbles(db, 20, incbubbles.BubbleOptions{})
	est, _ := incbubbles.EstimateRangeCount(set, incbubbles.QueryBox{
		Lo: incbubbles.Point{0, 0},
		Hi: incbubbles.Point{20, 20},
	}, 8)
	fmt.Println(est > 900)
	// Output: true
}

// Score a clustering against the database's ground-truth labels.
func ExampleFScore() {
	db := incbubbles.NewDB(1)
	a, _ := db.Insert(incbubbles.Point{0}, 0)
	b, _ := db.Insert(incbubbles.Point{1}, 0)
	c, _ := db.Insert(incbubbles.Point{100}, 1)
	f, _ := incbubbles.FScore(db, map[incbubbles.PointID]int{a: 7, b: 7, c: 9})
	fmt.Printf("%.2f\n", f)
	// Output: 1.00
}
