package approx

import (
	"math"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func buildSet(t *testing.T, seed int64) (*bubble.Set, *dataset.DB) {
	t.Helper()
	rng := stats.NewRNG(seed)
	db := dataset.MustNew(2)
	for i := 0; i < 2000; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{20, 20}, 4), 0)
	}
	for i := 0; i < 1000; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{80, 80}, 4), 1)
	}
	set, err := bubble.Build(db, 50, bubble.Options{UseTriangleInequality: true, RNG: stats.NewRNG(seed + 1)})
	if err != nil {
		t.Fatal(err)
	}
	return set, db
}

func TestCountExact(t *testing.T) {
	set, db := buildSet(t, 1)
	if got := Count(set); got != db.Len() {
		t.Fatalf("Count=%d want %d", got, db.Len())
	}
}

func TestMeanExact(t *testing.T) {
	set, db := buildSet(t, 2)
	got, err := Mean(set)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the true mean over all points.
	want := make(vecmath.Point, 2)
	db.ForEach(func(r dataset.Record) { want.AddInPlace(r.P) })
	want = want.Scale(1 / float64(db.Len()))
	if vecmath.Distance(got, want) > 1e-9 {
		t.Fatalf("Mean=%v want %v", got, want)
	}
}

func TestTotalVarianceExact(t *testing.T) {
	set, db := buildSet(t, 3)
	got, err := TotalVariance(set)
	if err != nil {
		t.Fatal(err)
	}
	mean := make(vecmath.Point, 2)
	db.ForEach(func(r dataset.Record) { mean.AddInPlace(r.P) })
	mean = mean.Scale(1 / float64(db.Len()))
	var want float64
	db.ForEach(func(r dataset.Record) { want += vecmath.SquaredDistance(r.P, mean) })
	want /= float64(db.Len())
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("TotalVariance=%v want %v", got, want)
	}
}

func TestEmptySetErrors(t *testing.T) {
	set, _ := bubble.NewSet(2, bubble.Options{})
	if _, err := Mean(set); err == nil {
		t.Error("Mean of empty set accepted")
	}
	if _, err := TotalVariance(set); err == nil {
		t.Error("TotalVariance of empty set accepted")
	}
}

func TestBoxValidation(t *testing.T) {
	set, _ := buildSet(t, 4)
	bad := []Box{
		{Lo: vecmath.Point{0}, Hi: vecmath.Point{1, 1}},
		{Lo: vecmath.Point{5, 5}, Hi: vecmath.Point{1, 1}},
	}
	for i, b := range bad {
		if _, err := RangeCount(set, b, 16, 1); err == nil {
			t.Errorf("bad box %d accepted", i)
		}
	}
}

func TestRangeCountAccuracy(t *testing.T) {
	set, db := buildSet(t, 5)
	cases := []Box{
		{Lo: vecmath.Point{0, 0}, Hi: vecmath.Point{50, 50}},       // cluster A only
		{Lo: vecmath.Point{50, 50}, Hi: vecmath.Point{120, 120}},   // cluster B only
		{Lo: vecmath.Point{-50, -50}, Hi: vecmath.Point{200, 200}}, // everything
		{Lo: vecmath.Point{15, 15}, Hi: vecmath.Point{25, 25}},     // partial overlap
	}
	for i, box := range cases {
		truth := 0
		db.ForEach(func(r dataset.Record) {
			if box.Contains(r.P) {
				truth++
			}
		})
		est, err := RangeCount(set, box, 200, 6)
		if err != nil {
			t.Fatal(err)
		}
		// 15% relative error + small absolute slack: the estimator models
		// Gaussian clusters as uniform balls.
		tol := 0.15*float64(truth) + 60
		if math.Abs(est-float64(truth)) > tol {
			t.Errorf("case %d: estimate %.0f vs truth %d (tol %.0f)", i, est, truth, tol)
		}
	}
}

func TestRangeCountDeterministic(t *testing.T) {
	set, _ := buildSet(t, 7)
	box := Box{Lo: vecmath.Point{10, 10}, Hi: vecmath.Point{30, 30}}
	a, err := RangeCount(set, box, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RangeCount(set, box, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different estimates: %v vs %v", a, b)
	}
}

func TestRangeCountEmptyRegion(t *testing.T) {
	set, _ := buildSet(t, 8)
	est, err := RangeCount(set, Box{Lo: vecmath.Point{400, 400}, Hi: vecmath.Point{500, 500}}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Fatalf("empty region estimated %v points", est)
	}
}

func TestAxisHistogram(t *testing.T) {
	set, db := buildSet(t, 9)
	hist, err := AxisHistogram(set, 0, 10, 0, 100, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 10 {
		t.Fatalf("bins=%d", len(hist))
	}
	var total float64
	for _, h := range hist {
		total += h
	}
	// Nearly all mass lies in [0,100].
	if total < 0.9*float64(db.Len()) {
		t.Fatalf("histogram mass %.0f of %d", total, db.Len())
	}
	// Bimodal: bins around x=20 and x=80 dominate, the middle is light.
	if hist[2] < hist[5] || hist[8] < hist[5] {
		t.Fatalf("expected bimodal histogram: %v", hist)
	}
	// Validation.
	if _, err := AxisHistogram(set, 5, 10, 0, 1, 8, 1); err == nil {
		t.Error("bad axis accepted")
	}
	if _, err := AxisHistogram(set, 0, 0, 0, 1, 8, 1); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := AxisHistogram(set, 0, 10, 5, 5, 8, 1); err == nil {
		t.Error("empty range accepted")
	}
	// Non-finite edges, and a range whose width overflows to +Inf or
	// underflows to zero, are invalid binnings rather than a bin index
	// computed from NaN or ±Inf.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		bins   int
		lo, hi float64
	}{
		{10, nan, 1}, {10, 0, nan}, {10, nan, nan},
		{10, -inf, 1}, {10, 0, inf}, {10, -inf, inf},
		{10, -math.MaxFloat64, math.MaxFloat64},
		{4096, 0, math.SmallestNonzeroFloat64},
	} {
		if _, err := AxisHistogram(set, 0, c.bins, c.lo, c.hi, 8, 1); err == nil {
			t.Errorf("bins=%d lo=%g hi=%g accepted", c.bins, c.lo, c.hi)
		}
	}
	// The last float below hi divides out to index bins, not bins-1, for
	// these binnings; a zero-extent bubble there must land in the last bin.
	edge, err := bubble.NewSet(1, bubble.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := math.Nextafter(1, 0)
	if _, err := edge.AddBubble(vecmath.Point{x}); err != nil {
		t.Fatal(err)
	}
	if err := edge.AssignTo(0, 1, vecmath.Point{x}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lo   float64
		bins int
	}{{0, 3}, {-1, 1}, {-1, 2}, {-1, 3}, {-1, 4}} {
		hist, err := AxisHistogram(edge, 0, c.bins, c.lo, 1, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if hist[c.bins-1] != 1 {
			t.Errorf("lo=%g bins=%d: histogram %v, want the point in the last bin", c.lo, c.bins, hist)
		}
	}
}

func TestBallGeometryHelpers(t *testing.T) {
	box := Box{Lo: vecmath.Point{0, 0}, Hi: vecmath.Point{10, 10}}
	if !ballInsideBox(vecmath.Point{5, 5}, 2, box) {
		t.Error("contained ball reported outside")
	}
	if ballInsideBox(vecmath.Point{9, 5}, 2, box) {
		t.Error("protruding ball reported inside")
	}
	if !ballIntersectsBox(vecmath.Point{11, 5}, 2, box) {
		t.Error("touching ball reported disjoint")
	}
	if ballIntersectsBox(vecmath.Point{20, 20}, 2, box) {
		t.Error("distant ball reported intersecting")
	}
}
