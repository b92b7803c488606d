package eval

import (
	"math"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/extract"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func TestFScorePerfect(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 1}
	found := []int{5, 5, 5, 9, 9, 9} // labels need not match numerically
	f, err := FScore(truth, found)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 1e-12 {
		t.Fatalf("perfect clustering F=%v", f)
	}
}

func TestFScoreAllNoiseFound(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	found := []int{Noise, Noise, Noise, Noise}
	f, err := FScore(truth, found)
	if err != nil {
		t.Fatal(err)
	}
	if f != 0 {
		t.Fatalf("all-noise F=%v", f)
	}
}

func TestFScoreMergedClusters(t *testing.T) {
	// Two equal truth classes merged into one found cluster:
	// p=0.5, r=1 → F = 2/3 for each class.
	truth := []int{0, 0, 1, 1}
	found := []int{3, 3, 3, 3}
	f, err := FScore(truth, found)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("merged F=%v want 2/3", f)
	}
}

func TestFScoreSplitCluster(t *testing.T) {
	// One truth class split in half: best found cluster has p=1, r=0.5 →
	// F = 2/3.
	truth := []int{0, 0, 0, 0}
	found := []int{1, 1, 2, 2}
	f, err := FScore(truth, found)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("split F=%v want 2/3", f)
	}
}

func TestFScoreNoiseHandling(t *testing.T) {
	// Truth noise points absorbed into a cluster hurt its precision.
	truth := []int{0, 0, Noise, Noise}
	found := []int{1, 1, 1, 1}
	f, err := FScore(truth, found)
	if err != nil {
		t.Fatal(err)
	}
	// p = 2/4, r = 1 → F = 2*(0.5)/(1.5) = 2/3.
	if math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("noise-dilution F=%v want 2/3", f)
	}
}

func TestFScoreErrors(t *testing.T) {
	if _, err := FScore([]int{0}, []int{0, 1}); err == nil {
		t.Error("misaligned slices accepted")
	}
	if _, err := FScore([]int{Noise}, []int{0}); err == nil {
		t.Error("all-noise truth accepted")
	}
}

func TestFScoreWeightedAverage(t *testing.T) {
	// Class 0 (size 8) perfect, class 1 (size 2) lost entirely:
	// F = 0.8*1 + 0.2*0 = 0.8.
	truth := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	found := []int{3, 3, 3, 3, 3, 3, 3, 3, Noise, Noise}
	f, err := FScore(truth, found)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.8) > 1e-12 {
		t.Fatalf("weighted F=%v want 0.8", f)
	}
}

func twoClusterDB(t *testing.T, seed int64) *dataset.DB {
	t.Helper()
	rng := stats.NewRNG(seed)
	db := dataset.MustNew(2)
	for i := 0; i < 400; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0}, 2), 0)
	}
	for i := 0; i < 400; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{80, 80}, 2), 1)
	}
	return db
}

func TestClusteringFScoreEndToEnd(t *testing.T) {
	db := twoClusterDB(t, 20)
	set, err := bubble.Build(db, 30, bubble.Options{
		UseTriangleInequality: true, RNG: stats.NewRNG(21),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ClusteringFScore(db, set, 10, extract.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if f < 0.95 {
		t.Fatalf("two trivially separable clusters scored F=%v", f)
	}
}

func TestAlignWithDBMissingPoints(t *testing.T) {
	db := dataset.MustNew(1)
	id0, _ := db.Insert(vecmath.Point{0}, 0)
	db.Insert(vecmath.Point{1}, 1)
	truth, flat := AlignWithDB(db, map[dataset.PointID]int{id0: 7})
	if len(truth) != 2 || len(flat) != 2 {
		t.Fatalf("lens: %d %d", len(truth), len(flat))
	}
	// One point mapped, the other Noise.
	foundNoise := 0
	for _, l := range flat {
		if l == Noise {
			foundNoise++
		}
	}
	if foundNoise != 1 {
		t.Fatalf("flat=%v", flat)
	}
}
