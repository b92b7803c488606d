package optics

import (
	"math"
	"testing"

	"incbubbles/internal/cf"
	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func TestNewCFSpaceValidation(t *testing.T) {
	if _, err := NewCFSpace(nil); err == nil {
		t.Error("empty feature list accepted")
	}
	empty := cf.NewFeature(2)
	if _, err := NewCFSpace([]*cf.Feature{empty}); err == nil {
		t.Error("all-empty feature list accepted")
	}
}

func TestCFSpaceBasics(t *testing.T) {
	a, _ := cf.FromPoints([]vecmath.Point{{0, 0}, {2, 0}})
	b, _ := cf.FromPoints([]vecmath.Point{{10, 0}})
	empty := cf.NewFeature(2)
	s, err := NewCFSpace([]*cf.Feature{a, empty, b})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d (empty not skipped?)", s.Len())
	}
	if s.Weight(0) != 2 || s.Weight(1) != 1 {
		t.Fatalf("weights=(%d,%d)", s.Weight(0), s.Weight(1))
	}
	if s.ID(1) != 1 {
		t.Fatalf("ID=%d", s.ID(1))
	}
	// Centroid distance: (1,0) to (10,0) = 9.
	nb := s.Neighbors(0, math.Inf(1))
	if len(nb) != 2 || nb[0].Idx != 0 || math.Abs(nb[1].Dist-9) > 1e-12 {
		t.Fatalf("neighbors=%+v", nb)
	}
	// Core dist: feature 0 carries 2 points; minPts=2 → 0 (the CF
	// distortion the bubbles fix).
	if got := s.CoreDist(0, nb, 2); got != 0 {
		t.Fatalf("CoreDist=%v want 0", got)
	}
	if got := s.CoreDist(0, nb, 3); math.Abs(got-9) > 1e-12 {
		t.Fatalf("CoreDist(3)=%v want 9", got)
	}
	if got := s.CoreDist(0, nb, 10); !math.IsInf(got, 1) {
		t.Fatalf("CoreDist(10)=%v want Inf", got)
	}
}

func TestCFSpaceOrderingSeparatesClusters(t *testing.T) {
	rng := stats.NewRNG(14)
	var feats []*cf.Feature
	for i := 0; i < 15; i++ {
		f := cf.NewFeature(2)
		for j := 0; j < 20; j++ {
			f.Add(rng.GaussianPoint(vecmath.Point{0, 0}, 2))
		}
		feats = append(feats, f)
	}
	for i := 0; i < 15; i++ {
		f := cf.NewFeature(2)
		for j := 0; j < 20; j++ {
			f.Add(rng.GaussianPoint(vecmath.Point{90, 90}, 2))
		}
		feats = append(feats, f)
	}
	s, err := NewCFSpace(feats)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, Params{MinPts: 25})
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for _, e := range res.Order {
		if e.Reach > 40 || math.IsInf(e.Reach, 1) {
			big++
		}
	}
	if big != 2 {
		t.Fatalf("expected 2 boundary bars, got %d", big)
	}
}

func TestNewPointSpaceFromDB(t *testing.T) {
	db := dataset.MustNew(2)
	rng := stats.NewRNG(15)
	for i := 0; i < 100; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0}, 3), 0)
	}
	ps, err := NewPointSpaceFromDB(db)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 100 {
		t.Fatalf("Len=%d", ps.Len())
	}
	empty := dataset.MustNew(2)
	if _, err := NewPointSpaceFromDB(empty); err == nil {
		t.Fatal("empty db accepted")
	}
}
