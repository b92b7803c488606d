package bubble

import (
	"math"
	"testing"
	"testing/quick"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func mkBubble(t *testing.T, pts []vecmath.Point) *Bubble {
	t.Helper()
	b := newBubble(len(pts[0]), pts[0])
	for i, p := range pts {
		b.absorb(dataset.PointID(i), p)
	}
	return b
}

// Brute-force reference quantities.
func bruteRep(pts []vecmath.Point) vecmath.Point { return vecmath.Mean(pts) }

func bruteExtent(pts []vecmath.Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum += vecmath.SquaredDistance(pts[i], pts[j])
		}
	}
	return math.Sqrt(sum / float64(n*(n-1)))
}

func bruteCompactness(pts []vecmath.Point) float64 {
	rep := bruteRep(pts)
	var sum float64
	for _, p := range pts {
		sum += vecmath.SquaredDistance(p, rep)
	}
	return sum
}

func TestBubbleDerivedStatistics(t *testing.T) {
	pts := []vecmath.Point{{0, 0}, {2, 0}, {0, 2}, {2, 2}, {1, 1}}
	b := mkBubble(t, pts)
	if b.N() != 5 {
		t.Fatalf("N=%d", b.N())
	}
	if !b.Rep().Equal(bruteRep(pts)) {
		t.Errorf("Rep=%v want %v", b.Rep(), bruteRep(pts))
	}
	if got, want := b.Extent(), bruteExtent(pts); math.Abs(got-want) > 1e-9 {
		t.Errorf("Extent=%v want %v", got, want)
	}
	if got, want := b.Compactness(), bruteCompactness(pts); math.Abs(got-want) > 1e-9 {
		t.Errorf("Compactness=%v want %v", got, want)
	}
}

// Property: sufficient-statistics-derived extent and compactness match the
// brute-force definitions for random point sets.
func TestBubbleStatisticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		d := 1 + rng.Intn(5)
		n := 2 + rng.Intn(30)
		pts := make([]vecmath.Point, n)
		for i := range pts {
			pts[i] = rng.GaussianPoint(make(vecmath.Point, d), 10)
		}
		b := newBubble(d, pts[0])
		for i, p := range pts {
			b.absorb(dataset.PointID(i), p)
		}
		scale := 1 + b.SS()
		if math.Abs(b.Extent()-bruteExtent(pts)) > 1e-9*scale {
			return false
		}
		if math.Abs(b.Compactness()-bruteCompactness(pts)) > 1e-9*scale {
			return false
		}
		return vecmath.Distance(b.Rep(), bruteRep(pts)) < 1e-9*math.Sqrt(scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNNDist(t *testing.T) {
	pts := make([]vecmath.Point, 100)
	rng := stats.NewRNG(1)
	for i := range pts {
		pts[i] = rng.GaussianPoint(vecmath.Point{0, 0}, 5)
	}
	b := mkBubble(t, pts)
	// nnDist(k) = (k/n)^(1/d) * extent, monotone in k.
	e := b.Extent()
	want1 := math.Pow(1.0/100, 0.5) * e
	if got := b.NNDist(1); math.Abs(got-want1) > 1e-12 {
		t.Errorf("NNDist(1)=%v want %v", got, want1)
	}
	if b.NNDist(1) >= b.NNDist(5) {
		t.Error("NNDist not monotone in k")
	}
	if got := b.NNDist(100); math.Abs(got-e) > 1e-12 {
		t.Errorf("NNDist(n)=%v want extent %v", got, e)
	}
	if b.NNDist(0) != 0 {
		t.Error("NNDist(0) != 0")
	}
	empty := newBubble(2, vecmath.Point{0, 0})
	if empty.NNDist(1) != 0 || empty.Extent() != 0 || empty.Compactness() != 0 {
		t.Error("empty bubble stats nonzero")
	}
	if !empty.Rep().Equal(vecmath.Point{0, 0}) {
		t.Error("empty bubble Rep != seed")
	}
}

func TestAbsorbReleaseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		base := make([]vecmath.Point, 6)
		b := newBubble(3, vecmath.Point{0, 0, 0})
		for i := range base {
			base[i] = rng.GaussianPoint(vecmath.Point{0, 0, 0}, 100)
			b.absorb(dataset.PointID(i), base[i])
		}
		wantN, wantExtent := b.N(), b.Extent()
		extra := make([]vecmath.Point, 10)
		for i := range extra {
			extra[i] = rng.GaussianPoint(vecmath.Point{0, 0, 0}, 100)
			b.absorb(dataset.PointID(100+i), extra[i])
		}
		for i, p := range extra {
			if err := b.release(dataset.PointID(100+i), p); err != nil {
				return false
			}
		}
		return b.N() == wantN && math.Abs(b.Extent()-wantExtent) < 1e-6*(1+wantExtent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseErrors(t *testing.T) {
	b := newBubble(1, vecmath.Point{0})
	if err := b.release(1, vecmath.Point{0}); err == nil {
		t.Error("release from empty bubble accepted")
	}
	b.absorb(1, vecmath.Point{5})
	if err := b.release(2, vecmath.Point{5}); err == nil {
		t.Error("release of non-member accepted")
	}
	if err := b.release(1, vecmath.Point{5}); err != nil {
		t.Errorf("valid release rejected: %v", err)
	}
	if b.N() != 0 || b.SS() != 0 || b.LS().Norm() != 0 {
		t.Errorf("stats not zeroed after full drain: %v", b)
	}
}

func TestResetAndMembers(t *testing.T) {
	b := newBubble(2, vecmath.Point{1, 1})
	b.absorb(7, vecmath.Point{3, 3})
	if !b.HasMember(7) || len(b.MemberIDs()) != 1 {
		t.Fatal("member list broken")
	}
	b.reset(vecmath.Point{9, 9})
	if b.N() != 0 || b.HasMember(7) || !b.Seed().Equal(vecmath.Point{9, 9}) {
		t.Fatalf("reset incomplete: %v", b)
	}
}

func TestBubbleString(t *testing.T) {
	b := newBubble(2, vecmath.Point{0, 0})
	if b.String() == "" {
		t.Error("empty String")
	}
}
