package optics

import (
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/kdtree"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func benchBubbleSet(b *testing.B, points, bubbles int) *bubble.Set {
	b.Helper()
	rng := stats.NewRNG(1)
	db := dataset.MustNew(2)
	for i := 0; i < points; i++ {
		c := vecmath.Point{0, 0}
		if i%2 == 1 {
			c = vecmath.Point{60, 60}
		}
		db.Insert(rng.GaussianPoint(c, 3), i%2)
	}
	set, err := bubble.Build(db, bubbles, bubble.Options{UseTriangleInequality: true, RNG: stats.NewRNG(2)})
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkRunBubbles measures OPTICS over a 200-bubble summary — the
// recurring cost of reading an up-to-date hierarchy from the summaries.
func BenchmarkRunBubbles(b *testing.B) {
	set := benchBubbleSet(b, 20000, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space, err := NewBubbleSpace(set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(space, Params{MinPts: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPoints measures raw-point OPTICS at a size where it is
// still tractable, for contrast with the bubble path.
func BenchmarkRunPoints(b *testing.B) {
	rng := stats.NewRNG(3)
	items := make([]kdtree.Item, 2000)
	for i := range items {
		c := vecmath.Point{0, 0}
		if i%2 == 1 {
			c = vecmath.Point{60, 60}
		}
		items[i] = kdtree.Item{ID: uint64(i), P: rng.GaussianPoint(c, 3)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space, err := NewPointSpace(items)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(space, Params{MinPts: 10, Eps: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
