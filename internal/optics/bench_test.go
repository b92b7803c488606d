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

// BenchmarkRunBubbles measures the recurring cost of reading an
// up-to-date hierarchy from the summaries, one sub-benchmark per layer:
// space builds the bubble space (its n(n−1)/2 bubble distances) and run
// is OPTICS over a built space at MinPts 10. The shapes are a 200-bubble
// 2-d set and the recluster loop's 500 10-d bubbles over 50k Complex
// points, three batches in.
func BenchmarkRunBubbles(b *testing.B) {
	for _, shape := range []struct {
		name string
		set  func() *bubble.Set
	}{
		{"k200_d2", func() *bubble.Set { return benchBubbleSet(b, 20000, 200) }},
		{"k500_d10", func() *bubble.Set { return complexSet(b, 10, 50000, 500, 3, 1) }},
	} {
		set := shape.set()
		b.Run(shape.name+"/space", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewBubbleSpace(set); err != nil {
					b.Fatal(err)
				}
			}
		})
		space, err := NewBubbleSpace(set)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/run", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(space, Params{MinPts: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
