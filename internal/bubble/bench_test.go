package bubble

import (
	"fmt"
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func benchDB(b *testing.B, n, d int) *dataset.DB {
	b.Helper()
	rng := stats.NewRNG(1)
	db := dataset.MustNew(d)
	for i := 0; i < n; i++ {
		c := make(vecmath.Point, d)
		if i%2 == 1 {
			for j := range c {
				c[j] = 60
			}
		}
		db.Insert(rng.GaussianPoint(c, 3), i%2)
	}
	return db
}

// BenchmarkBuildTriangle measures §3 construction with pruning.
func BenchmarkBuildTriangle(b *testing.B) {
	db := benchDB(b, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(db, 100, Options{UseTriangleInequality: true, RNG: stats.NewRNG(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildWorkers compares serial and parallel Build at 10k points.
// The distcalcs/op metric must be identical across worker counts: the
// parallel fan-out changes who computes each distance, never which
// distances are computed.
func BenchmarkBuildWorkers(b *testing.B) {
	db := benchDB(b, 10000, 2)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var counter vecmath.Counter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := Build(db, 100, Options{
					UseTriangleInequality: true,
					RNG:                   stats.NewRNG(int64(i)),
					Counter:               &counter,
					Workers:               workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(counter.Computed())/float64(b.N), "distcalcs/op")
		})
	}
}

// BenchmarkAssignPoint measures one closest-seed search with pruning: one
// reused Finder seeded per item with stats.SubSeed, as phase 1 of Build
// and ApplyBatch does, against 500 seeds in 10-d, the paper-scale bubble
// count and dimension.
func BenchmarkAssignPoint(b *testing.B) {
	b.Run("finder/k=500/d=10", func(b *testing.B) {
		db := benchDB(b, 10000, 10)
		set, err := Build(db, 500, Options{UseTriangleInequality: true, RNG: stats.NewRNG(2)})
		if err != nil {
			b.Fatal(err)
		}
		f := set.NewFinder()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := f.ClosestSeed(db.At(i%db.Len()).P, stats.SubSeed(3, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(f.Tally().Computed)/float64(b.N), "distcalcs/op")
	})
}

// BenchmarkSaveLoad measures summary persistence round trips.
func BenchmarkSaveLoad(b *testing.B) {
	db := benchDB(b, 10000, 2)
	set, err := Build(db, 100, Options{UseTriangleInequality: true, RNG: stats.NewRNG(4)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writerCounter
		if err := set.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.n))
	}
}

type writerCounter struct{ n int }

func (w *writerCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
