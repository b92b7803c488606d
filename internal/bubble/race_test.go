package bubble

import (
	"sync"
	"testing"

	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

func raceTestSet(t *testing.T, points, bubbles int) (*Set, *dataset.DB) {
	t.Helper()
	rng := stats.NewRNG(9)
	db := dataset.MustNew(3)
	for i := 0; i < points; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{float64(i % 5 * 20), 10, 10}, 2), i%5)
	}
	set, err := Build(db, bubbles, Options{
		UseTriangleInequality: true,
		RNG:                   stats.NewRNG(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	return set, db
}

// TestConcurrentFinders is the phase-1 concurrency contract: any number of
// Finders may search one Set concurrently as long as nothing mutates it,
// because searchClosest touches only the shared immutable state (seeds and
// the seed-distance matrix) plus per-Finder scratch. Run with -race this
// proves the claim; it also checks that a concurrent search agrees with
// one Finder's pass over every point given the same per-point probe seed.
func TestConcurrentFinders(t *testing.T) {
	set, db := raceTestSet(t, 600, 12)
	n := db.Len()
	startComputed, startPruned := set.Counter().Snapshot()
	want := make([]int, n)
	serial := set.NewFinder()
	for i := 0; i < n; i++ {
		target, _, err := serial.ClosestSeed(db.At(i).P, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = target
	}
	serial.Flush()
	midComputed, midPruned := set.Counter().Snapshot()
	serialComputed, serialPruned := midComputed-startComputed, midPruned-startPruned

	const finders = 8
	got := make([]int, n)
	var wg sync.WaitGroup
	for f := 0; f < finders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			fd := set.NewFinder()
			for i := f; i < n; i += finders {
				target, _, err := fd.ClosestSeed(db.At(i).P, int64(i))
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = target
			}
			fd.Flush()
		}(f)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: concurrent target %d != serial %d", i, got[i], want[i])
		}
	}
	afterComputed, afterPruned := set.Counter().Snapshot()
	if afterComputed-midComputed != serialComputed || afterPruned-midPruned != serialPruned {
		t.Fatalf("concurrent pass tallied (%d,%d), serial pass (%d,%d)",
			afterComputed-midComputed, afterPruned-midPruned, serialComputed, serialPruned)
	}
}

// TestPhaseDiscipline alternates the two phases of the pipeline under the
// race detector: a parallel read-only search phase, a barrier, then a
// serial mutation phase (SetSeed refreshes a row of the seed-distance
// matrix), repeated. The WaitGroup barriers between phases are exactly the
// synchronisation ApplyBatch provides; no race may be reported.
func TestPhaseDiscipline(t *testing.T) {
	set, db := raceTestSet(t, 300, 8)
	n := db.Len()
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for f := 0; f < 4; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				fd := set.NewFinder()
				for i := f; i < n; i += 4 {
					if _, _, err := fd.ClosestSeed(db.At(i).P, int64(round*n+i)); err != nil {
						t.Error(err)
						return
					}
				}
				fd.Flush()
			}(f)
		}
		wg.Wait() // end of read phase: searches never overlap the mutation below
		idx := round % set.Len()
		if err := set.SetSeed(idx, db.At(round).P); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
