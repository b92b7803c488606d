package bubble

import (
	"context"
	"errors"
	"fmt"

	"incbubbles/internal/dataset"
	"incbubbles/internal/parallel"
	"incbubbles/internal/stats"
	"incbubbles/internal/trace"
)

// Build constructs a set of data bubbles over db from scratch using the
// paper's two-step procedure (§3): retrieve numSeeds random points as
// seeds, then scan the database assigning every point to its closest seed.
// This is both the initial construction for the incremental scheme and the
// "complete rebuild" baseline of the evaluation.
//
// The assignment scan runs as a two-phase pipeline: phase 1 fans the
// closest-seed searches out over opts.Workers goroutines — each search is
// read-only against the freshly seeded set and orders its probes by its
// own SubSeed-seeded probe stream — and phase 2 absorbs the points
// serially in database order, so the sufficient statistics accumulate in a
// fixed floating-point order and the result is identical for every worker
// count.
func Build(db *dataset.DB, numSeeds int, opts Options) (*Set, error) {
	return BuildContext(context.Background(), db, numSeeds, opts)
}

// BuildContext is Build with cancellation: ctx cancels the phase-1 search
// fan-out, in which case no set is returned. The serial absorb phase is
// not interrupted — once assignment starts the build always yields a
// complete, invariant-satisfying set or an error, never a partial one.
func BuildContext(ctx context.Context, db *dataset.DB, numSeeds int, opts Options) (*Set, error) {
	if numSeeds <= 0 {
		return nil, errors.New("bubble: need at least one seed")
	}
	if db.Len() < numSeeds {
		return nil, fmt.Errorf("bubble: %d seeds requested from %d points", numSeeds, db.Len())
	}
	s, err := NewSet(db.Dim(), opts)
	if err != nil {
		return nil, err
	}
	bsp := opts.Tracer.Start("bubble.build")
	defer bsp.End()
	bsp.SetInt(trace.AttrCount, int64(db.Len()))
	rng := opts.RNG
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	// Step 1: random seeds. The seed span covers the O(numSeeds²)
	// seed-distance matrix construction inside AddBubble.
	ssp := bsp.Start("bubble.seeds").Bind(s.Counter())
	seedIDs, err := db.RandomIDs(rng, numSeeds)
	if err != nil {
		ssp.End()
		return nil, err
	}
	for _, id := range seedIDs {
		rec, err := db.Get(id)
		if err != nil {
			ssp.End()
			return nil, err
		}
		if _, err := s.AddBubble(rec.P); err != nil {
			ssp.End()
			return nil, err
		}
	}
	ssp.End()
	// Step 2, phase 1: find every point's closest seed concurrently.
	n := db.Len()
	targets := make([]int, n)
	base := rng.Int63()
	fsp := bsp.Start("bubble.search").Bind(s.Counter())
	err = parallel.ForEachWorker(ctx, n, parallel.Workers(opts.Workers, n),
		func(int) *Finder { return s.NewFinder() },
		func(f *Finder, i int) error {
			t, _, err := f.ClosestSeed(db.At(i).P, stats.SubSeed(base, i))
			targets[i] = t
			return err
		},
		func(_ int, f *Finder) error { f.Flush(); return nil })
	fsp.End()
	if err != nil {
		return nil, err
	}
	// Step 2, phase 2: absorb serially in database order.
	asp := bsp.Start("bubble.absorb").Bind(s.Counter())
	defer asp.End()
	for i := 0; i < n; i++ {
		rec := db.At(i)
		if err := s.AssignTo(targets[i], rec.ID, rec.P); err != nil {
			return nil, err
		}
	}
	return s, nil
}
