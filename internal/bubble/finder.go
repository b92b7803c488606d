package bubble

import (
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

// Finder performs read-only closest-seed searches against a Set from one
// worker goroutine — the unit of phase 1 of the parallel assignment
// pipeline. Any number of Finders may search the same Set concurrently as
// long as nothing mutates the Set during the searches (no AddBubble /
// SetSeed / ResetBubble / RemoveBubble and no assignment or release): a
// search reads only the seed positions and the seed distance matrix, both
// frozen between mutation phases, while all mutable search state — the
// probe-order RNG, the candidate scratch buffer and the distance tally —
// is private to the Finder.
//
// Distance accounting accumulates in the private tally rather than the
// Set's shared counter; call Flush once the worker's chunk is done. Merged
// totals are exact because every search tallies each candidate seed as
// either computed or pruned exactly once.
type Finder struct {
	set     *Set
	rng     *stats.RNG
	scratch []int
	tally   vecmath.Tally
}

// NewFinder returns a search handle for concurrent read-only assignment
// against the set.
func (s *Set) NewFinder() *Finder {
	return &Finder{set: s, rng: stats.NewRNG(1)}
}

// ClosestSeed finds the bubble whose seed is closest to p, driving the
// randomized probe order of the Figure 2 search from the given seed. A
// fixed (point, seed) pair probes in the same order every time and hence
// performs exactly the same distance computations and prunes, no matter
// which worker runs it or when — the invariant the pipeline's determinism
// harness asserts.
//
//lint:hotpath
func (f *Finder) ClosestSeed(p vecmath.Point, seed int64) (int, float64, error) {
	f.rng.Reseed(seed)
	return f.set.searchClosest(p, -1, f.rng, &f.scratch, &f.tally)
}

// ClosestSeedExcluding is ClosestSeed over all bubbles except index excl —
// the lookup the merge phase uses when a donor bubble's points are released
// to their next-closest bubbles.
//
//lint:hotpath
func (f *Finder) ClosestSeedExcluding(p vecmath.Point, excl int, seed int64) (int, float64, error) {
	f.rng.Reseed(seed)
	return f.set.searchClosest(p, excl, f.rng, &f.scratch, &f.tally)
}

// Tally returns the distance accounting accumulated since the last Flush.
func (f *Finder) Tally() vecmath.Tally { return f.tally }

// Flush folds the accumulated tally into the Set's shared counter and
// zeroes it.
func (f *Finder) Flush() { f.tally.AddTo(f.set.Counter()) }
