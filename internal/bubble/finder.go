package bubble

import (
	"math/bits"

	"incbubbles/internal/vecmath"
)

// probeStream orders the probes of one Figure 2 search. It is a
// SplitMix64 generator (Steele, Lea and Flood, OOPSLA 2014) whose whole
// state is one uint64, so seeding it is a conversion: probeStream(seed).
// With the (distance, ID) tie rule of searchClosest the winner does not
// depend on the probe order, so the stream's statistical quality shapes
// only how many distances a search computes, never what it returns.
type probeStream uint64

// intn returns a value in [0,n) for n > 0: the next SplitMix64 output
// scaled into range by a 64×64→128-bit multiply.
//
//lint:hotpath
func (r *probeStream) intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	hi, _ := bits.Mul64(z^(z>>31), uint64(n))
	return int(hi)
}

// Finder performs read-only closest-seed searches against a Set from one
// worker goroutine — the unit of phase 1 of the parallel assignment
// pipeline. Any number of Finders may search the same Set concurrently as
// long as nothing mutates the Set during the searches (no AddBubble /
// SetSeed / ResetBubble / RemoveBubble and no assignment or release): a
// search reads only the seed positions and the seed distance matrix, both
// frozen between mutation phases, while all mutable search state — the
// probe stream, the candidate scratch buffer and the distance tally — is
// private to the Finder.
//
// Distance accounting accumulates in the private tally rather than the
// Set's shared counter; call Flush once the worker's chunk is done. Merged
// totals are exact because every search tallies each candidate seed as
// either computed or pruned exactly once.
type Finder struct {
	set     *Set
	probe   probeStream
	scratch []int
	tally   vecmath.Tally
}

// NewFinder returns a search handle for concurrent read-only assignment
// against the set.
func (s *Set) NewFinder() *Finder {
	return &Finder{set: s}
}

// ClosestSeed finds the bubble whose seed is closest to p, ordering the
// probes of the Figure 2 search by a stream seeded in O(1) from seed. The
// answer is the minimum of (distance, bubble ID) for every seed; a fixed
// (point, seed) pair also performs exactly the same distance computations
// and prunes, no matter which worker runs it or when — the invariant the
// determinism harness asserts.
//
//lint:hotpath
func (f *Finder) ClosestSeed(p vecmath.Point, seed int64) (int, float64, error) {
	f.probe = probeStream(seed)
	return f.set.searchClosest(p, -1, &f.probe, &f.scratch, &f.tally)
}

// ClosestSeedExcluding is ClosestSeed over all bubbles except index excl —
// the lookup the merge phase uses when a donor bubble's points are released
// to their next-closest bubbles.
//
//lint:hotpath
func (f *Finder) ClosestSeedExcluding(p vecmath.Point, excl int, seed int64) (int, float64, error) {
	f.probe = probeStream(seed)
	return f.set.searchClosest(p, excl, &f.probe, &f.scratch, &f.tally)
}

// Tally returns the distance accounting accumulated since the last Flush.
func (f *Finder) Tally() vecmath.Tally { return f.tally }

// Flush folds the accumulated tally into the Set's shared counter and
// zeroes it.
func (f *Finder) Flush() { f.tally.AddTo(f.set.Counter()) }
