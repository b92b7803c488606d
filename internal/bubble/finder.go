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
	return f.searchClosest(p, -1)
}

// ClosestSeedExcluding is ClosestSeed over all bubbles except index excl —
// the lookup the merge phase uses when a donor bubble's points are released
// to their next-closest bubbles.
//
//lint:hotpath
func (f *Finder) ClosestSeedExcluding(p vecmath.Point, excl int, seed int64) (int, float64, error) {
	f.probe = probeStream(seed)
	return f.searchClosest(p, excl)
}

// searchClosest is the Figure 2 closest-seed search over the Finder's own
// probe stream, candidate scratch buffer and distance tally.
//
// The winner is the minimum of (distance, bubble ID) over every
// candidate seed — the brute-force answer — whatever the probe order:
// Lemma 1 prunes a seed only when it is provably farther than the
// current candidate, or provably no closer and of higher ID, and a probe
// replaces the candidate only when it is closer, or equidistant with a
// lower ID. The probe order moves only the computed/pruned split of the
// distance accounting, whose sum is always the candidate count.
//
//lint:hotpath
func (f *Finder) searchClosest(p vecmath.Point, excl int) (int, float64, error) {
	s := f.set
	n := len(s.bubbles)
	if n == 0 || (n == 1 && excl == 0) {
		return 0, 0, ErrNoBubbles
	}
	if !s.opts.UseTriangleInequality {
		// Ascending scan with a strict < already breaks exact-distance
		// ties toward the lowest bubble ID.
		best, bestD := -1, 0.0
		for i, b := range s.bubbles {
			if i == excl {
				continue
			}
			d := f.tally.Distance(p, b.seed)
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		return best, bestD, nil
	}

	// Figure 2: CandidateSeeds starts as all seeds; a random candidate is
	// probed, all seeds Lemma 1 rules out are pruned, then a random
	// unpruned seed is probed, updating the candidate when it wins, until
	// no candidates remain.
	if cap(f.scratch) < n {
		//lint:allow hotpathalloc candidate scratch grows to the bubble count once, then is reused by every search
		f.scratch = make([]int, 0, n)
	}
	cands := f.scratch[:0]
	for i := range s.bubbles {
		if i != excl {
			//lint:allow hotpathalloc appends into the preallocated scratch, whose capacity is at least n by the check above
			cands = append(cands, i)
		}
	}
	var sc int
	sc, cands = pickCand(&f.probe, cands)
	minDist := f.tally.Distance(p, s.bubbles[sc].seed)
	pruned := 0
	for len(cands) > 0 {
		// Prune everything Lemma 1 rules out with the current candidate,
		// scanning its row of the seed distance matrix. By the triangle
		// inequality d(p, s_j) ≥ d(s_j, s_c) − minDist: past 2·minDist
		// seed j is strictly farther than the candidate, and at exactly
		// 2·minDist it can at best tie it, which only a lower ID wins.
		row := s.seedDist.dist[sc]
		kept := cands[:0]
		for _, j := range cands {
			//lint:allow floatsafe a seed exactly 2·minDist away may be equidistant with the candidate, so it is pruned only when its higher ID would lose that tie
			if row[j] > 2*minDist || (row[j] == 2*minDist && j > sc) {
				pruned++
				continue
			}
			//lint:allow hotpathalloc kept filters cands in place over the same backing array and never outgrows it
			kept = append(kept, j)
		}
		cands = kept
		// Probe unpruned seeds until one improves on the candidate. An
		// exact-distance tie is adopted only from a lower bubble ID, so
		// the candidate strictly decreases in (distance, ID) order and a
		// probed seed that loses is never the winner.
		improved := false
		for len(cands) > 0 {
			var j int
			j, cands = pickCand(&f.probe, cands)
			d := f.tally.Distance(p, s.bubbles[j].seed)
			//lint:allow floatsafe equidistant seeds resolve to the lowest bubble ID so assignment is probe-order independent
			if d < minDist || (d == minDist && j < sc) {
				sc, minDist = j, d
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	f.tally.PruneN(pruned)
	return sc, minDist, nil
}

// pickCand removes and returns a uniformly random element of cands,
// swapping the last element into its place. A named function rather than a
// closure inside searchClosest so the hot path allocates nothing.
//
//lint:hotpath
func pickCand(probe *probeStream, cands []int) (int, []int) {
	k := probe.intn(len(cands))
	idx := cands[k]
	cands[k] = cands[len(cands)-1]
	return idx, cands[:len(cands)-1]
}

// Tally returns the distance accounting accumulated since the last Flush.
func (f *Finder) Tally() vecmath.Tally { return f.tally }

// Flush folds the accumulated tally into the Set's shared counter and
// zeroes it.
func (f *Finder) Flush() { f.tally.AddTo(f.set.Counter()) }
