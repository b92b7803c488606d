// Package bubble implements data bubbles (Breunig et al. 2001, as used and
// extended by the paper): compressed representations of point sets built
// from the sufficient statistics (n, LS, SS), together with the paper's §3
// triangle-inequality accelerated assignment of points to their closest
// bubble seed (Lemma 1, Figure 2).
package bubble

import (
	"fmt"
	"math"
	"slices"

	"incbubbles/internal/dataset"
	"incbubbles/internal/vecmath"
)

// Bubble is one data bubble: a seed position used for assignment, the
// sufficient statistics (n, LS, SS) of the points assigned to it, and the
// IDs of those points in ascending order, from which the incremental
// split draws its new seeds.
//
// Definition 1 of the paper describes a bubble by (rep, n, extent, nnDist);
// all of these derive from (n, LS, SS) as shown in [5], so only the
// sufficient statistics are stored and mutated.
type Bubble struct {
	dim     int
	seed    vecmath.Point
	n       int
	ls      vecmath.Point
	ss      float64
	members []dataset.PointID // ascending
}

func newBubble(dim int, seed vecmath.Point) *Bubble {
	return &Bubble{
		dim:  dim,
		seed: seed.Clone(),
		ls:   make(vecmath.Point, dim),
	}
}

// Dim returns the dimensionality of the bubble.
func (b *Bubble) Dim() int { return b.dim }

// Seed returns the seed position points are compared against during
// assignment. The caller must not mutate it.
func (b *Bubble) Seed() vecmath.Point { return b.seed }

// N returns the number of points currently compressed by the bubble.
func (b *Bubble) N() int { return b.n }

// LS returns the linear sum of the compressed points (read-only).
func (b *Bubble) LS() vecmath.Point { return b.ls }

// SS returns the sum of squared norms of the compressed points.
func (b *Bubble) SS() float64 { return b.ss }

// Rep returns the representative of the bubble: the mean LS/n of its
// points. For an empty bubble the seed position is returned so that the
// bubble remains a well-defined object in space.
func (b *Bubble) Rep() vecmath.Point {
	if b.n == 0 {
		return b.seed.Clone()
	}
	return b.ls.Scale(1 / float64(b.n))
}

// Extent returns the radius around the representative that encloses most
// points of the bubble, estimated as the average pairwise distance of the
// compressed points:
//
//	extent = sqrt( (2·n·SS − 2·|LS|²) / (n·(n−1)) )
//
// Bubbles with fewer than two points have extent 0.
func (b *Bubble) Extent() float64 {
	if b.n < 2 {
		return 0
	}
	nf := float64(b.n)
	num := 2*nf*b.ss - 2*b.ls.Norm2()
	if num <= 0 {
		return 0 // numeric cancellation on near-identical points
	}
	return math.Sqrt(num / (nf * (nf - 1)))
}

// NNDist estimates the average k-nearest-neighbour distance inside the
// bubble assuming a uniform distribution of its n points within the extent
// radius: nnDist(k,B) = (k/n)^(1/d) · extent.
func (b *Bubble) NNDist(k int) float64 {
	if b.n == 0 || k <= 0 {
		return 0
	}
	return math.Pow(float64(k)/float64(b.n), 1/float64(b.dim)) * b.Extent()
}

// Compactness returns the sum of squared distances of the compressed
// points to the representative, the quality statistic reported in Table 1:
//
//	Σᵢ|xᵢ − rep|² = SS − |LS|²/n
func (b *Bubble) Compactness() float64 {
	if b.n == 0 {
		return 0
	}
	c := b.ss - b.ls.Norm2()/float64(b.n)
	if c < 0 {
		return 0
	}
	return c
}

// MemberIDs returns a copy of the IDs of the compressed points in
// ascending order. The deterministic order keeps split/merge operations —
// which sample new seeds from this slice — reproducible for a fixed RNG
// seed, and fixes the order Save writes.
func (b *Bubble) MemberIDs() []dataset.PointID {
	return slices.Clone(b.members)
}

// HasMember reports whether id is one of the compressed points.
func (b *Bubble) HasMember(id dataset.PointID) bool {
	_, ok := slices.BinarySearch(b.members, id)
	return ok
}

// absorb incorporates point p with identity id into the statistics and
// inserts id at its sorted position in the member list: an append when id
// is above every member, the common case: a new point carries the largest
// ID yet, and Build over a freshly filled database absorbs in ID order.
func (b *Bubble) absorb(id dataset.PointID, p vecmath.Point) {
	b.n++
	b.ls.AddInPlace(p)
	b.ss += p.Norm2()
	if k := len(b.members); k == 0 || b.members[k-1] < id {
		b.members = append(b.members, id)
	} else {
		at, _ := slices.BinarySearch(b.members, id)
		b.members = slices.Insert(b.members, at, id)
	}
}

// release decrements the statistics for point p with identity id.
func (b *Bubble) release(id dataset.PointID, p vecmath.Point) error {
	if b.n == 0 {
		return fmt.Errorf("bubble: release from empty bubble")
	}
	at, ok := slices.BinarySearch(b.members, id)
	if !ok {
		return fmt.Errorf("bubble: point %d is not a member", id)
	}
	b.members = slices.Delete(b.members, at, at+1)
	b.n--
	b.ls.SubInPlace(p)
	b.ss -= p.Norm2()
	if b.n == 0 {
		// Snap to exact zero to stop floating-point residue accumulating
		// over many insert/delete cycles.
		for i := range b.ls {
			b.ls[i] = 0
		}
		b.ss = 0
	}
	return nil
}

// reset empties the bubble and moves its seed.
func (b *Bubble) reset(seed vecmath.Point) {
	b.seed = seed.Clone()
	b.n = 0
	b.ls = make(vecmath.Point, b.dim)
	b.ss = 0
	b.members = nil
}

// String summarises the bubble for diagnostics.
func (b *Bubble) String() string {
	return fmt.Sprintf("Bubble{n=%d rep=%v extent=%.3g}", b.n, b.Rep(), b.Extent())
}
