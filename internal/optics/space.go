// Package optics implements the OPTICS hierarchical clustering algorithm
// (Ankerst et al. 1999) over two kinds of objects: raw database points and
// data bubbles. The bubble variant uses the adapted distance, core distance
// and virtual reachability of Breunig et al. 2001, which is how the paper
// obtains hierarchical clusterings from its (incremental or rebuilt) data
// summarizations.
package optics

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"time"

	"incbubbles/internal/bubble"
	"incbubbles/internal/kdtree"
	"incbubbles/internal/parallel"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
	"incbubbles/internal/vecmath"
)

// Neighbor is a neighbouring object index with its distance.
type Neighbor struct {
	Idx  int
	Dist float64
}

// Space abstracts the object collection OPTICS runs over.
type Space interface {
	// Len returns the number of objects.
	Len() int
	// Weight returns how many database points object i represents
	// (1 for raw points, n for a data bubble).
	Weight(i int) int
	// Neighbors returns all objects within eps of object i, including i
	// itself, each exactly once. The order is the implementation's own:
	// Run's result does not depend on it, because the seed queue pops by
	// the total order (reach, index) and an update keeps the minimum
	// reach. The caller must not modify the returned slice.
	Neighbors(i int, eps float64) []Neighbor
	// CoreDist returns the core distance of object i with respect to
	// minPts given its eps-neighbourhood as Neighbors returned it, or +Inf
	// when undefined.
	CoreDist(i int, neighbors []Neighbor, minPts int) float64
	// ID returns a stable external identifier for object i (a point ID or
	// a bubble index).
	ID(i int) uint64
}

// PointSpace adapts a static point set (via a k-d tree) to Space. Item IDs
// must be unique.
type PointSpace struct {
	tree  *kdtree.Tree
	items []kdtree.Item
	byID  map[uint64]int
}

// NewPointSpace indexes the given items.
func NewPointSpace(items []kdtree.Item) (*PointSpace, error) {
	if len(items) == 0 {
		return nil, errors.New("optics: empty point space")
	}
	tr, err := kdtree.Build(items)
	if err != nil {
		return nil, err
	}
	s := &PointSpace{
		tree:  tr,
		items: append([]kdtree.Item(nil), items...),
		byID:  make(map[uint64]int, len(items)),
	}
	for i, it := range s.items {
		if _, dup := s.byID[it.ID]; dup {
			return nil, errors.New("optics: duplicate point IDs")
		}
		s.byID[it.ID] = i
	}
	return s, nil
}

// Len implements Space.
func (s *PointSpace) Len() int { return len(s.items) }

// Weight implements Space: every raw point represents itself.
func (s *PointSpace) Weight(int) int { return 1 }

// ID implements Space.
func (s *PointSpace) ID(i int) uint64 { return s.items[i].ID }

// Point returns the coordinates of object i.
func (s *PointSpace) Point(i int) vecmath.Point { return s.items[i].P }

// Neighbors implements Space using an ε-range query; the neighbours come
// by ascending distance, which CoreDist relies on.
func (s *PointSpace) Neighbors(i int, eps float64) []Neighbor {
	var found []kdtree.Neighbor
	if math.IsInf(eps, 1) {
		found = s.tree.KNN(s.items[i].P, s.tree.Len())
	} else {
		found = s.tree.Range(s.items[i].P, eps)
	}
	out := make([]Neighbor, 0, len(found))
	for _, n := range found {
		out = append(out, Neighbor{Idx: s.byID[n.Item.ID], Dist: n.Dist})
	}
	return out
}

// CoreDist implements Space: the distance to the minPts-th nearest point
// (the query point itself counts), or +Inf if the neighbourhood is smaller.
func (s *PointSpace) CoreDist(_ int, neighbors []Neighbor, minPts int) float64 {
	if len(neighbors) < minPts {
		return math.Inf(1)
	}
	return neighbors[minPts-1].Dist
}

// BubbleSpace adapts the non-empty bubbles of a Set to Space, using the
// bubble–bubble distance of Breunig et al. 2001:
//
//	d(B,C) = d(rep) − (eB+eC) + nn1(B) + nn1(C)   if d(rep) − (eB+eC) ≥ 0
//	         max(nn1(B), nn1(C))                   otherwise
//
// Empty bubbles are excluded: they compress no points and must not appear
// in the clustering structure.
//
// The space holds the n×n distance matrix as one row store in index
// order: entry j of row i is {j, d(i,j)}. No row is sorted, because only
// CoreDist's small-bubble branch needs distance order (see CoreDist).
type BubbleSpace struct {
	set     *bubble.Set
	idx     []int // positions of non-empty bubbles in the set
	reps    []vecmath.Point
	extents []float64
	nn1     []float64
	weights []int
	rows    []Neighbor // row i is rows[i*n : (i+1)*n], in index order
	ctr     *vecmath.Counter
}

// NewBubbleSpace snapshots the current state of set. Later mutation of the
// set does not affect the space.
func NewBubbleSpace(set *bubble.Set) (*BubbleSpace, error) {
	return NewBubbleSpaceWorkers(set, 0)
}

// NewBubbleSpaceTelemetry is NewBubbleSpaceWorkers with build accounting
// reported into sink (build count, object count, wall time) and an
// optics.space span recorded on tracer. Both observers are optional and
// nil-safe; the space itself is unaffected by instrumentation.
func NewBubbleSpaceTelemetry(set *bubble.Set, workers int, sink *telemetry.Sink, tracer *trace.Tracer) (*BubbleSpace, error) {
	sp := tracer.Start("optics.space")
	defer sp.End()
	start := time.Now()
	s, err := NewBubbleSpaceWorkers(set, workers)
	if err != nil {
		return nil, err
	}
	// The build counts into the space's private counter (see
	// NewBubbleSpaceWorkers), so the span attrs are set from its totals
	// rather than by binding a shared counter: clustering-side distance
	// work stays out of the summarizer's accounting but still shows up in
	// the trace.
	computed, pruned := s.ctr.Snapshot()
	sp.SetInt(trace.AttrDistComputed, int64(computed))
	sp.SetInt(trace.AttrDistPruned, int64(pruned))
	sp.SetInt(trace.AttrCount, int64(s.Len()))
	if sink != nil {
		sink.Counter(telemetry.MetricOpticsSpaceBuilds).Inc()
		sink.Counter(telemetry.MetricOpticsSpaceObjects).Add(uint64(s.Len()))
		sink.Histogram(telemetry.MetricOpticsSpaceSeconds, telemetry.SecondsBounds()).
			Observe(time.Since(start).Seconds())
	}
	return s, nil
}

// NewBubbleSpaceWorkers is NewBubbleSpace with an explicit worker bound for
// the n(n−1)/2 pairwise bubble distances that fill the row store behind
// Neighbors and CoreDist (≤0 selects GOMAXPROCS). Every cell is written
// exactly once from a pure computation, so the space is identical for
// every worker count.
func NewBubbleSpaceWorkers(set *bubble.Set, workers int) (*BubbleSpace, error) {
	// The build tallies into a private counter, not the set's: space
	// construction is clustering-side work and must not perturb the
	// summarizer's Figure 10–11 accounting.
	s := &BubbleSpace{set: set, ctr: new(vecmath.Counter)}
	for i, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		s.idx = append(s.idx, i)
		s.reps = append(s.reps, b.Rep())
		s.extents = append(s.extents, b.Extent())
		s.nn1 = append(s.nn1, b.NNDist(1))
		s.weights = append(s.weights, b.N())
	}
	if len(s.idx) == 0 {
		return nil, errors.New("optics: no non-empty bubbles")
	}
	n := len(s.idx)
	s.rows = make([]Neighbor, n*n)
	// Row i writes its diagonal cell, its cells (i, j>i) and their mirrors
	// (j, i): every cell has exactly one writer, so the fan-out is
	// race-free. Each row tallies locally and adds its count once.
	if err := parallel.ForEach(context.Background(), n, parallel.Workers(workers, n), func(i int) error {
		var tally vecmath.Tally
		row := s.rows[i*n : (i+1)*n]
		row[i] = Neighbor{Idx: i}
		for j := i + 1; j < n; j++ {
			d := s.bubbleDist(&tally, i, j)
			row[j] = Neighbor{Idx: j, Dist: d}
			s.rows[j*n+i] = Neighbor{Idx: i, Dist: d}
		}
		tally.AddTo(s.ctr)
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *BubbleSpace) bubbleDist(tally *vecmath.Tally, i, j int) float64 {
	dRep := tally.Distance(s.reps[i], s.reps[j])
	sep := dRep - (s.extents[i] + s.extents[j])
	if sep >= 0 {
		return sep + s.nn1[i] + s.nn1[j]
	}
	return math.Max(s.nn1[i], s.nn1[j])
}

// Len implements Space.
func (s *BubbleSpace) Len() int { return len(s.idx) }

// Weight implements Space: a bubble stands for its n compressed points.
func (s *BubbleSpace) Weight(i int) int { return s.weights[i] }

// ID implements Space: the index of the bubble within its Set.
func (s *BubbleSpace) ID(i int) uint64 { return uint64(s.idx[i]) }

// BubbleIndex returns the Set index of space object i (typed convenience).
func (s *BubbleSpace) BubbleIndex(i int) int { return s.idx[i] }

// NNDist returns nnDist(k) of space object i, used for virtual
// reachability during plot expansion.
func (s *BubbleSpace) NNDist(i, k int) float64 {
	return s.set.Bubble(s.idx[i]).NNDist(k)
}

// DistanceMatrix returns a copy of the pairwise bubble distances, e.g.
// for feeding a different hierarchical algorithm (single-link) with the
// same corrected distances OPTICS uses.
func (s *BubbleSpace) DistanceMatrix() [][]float64 {
	n := len(s.idx)
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, n)
		for j, nb := range s.row(i) {
			row[j] = nb.Dist
		}
		out[i] = row
	}
	return out
}

// Weights returns the per-object point populations.
func (s *BubbleSpace) Weights() []int {
	return append([]int(nil), s.weights...)
}

// row returns row i of the store, capped so that an append cannot reach
// row i+1.
func (s *BubbleSpace) row(i int) []Neighbor {
	n := len(s.idx)
	return s.rows[i*n : (i+1)*n : (i+1)*n]
}

// Neighbors implements Space. At eps = +Inf it returns row i of the store
// itself, in index order and uncopied; at a finite eps it returns a
// filtered copy holding the entries with Dist <= eps.
func (s *BubbleSpace) Neighbors(i int, eps float64) []Neighbor {
	row := s.row(i)
	if math.IsInf(eps, 1) {
		return row
	}
	out := make([]Neighbor, 0, len(row))
	for _, nb := range row {
		if nb.Dist <= eps {
			out = append(out, nb)
		}
	}
	return out
}

// CoreDist implements Space following Breunig et al.: when the bubble
// itself holds at least minPts points the core distance is its estimated
// minPts-nearest-neighbour distance nnDist(minPts); otherwise neighbouring
// bubbles' populations are accumulated in (distance, index) order until
// minPts points are covered. That branch sorts a copy of the
// neighbourhood, and it is the only code that needs distance order.
func (s *BubbleSpace) CoreDist(i int, neighbors []Neighbor, minPts int) float64 {
	if s.weights[i] >= minPts {
		return s.NNDist(i, minPts)
	}
	byDist := slices.Clone(neighbors)
	slices.SortFunc(byDist, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Idx, b.Idx)
	})
	cum := 0
	for _, nb := range byDist {
		cum += s.weights[nb.Idx]
		if cum >= minPts {
			if nb.Idx == i {
				return s.NNDist(i, s.weights[i])
			}
			return nb.Dist
		}
	}
	return math.Inf(1)
}
