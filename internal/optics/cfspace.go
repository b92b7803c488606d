package optics

import (
	"errors"
	"math"
	"sort"

	"incbubbles/internal/cf"
	"incbubbles/internal/dataset"
	"incbubbles/internal/kdtree"
	"incbubbles/internal/vecmath"
)

// CFSpace adapts BIRCH clustering features to Space, treating every CF as
// a point at its centroid weighted by its population — the "sufficient
// statistics without distance corrections" usage the data-bubbles paper
// [5] compared against and found markedly worse for hierarchical
// clustering. It exists to make that comparison reproducible: contrast
// ClusteringFScore over a BubbleSpace with one over a CFSpace built from
// the same database.
type CFSpace struct {
	cents   []vecmath.Point
	weights []int
	dists   [][]float64
}

// NewCFSpace snapshots the centroids and populations of the given
// clustering features (empty ones are skipped).
func NewCFSpace(feats []*cf.Feature) (*CFSpace, error) {
	s := &CFSpace{}
	for _, f := range feats {
		if f.N() == 0 {
			continue
		}
		s.cents = append(s.cents, f.Centroid())
		s.weights = append(s.weights, f.N())
	}
	if len(s.cents) == 0 {
		return nil, errors.New("optics: no non-empty clustering features")
	}
	n := len(s.cents)
	s.dists = make([][]float64, n)
	for i := range s.dists {
		s.dists[i] = make([]float64, n)
	}
	// Tally into a throwaway counter: the CF baseline's build work is
	// counted but kept out of any shared bubble accounting.
	ctr := new(vecmath.Counter)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := ctr.Distance(s.cents[i], s.cents[j])
			s.dists[i][j] = d
			s.dists[j][i] = d
		}
	}
	return s, nil
}

// Len implements Space.
func (s *CFSpace) Len() int { return len(s.cents) }

// Weight implements Space.
func (s *CFSpace) Weight(i int) int { return s.weights[i] }

// ID implements Space: the index of the feature.
func (s *CFSpace) ID(i int) uint64 { return uint64(i) }

// Neighbors implements Space by matrix scan; the neighbours come by
// ascending distance, which CoreDist relies on.
func (s *CFSpace) Neighbors(i int, eps float64) []Neighbor {
	out := make([]Neighbor, 0, len(s.cents))
	for j := range s.cents {
		d := s.dists[i][j]
		if d <= eps || math.IsInf(eps, 1) {
			out = append(out, Neighbor{Idx: j, Dist: d})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out
}

// CoreDist implements Space by accumulating neighbouring populations in
// distance order — the naive generalisation without the data bubbles'
// nnDist estimate (a CF carrying ≥ MinPts points has core distance 0,
// which is precisely the distortion data bubbles fix).
func (s *CFSpace) CoreDist(i int, neighbors []Neighbor, minPts int) float64 {
	cum := 0
	for _, nb := range neighbors {
		cum += s.weights[nb.Idx]
		if cum >= minPts {
			return nb.Dist
		}
	}
	return math.Inf(1)
}

// NewPointSpaceFromDB indexes every current point of db as a PointSpace —
// the raw-OPTICS baseline: clustering the database without any
// summarization.
func NewPointSpaceFromDB(db *dataset.DB) (*PointSpace, error) {
	items := make([]kdtree.Item, 0, db.Len())
	db.ForEach(func(r dataset.Record) {
		items = append(items, kdtree.Item{ID: uint64(r.ID), P: r.P})
	})
	return NewPointSpace(items)
}
