// Package cf implements BIRCH clustering features (Zhang, Ramakrishnan,
// Livny 1996). The paper uses clustering features as its point of
// contrast: Breunig et al. [5] showed data bubbles outperform CFs for
// hierarchical clustering, and optics.CFSpace clusters CFs built from the
// bubbles' own memberships to make that comparison reproducible.
package cf

import (
	"errors"
	"fmt"

	"incbubbles/internal/vecmath"
)

// Feature is a clustering feature CF = (n, LS, SS): the number of points,
// their linear sum and their square sum. CFs are additive; the zero-point
// Feature of a given dimensionality is the identity.
type Feature struct {
	n  int
	ls vecmath.Point
	ss float64
}

// NewFeature returns an empty feature for d-dimensional points.
func NewFeature(d int) *Feature {
	return &Feature{ls: make(vecmath.Point, d)}
}

// FromPoints builds a feature summarizing pts.
func FromPoints(pts []vecmath.Point) (*Feature, error) {
	if len(pts) == 0 {
		return nil, errors.New("cf: no points")
	}
	f := NewFeature(pts[0].Dim())
	for _, p := range pts {
		if err := f.Add(p); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// N returns the number of summarized points.
func (f *Feature) N() int { return f.n }

// Add incorporates point p.
func (f *Feature) Add(p vecmath.Point) error {
	if p.Dim() != f.ls.Dim() {
		return fmt.Errorf("cf: point dimensionality %d want %d", p.Dim(), f.ls.Dim())
	}
	f.n++
	f.ls.AddInPlace(p)
	f.ss += p.Norm2()
	return nil
}

// Centroid returns LS/n (nil for an empty feature).
func (f *Feature) Centroid() vecmath.Point {
	if f.n == 0 {
		return nil
	}
	return f.ls.Scale(1 / float64(f.n))
}
