// Package cf implements BIRCH clustering features (Zhang, Ramakrishnan,
// Livny 1996). The paper uses clustering features as its point of
// contrast: Breunig et al. [5] showed data bubbles outperform CFs for
// hierarchical clustering, and optics.CFSpace clusters CFs built from the
// bubbles' own memberships to make that comparison reproducible.
package cf

import (
	"errors"
	"fmt"
	"math"

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

// Dim returns the dimensionality of the feature.
func (f *Feature) Dim() int { return f.ls.Dim() }

// N returns the number of summarized points.
func (f *Feature) N() int { return f.n }

// LS returns the linear sum (read-only).
func (f *Feature) LS() vecmath.Point { return f.ls }

// SS returns the square sum.
func (f *Feature) SS() float64 { return f.ss }

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

// Remove deletes one previously added point p (the deletion side of the
// incremental update model).
func (f *Feature) Remove(p vecmath.Point) error {
	if f.n == 0 {
		return errors.New("cf: remove from empty feature")
	}
	if p.Dim() != f.ls.Dim() {
		return fmt.Errorf("cf: point dimensionality %d want %d", p.Dim(), f.ls.Dim())
	}
	f.n--
	f.ls.SubInPlace(p)
	f.ss -= p.Norm2()
	if f.n == 0 {
		for i := range f.ls {
			f.ls[i] = 0
		}
		f.ss = 0
	}
	return nil
}

// Clone returns a deep copy of f.
func (f *Feature) Clone() *Feature {
	return &Feature{n: f.n, ls: f.ls.Clone(), ss: f.ss}
}

// Centroid returns LS/n (nil for an empty feature).
func (f *Feature) Centroid() vecmath.Point {
	if f.n == 0 {
		return nil
	}
	return f.ls.Scale(1 / float64(f.n))
}

// Radius returns the BIRCH radius: the RMS distance of points to the
// centroid, sqrt(SS/n − |LS/n|²).
func (f *Feature) Radius() float64 {
	if f.n == 0 {
		return 0
	}
	nf := float64(f.n)
	r2 := f.ss/nf - f.ls.Norm2()/(nf*nf)
	if r2 <= 0 {
		return 0
	}
	return math.Sqrt(r2)
}

// String formats the feature for diagnostics.
func (f *Feature) String() string {
	return fmt.Sprintf("CF{n=%d centroid=%v radius=%.3g}", f.n, f.Centroid(), f.Radius())
}
