// Package vecmath provides dense d-dimensional point arithmetic and the
// instrumented distance computations that the rest of the library is built
// on. All distance *calculations* (as opposed to comparisons) can be counted
// through a Counter so that experiments can report pruning factors the same
// way the paper does (Figures 10 and 11).
package vecmath

import (
	"fmt"
	"math"
)

// Point is a dense d-dimensional vector. The zero value is a 0-dimensional
// point. Points are plain slices so callers can construct them with literals.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Dim returns the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		//lint:allow floatsafe Equal is exact by contract; tolerance comparison lives in ApproxEqual
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Add returns p + q as a new point. It panics on dimension mismatch; the
// library only calls it on points drawn from the same database.
func (p Point) Add(q Point) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p − q as a new point.
func (p Point) Sub(q Point) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns s·p as a new point.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] * s
	}
	return r
}

// AddInPlace accumulates q into p.
func (p Point) AddInPlace(q Point) {
	mustSameDim(p, q)
	for i := range p {
		p[i] += q[i]
	}
}

// SubInPlace subtracts q from p in place.
func (p Point) SubInPlace(q Point) {
	mustSameDim(p, q)
	for i := range p {
		p[i] -= q[i]
	}
}

// Dot returns the inner product of p and q.
//
//lint:hotpath
func (p Point) Dot(q Point) float64 {
	mustSameDim(p, q)
	var s float64
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of p.
//
//lint:hotpath
func (p Point) Norm2() float64 {
	var s float64
	for _, v := range p {
		s += v * v
	}
	return s
}

// Norm returns the Euclidean norm of p.
//
//lint:hotpath
func (p Point) Norm() float64 { return math.Sqrt(p.Norm2()) }

// IsFinite reports whether every coordinate of p is a finite number.
func (p Point) IsFinite() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders p compactly for logs and test failures.
func (p Point) String() string {
	return fmt.Sprintf("%.4g", []float64(p))
}

func mustSameDim(p, q Point) {
	if len(p) != len(q) {
		//lint:allow nopanic mixed dimensionalities are a programmer error; the arithmetic API documents the panic
		panic(fmt.Sprintf("vecmath: dimension mismatch %d vs %d", len(p), len(q)))
	}
}

// SquaredDistance returns the squared Euclidean distance between p and q
// without touching any counter. Use Counter.Distance in code paths whose
// distance-computation volume is part of a reported experiment.
//
//lint:hotpath
func SquaredDistance(p, q Point) float64 {
	mustSameDim(p, q)
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Distance returns the Euclidean distance between p and q.
//
//lint:hotpath
func Distance(p, q Point) float64 { return math.Sqrt(SquaredDistance(p, q)) }

// Mean returns the centroid of pts. It returns nil for an empty slice.
func Mean(pts []Point) Point {
	if len(pts) == 0 {
		return nil
	}
	m := make(Point, len(pts[0]))
	for _, p := range pts {
		m.AddInPlace(p)
	}
	return m.Scale(1 / float64(len(pts)))
}

// Lerp returns the point (1−t)·p + t·q.
func Lerp(p, q Point, t float64) Point {
	mustSameDim(p, q)
	r := make(Point, len(p))
	for i := range p {
		r[i] = (1-t)*p[i] + t*q[i]
	}
	return r
}
