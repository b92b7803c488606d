// Package bubble exercises the rawdist analyzer: uncounted distance math
// in a core package, in every form the check recognizes, next to the
// counted and unrelated forms it must leave alone.
package bubble

import (
	"math"

	"incbubbles/internal/vecmath"
)

// Uncounted package-function calls are the direct violation.
func directCalls(p, q vecmath.Point) (float64, float64) {
	d := vecmath.Distance(p, q)        // want `uncounted vecmath\.Distance call`
	s := vecmath.SquaredDistance(p, q) // want `uncounted vecmath\.SquaredDistance call`
	return d, s
}

// A hand-rolled diff-square-accumulate loop is the same violation in
// disguise: the acceptance-criterion case for internal/bubble.
func handRolled(p, q []float64) float64 {
	var s float64
	for i := range p {
		s += (p[i] - q[i]) * (p[i] - q[i]) // want `raw Euclidean-distance loop`
	}
	return math.Sqrt(s)
}

// The two-step d := p[i]-q[i]; s += d*d form is recognized through the
// local's defining assignment.
func twoStep(p, q []float64) float64 {
	var s float64
	for i := 0; i < len(p); i++ {
		d := p[i] - q[i]
		s += d * d // want `raw Euclidean-distance loop`
	}
	return s
}

// s = s + e and math.Pow spellings count too.
func otherSpellings(p, q []float64) float64 {
	var s float64
	for i := range p {
		s = s + (p[i]-q[i])*(p[i]-q[i]) // want `raw Euclidean-distance loop`
	}
	for i := range p {
		s += math.Pow(p[i]-q[i], 2) // want `raw Euclidean-distance loop`
	}
	return s
}

// Counted calls are the sanctioned form: no diagnostics.
func counted(c *vecmath.Counter, t *vecmath.Tally, p, q vecmath.Point) float64 {
	return c.Distance(p, q) + c.SquaredDistance(p, q) + t.SquaredDistance(p, q)
}

// Variance-style accumulation squares a diff against a scalar, not a
// second coordinate: not a distance scan, no diagnostic.
func variance(p []float64, mean float64) float64 {
	var s float64
	for i := range p {
		s += (p[i] - mean) * (p[i] - mean)
	}
	return s / float64(len(p))
}

// Differences within one vector (successive-coordinate smoothness) share
// the base expression: not a point-to-point distance, no diagnostic.
func smoothness(p []float64) float64 {
	var s float64
	for i := 1; i < len(p); i++ {
		s += (p[i] - p[i-1]) * (p[i] - p[i-1])
	}
	return s
}

// An allow directive with a reason suppresses the finding on the next line.
// (Directives without a reason are malformed and reported; that path is
// covered by the framework's unit tests.)
func deliberate(p, q vecmath.Point) float64 {
	//lint:allow rawdist fixture exercises deliberate uncounted recomputation
	return vecmath.Distance(p, q)
}
