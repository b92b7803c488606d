// Package approx answers approximate statistical queries from data
// bubbles alone — the secondary use the paper's introduction names for
// data summaries: "computing approximate statistics of data sets or
// quickly approximating the number of objects in a database within
// certain attribute ranges of interest".
//
// Global first and second moments are exact (they are linear in the
// sufficient statistics). Range counts are estimated under the same
// modelling assumption the bubbles themselves use: points are uniformly
// distributed within the extent radius around the representative.
package approx

import (
	"errors"
	"math"

	"incbubbles/internal/bubble"
	"incbubbles/internal/stats"
	"incbubbles/internal/vecmath"
)

// Count returns the exact number of summarized points (Σ n_i).
func Count(set *bubble.Set) int {
	total := 0
	for _, b := range set.Bubbles() {
		total += b.N()
	}
	return total
}

// Mean returns the exact global mean Σ LS_i / Σ n_i.
func Mean(set *bubble.Set) (vecmath.Point, error) {
	n := Count(set)
	if n == 0 {
		return nil, errors.New("approx: no summarized points")
	}
	sum := make(vecmath.Point, set.Dim())
	for _, b := range set.Bubbles() {
		sum.AddInPlace(b.LS())
	}
	return sum.Scale(1 / float64(n)), nil
}

// TotalVariance returns the exact trace of the global covariance matrix,
// Σ SS_i / N − |mean|² (the summed per-axis variances).
func TotalVariance(set *bubble.Set) (float64, error) {
	n := Count(set)
	if n == 0 {
		return 0, errors.New("approx: no summarized points")
	}
	var ss float64
	for _, b := range set.Bubbles() {
		ss += b.SS()
	}
	mean, err := Mean(set)
	if err != nil {
		return 0, err
	}
	v := ss/float64(n) - mean.Norm2()
	if v < 0 {
		v = 0
	}
	return v, nil
}

// Box is an axis-aligned query box [Lo, Hi] (inclusive).
type Box struct {
	Lo, Hi vecmath.Point
}

// Valid checks the box.
func (b Box) Valid(dim int) error {
	if b.Lo.Dim() != dim || b.Hi.Dim() != dim {
		return errors.New("approx: box dimensionality mismatch")
	}
	for j := range b.Lo {
		if b.Lo[j] > b.Hi[j] {
			return errors.New("approx: inverted box")
		}
	}
	return nil
}

// Contains reports whether p lies inside the box.
func (b Box) Contains(p vecmath.Point) bool {
	for j := range p {
		if p[j] < b.Lo[j] || p[j] > b.Hi[j] {
			return false
		}
	}
	return true
}

// RangeCount estimates how many summarized points fall inside the box,
// modelling every bubble as a uniform ball of radius extent around its
// representative and estimating the ball∩box overlap by quasi-random
// sampling (seeded — deterministic). samples controls the per-bubble
// sampling effort (default 64). Zero-extent bubbles contribute all or
// nothing by their representative.
func RangeCount(set *bubble.Set, box Box, samples int, seed int64) (float64, error) {
	if err := box.Valid(set.Dim()); err != nil {
		return 0, err
	}
	if samples <= 0 {
		samples = 64
	}
	rng := stats.NewRNG(seed)
	var total float64
	for _, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		total += float64(b.N()) * overlapFraction(b, box, samples, rng)
	}
	return total, nil
}

// overlapFraction estimates the fraction of the bubble's mass inside box.
func overlapFraction(b *bubble.Bubble, box Box, samples int, rng *stats.RNG) float64 {
	rep := b.Rep()
	ext := b.Extent()
	if ext == 0 {
		if box.Contains(rep) {
			return 1
		}
		return 0
	}
	// Fast accept/reject by bounding geometry first.
	if ballInsideBox(rep, ext, box) {
		return 1
	}
	if !ballIntersectsBox(rep, ext, box) {
		return 0
	}
	// Monte Carlo within the ball.
	inside := 0
	for i := 0; i < samples; i++ {
		p := sampleBall(rng, rep, ext)
		if box.Contains(p) {
			inside++
		}
	}
	return float64(inside) / float64(samples)
}

func ballInsideBox(c vecmath.Point, r float64, box Box) bool {
	for j := range c {
		if c[j]-r < box.Lo[j] || c[j]+r > box.Hi[j] {
			return false
		}
	}
	return true
}

func ballIntersectsBox(c vecmath.Point, r float64, box Box) bool {
	var d2 float64
	for j := range c {
		switch {
		case c[j] < box.Lo[j]:
			d := box.Lo[j] - c[j]
			d2 += d * d
		case c[j] > box.Hi[j]:
			d := c[j] - box.Hi[j]
			d2 += d * d
		}
	}
	return d2 <= r*r
}

// sampleBall draws a uniform point from the ball of radius r around c.
func sampleBall(rng *stats.RNG, c vecmath.Point, r float64) vecmath.Point {
	d := len(c)
	// Uniform direction times radius scaled by U^(1/d).
	p := rng.OnSphere(make(vecmath.Point, d), 1)
	scale := r * math.Pow(rng.Float64(), 1/float64(d))
	out := make(vecmath.Point, d)
	for j := range out {
		out[j] = c[j] + p[j]*scale
	}
	return out
}

// AxisHistogram estimates the marginal distribution of points along one
// axis as counts over equal-width bins spanning [lo, hi], using the same
// uniform-ball model. Points estimated outside [lo, hi] are dropped. lo,
// hi and the bin width must be finite, with hi > lo.
func AxisHistogram(set *bubble.Set, axis, bins int, lo, hi float64, samples int, seed int64) ([]float64, error) {
	if axis < 0 || axis >= set.Dim() {
		return nil, errors.New("approx: axis out of range")
	}
	width := (hi - lo) / float64(bins)
	// A positive, finite width means finite lo < hi; the negated
	// comparison also rejects NaN, which would otherwise reach the bin
	// index as int(NaN).
	if bins <= 0 || !(width > 0) || math.IsInf(width, 1) {
		return nil, errors.New("approx: invalid binning")
	}
	if samples <= 0 {
		samples = 64
	}
	rng := stats.NewRNG(seed)
	out := make([]float64, bins)
	deposit := func(x, mass float64) {
		if x < lo || x >= hi {
			return
		}
		// (x-lo)/width rounds up to bins for the last floats below hi.
		out[min(int((x-lo)/width), bins-1)] += mass
	}
	for _, b := range set.Bubbles() {
		if b.N() == 0 {
			continue
		}
		rep := b.Rep()
		ext := b.Extent()
		if ext == 0 {
			deposit(rep[axis], float64(b.N()))
			continue
		}
		mass := float64(b.N()) / float64(samples)
		for i := 0; i < samples; i++ {
			deposit(sampleBall(rng, rep, ext)[axis], mass)
		}
	}
	return out, nil
}
