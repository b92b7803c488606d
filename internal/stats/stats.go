// Package stats provides the descriptive statistics, Chebyshev bounds and
// random sampling used throughout the library: the β-quality classification
// of data bubbles (paper §4.1) rests on the mean and standard deviation of
// the β distribution and on Chebyshev's inequality, and the synthetic
// workloads are Gaussian mixtures drawn from seeded generators.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Running accumulates the mean of a univariate sample incrementally
// (Welford's update). The zero value is an empty accumulator.
type Running struct {
	n    int
	mean float64
}

// Add incorporates x into the sample.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// Mean returns the sample mean (0 for an empty sample).
func (r *Running) Mean() float64 { return r.mean }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	mean, _ = Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs))), nil
}

// SampleStd returns the Bessel-corrected standard deviation of xs, or 0 for
// samples smaller than 2.
func SampleStd(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}
