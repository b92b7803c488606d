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

// Running accumulates a univariate sample incrementally using Welford's
// algorithm, supporting both additions and removals so that the β
// distribution can be maintained as bubbles change. The zero value is an
// empty accumulator.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the sample.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Remove deletes one previous observation x from the sample. Removing a
// value that was never added yields undefined statistics, as with any
// decremental sufficient-statistics scheme.
func (r *Running) Remove(x float64) {
	if r.n <= 1 {
		*r = Running{}
		return
	}
	nf := float64(r.n)
	oldMean := (nf*r.mean - x) / (nf - 1)
	r.m2 -= (x - r.mean) * (x - oldMean)
	if r.m2 < 0 {
		r.m2 = 0 // guard against floating point cancellation
	}
	r.mean = oldMean
	r.n--
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 for an empty sample).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance (0 for fewer than 2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

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
