package stats

import (
	"errors"
	"math"
)

// ChebyshevK returns the multiplier k such that, by Chebyshev's inequality,
// at least fraction p of any distribution lies within k standard deviations
// of its mean: p ≤ 1 − 1/k² ⇒ k = 1/sqrt(1−p). The paper (§4.1) uses
// p = 0.9 (k ≈ 3.162) and reports p = 0.8 gives equivalent clustering
// quality.
func ChebyshevK(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, errors.New("stats: Chebyshev probability must be in (0,1)")
	}
	return 1 / math.Sqrt(1-p), nil
}

// Interval is a closed interval [Lo, Hi] on the real line.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x ∈ [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// ChebyshevBounds returns the interval [μ − kσ, μ + kσ] that contains at
// least fraction p of the distribution with the given mean and standard
// deviation, per Chebyshev's inequality.
func ChebyshevBounds(mean, std, p float64) (Interval, error) {
	k, err := ChebyshevK(p)
	if err != nil {
		return Interval{}, err
	}
	return Interval{Lo: mean - k*std, Hi: mean + k*std}, nil
}
