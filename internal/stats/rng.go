package stats

import (
	"math"
	"math/rand"

	"incbubbles/internal/vecmath"
)

// RNG wraps math/rand with the point-sampling operations the synthetic
// workload generators need. All experiment randomness flows through RNG so
// runs are reproducible from a single seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Rand exposes the underlying *rand.Rand for operations not wrapped here.
func (g *RNG) Rand() *rand.Rand { return g.r }

// Reseed re-seeds the generator in place, as if freshly created with
// NewRNG(seed). It refills the source's whole 607-word state, so it suits
// once-per-batch use — the summarizer's replay reseed — and not per-item
// use: the per-point Figure 2 probe streams are one-word SplitMix64
// values seeded from SubSeed instead (internal/bubble).
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// SubSeed derives the k-th child seed of base with a SplitMix64 step. Every
// item of a parallel loop gets its own reproducible stream from
// (base, item ordinal), so the stream an item sees is independent of the
// worker that runs it and of execution order — the property the parallel
// assignment pipeline's determinism rests on.
func SubSeed(base int64, k int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(k)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normal sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// GaussianPoint samples a point from an axis-aligned Gaussian centred at
// center with per-axis standard deviation std.
func (g *RNG) GaussianPoint(center vecmath.Point, std float64) vecmath.Point {
	p := make(vecmath.Point, len(center))
	for i := range p {
		p[i] = center[i] + std*g.r.NormFloat64()
	}
	return p
}

// GaussianPointStds samples a point from an axis-aligned Gaussian with a
// per-axis standard deviation vector.
func (g *RNG) GaussianPointStds(center vecmath.Point, stds []float64) vecmath.Point {
	p := make(vecmath.Point, len(center))
	for i := range p {
		p[i] = center[i] + stds[i]*g.r.NormFloat64()
	}
	return p
}

// UniformPoint samples a point uniformly from the axis-aligned box
// [lo,hi)^d.
func (g *RNG) UniformPoint(d int, lo, hi float64) vecmath.Point {
	p := make(vecmath.Point, d)
	for i := range p {
		p[i] = g.Uniform(lo, hi)
	}
	return p
}

// UniformPointBox samples uniformly from the box with the given per-axis
// bounds.
func (g *RNG) UniformPointBox(lo, hi vecmath.Point) vecmath.Point {
	p := make(vecmath.Point, len(lo))
	for i := range p {
		p[i] = g.Uniform(lo[i], hi[i])
	}
	return p
}

// OnSphere samples a point uniformly on the sphere of the given radius
// centred at center, via normalised Gaussian sampling.
func (g *RNG) OnSphere(center vecmath.Point, radius float64) vecmath.Point {
	for {
		p := make(vecmath.Point, len(center))
		var n2 float64
		for i := range p {
			p[i] = g.r.NormFloat64()
			n2 += p[i] * p[i]
		}
		if n2 == 0 {
			continue
		}
		s := radius / math.Sqrt(n2)
		for i := range p {
			p[i] = center[i] + p[i]*s
		}
		return p
	}
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles n elements using the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0,n). It panics if k > n, matching the impossibility of the request.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		//lint:allow nopanic k>n is a programmer error with no sensible partial result; the API documents the panic
		panic("stats: sample larger than population")
	}
	// Floyd's algorithm: O(k) expected, no O(n) permutation for small k.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	g.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
