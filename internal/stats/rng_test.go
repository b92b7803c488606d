package stats

import (
	"math"
	"testing"

	"incbubbles/internal/vecmath"
)

func TestRNGReproducible(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

// moments accumulates a sample's mean and population standard deviation
// with Welford's algorithm: the oracle the generator tests check their
// draws against.
type moments struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the sample.
func (r *moments) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean returns the sample mean (0 for an empty sample).
func (r *moments) Mean() float64 { return r.mean }

// StdDev returns the population standard deviation (0 for fewer than 2
// samples).
func (r *moments) StdDev() float64 {
	if r.n < 2 {
		return 0
	}
	return math.Sqrt(r.m2 / float64(r.n))
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(7)
	var r moments
	for i := 0; i < 20000; i++ {
		r.Add(g.Normal(10, 2))
	}
	if math.Abs(r.Mean()-10) > 0.1 {
		t.Errorf("Normal mean=%v", r.Mean())
	}
	if math.Abs(r.StdDev()-2) > 0.1 {
		t.Errorf("Normal std=%v", r.StdDev())
	}
}

func TestGaussianPoint(t *testing.T) {
	g := NewRNG(3)
	c := vecmath.Point{100, -50, 3}
	var dims [3]moments
	for i := 0; i < 5000; i++ {
		p := g.GaussianPoint(c, 1.5)
		if p.Dim() != 3 {
			t.Fatalf("dim=%d", p.Dim())
		}
		for j, v := range p {
			dims[j].Add(v)
		}
	}
	for j := range dims {
		if math.Abs(dims[j].Mean()-c[j]) > 0.15 {
			t.Errorf("axis %d mean=%v want %v", j, dims[j].Mean(), c[j])
		}
		if math.Abs(dims[j].StdDev()-1.5) > 0.15 {
			t.Errorf("axis %d std=%v want 1.5", j, dims[j].StdDev())
		}
	}
}

func TestGaussianPointStds(t *testing.T) {
	g := NewRNG(4)
	c := vecmath.Point{0, 0}
	stds := []float64{0.5, 4}
	var a0, a1 moments
	for i := 0; i < 5000; i++ {
		p := g.GaussianPointStds(c, stds)
		a0.Add(p[0])
		a1.Add(p[1])
	}
	if math.Abs(a0.StdDev()-0.5) > 0.1 || math.Abs(a1.StdDev()-4) > 0.3 {
		t.Errorf("per-axis stds=(%v,%v)", a0.StdDev(), a1.StdDev())
	}
}

func TestUniformPointBoxes(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 500; i++ {
		p := g.UniformPoint(4, -1, 1)
		if p.Dim() != 4 {
			t.Fatalf("dim=%d", p.Dim())
		}
		for _, v := range p {
			if v < -1 || v >= 1 {
				t.Fatalf("out of box: %v", p)
			}
		}
	}
	lo := vecmath.Point{0, 10}
	hi := vecmath.Point{1, 20}
	for i := 0; i < 500; i++ {
		p := g.UniformPointBox(lo, hi)
		if p[0] < 0 || p[0] >= 1 || p[1] < 10 || p[1] >= 20 {
			t.Fatalf("out of box: %v", p)
		}
	}
}

func TestOnSphere(t *testing.T) {
	g := NewRNG(6)
	c := vecmath.Point{1, 2, 3}
	for i := 0; i < 200; i++ {
		p := g.OnSphere(c, 5)
		d := vecmath.Distance(c, p)
		if math.Abs(d-5) > 1e-9 {
			t.Fatalf("radius=%v", d)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := NewRNG(8)
	for trial := 0; trial < 100; trial++ {
		n, k := 50, 12
		idx := g.SampleWithoutReplacement(n, k)
		if len(idx) != k {
			t.Fatalf("len=%d", len(idx))
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= n {
				t.Fatalf("index out of range: %d", i)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
		}
	}
	// Full sample is a permutation.
	idx := g.SampleWithoutReplacement(5, 5)
	seen := map[int]bool{}
	for _, i := range idx {
		seen[i] = true
	}
	if len(seen) != 5 {
		t.Fatalf("full sample not a permutation: %v", idx)
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when k > n")
		}
	}()
	NewRNG(1).SampleWithoutReplacement(3, 4)
}

func TestPermAndShuffle(t *testing.T) {
	g := NewRNG(9)
	p := g.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Perm not a permutation: %v", p)
	}
	xs := []int{1, 2, 3, 4, 5}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("Shuffle lost elements: %v", xs)
	}
}
