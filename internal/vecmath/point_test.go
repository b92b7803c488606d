package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatalf("Clone shares storage: p=%v", p)
	}
	if !p.Equal(Point{1, 2, 3}) {
		t.Fatalf("original mutated: %v", p)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{1, 2}, Point{1, 2}, true},
		{Point{1, 2}, Point{1, 3}, false},
		{Point{1, 2}, Point{1, 2, 3}, false},
		{Point{}, Point{}, true},
		{nil, Point{}, true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal(%v,%v)=%v want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if got := p.Add(q); !got.Equal(Point{5, 7, 9}) {
		t.Errorf("Add=%v", got)
	}
	if got := q.Sub(p); !got.Equal(Point{3, 3, 3}) {
		t.Errorf("Sub=%v", got)
	}
	if got := p.Scale(2); !got.Equal(Point{2, 4, 6}) {
		t.Errorf("Scale=%v", got)
	}
	// Operands untouched.
	if !p.Equal(Point{1, 2, 3}) || !q.Equal(Point{4, 5, 6}) {
		t.Errorf("operands mutated: p=%v q=%v", p, q)
	}
}

func TestInPlaceOps(t *testing.T) {
	p := Point{1, 1}
	p.AddInPlace(Point{2, 3})
	if !p.Equal(Point{3, 4}) {
		t.Fatalf("AddInPlace=%v", p)
	}
	p.SubInPlace(Point{1, 1})
	if !p.Equal(Point{2, 3}) {
		t.Fatalf("SubInPlace=%v", p)
	}
}

func TestDotNorm(t *testing.T) {
	p := Point{3, 4}
	if p.Dot(p) != 25 {
		t.Errorf("Dot=%v", p.Dot(p))
	}
	if p.Norm2() != 25 {
		t.Errorf("Norm2=%v", p.Norm2())
	}
	if p.Norm() != 5 {
		t.Errorf("Norm=%v", p.Norm())
	}
}

func TestDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := Distance(p, q); d != 5 {
		t.Errorf("Distance=%v", d)
	}
	if d := SquaredDistance(p, q); d != 25 {
		t.Errorf("SquaredDistance=%v", d)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dimension mismatch")
		}
	}()
	Distance(Point{1}, Point{1, 2})
}

func TestMean(t *testing.T) {
	if Mean(nil) != nil {
		t.Fatalf("Mean(nil) != nil")
	}
	m := Mean([]Point{{0, 0}, {2, 4}})
	if !m.Equal(Point{1, 2}) {
		t.Fatalf("Mean=%v", m)
	}
}

func TestLerp(t *testing.T) {
	p := Point{0, 0}
	q := Point{10, 20}
	if got := Lerp(p, q, 0); !got.Equal(p) {
		t.Errorf("Lerp t=0: %v", got)
	}
	if got := Lerp(p, q, 1); !got.Equal(q) {
		t.Errorf("Lerp t=1: %v", got)
	}
	if got := Lerp(p, q, 0.5); !got.Equal(Point{5, 10}) {
		t.Errorf("Lerp t=0.5: %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Point{1, 2}).IsFinite() {
		t.Errorf("finite point reported non-finite")
	}
	if (Point{1, math.NaN()}).IsFinite() {
		t.Errorf("NaN point reported finite")
	}
	if (Point{math.Inf(1)}).IsFinite() {
		t.Errorf("Inf point reported finite")
	}
}

func randomPoint(r *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = r.NormFloat64() * 10
	}
	return p
}

// Property: triangle inequality holds for Distance.
func TestTriangleInequalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(16)
		a, b, c := randomPoint(r, d), randomPoint(r, d), randomPoint(r, d)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: distance is symmetric and non-negative, zero iff identical.
func TestDistanceMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(16)
		a, b := randomPoint(rr, d), randomPoint(rr, d)
		if Distance(a, b) != Distance(b, a) {
			return false
		}
		if Distance(a, b) < 0 {
			return false
		}
		return Distance(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: squared distance equals ‖a−b‖² computed via vector ops.
func TestSquaredDistanceConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(16)
		a, b := randomPoint(rr, d), randomPoint(rr, d)
		return almostEqual(SquaredDistance(a, b), a.Sub(b).Norm2(), 1e-6*(1+a.Norm2()+b.Norm2()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	if s := (Point{1.5, 2}).String(); s == "" {
		t.Fatal("empty String()")
	}
}
