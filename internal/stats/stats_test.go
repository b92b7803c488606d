package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var r Running
	var m moments
	for _, x := range xs {
		r.Add(x)
		m.Add(x)
	}
	mean, std, err := MeanStd(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Mean()-mean) > 1e-12 {
		t.Errorf("Running mean=%v batch=%v", r.Mean(), mean)
	}
	if math.Abs(m.StdDev()-std) > 1e-12 {
		t.Errorf("moments std=%v batch=%v", m.StdDev(), std)
	}
}

func TestMeanErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err=%v", err)
	}
	if _, _, err := MeanStd(nil); err != ErrEmpty {
		t.Errorf("MeanStd(nil) err=%v", err)
	}
}

func TestSampleStd(t *testing.T) {
	if SampleStd([]float64{5}) != 0 {
		t.Errorf("SampleStd singleton != 0")
	}
	got := SampleStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	want := 2.138089935299395 // known value
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SampleStd=%v want %v", got, want)
	}
}

func TestChebyshevK(t *testing.T) {
	k, err := ChebyshevK(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1/math.Sqrt(0.1)) > 1e-12 {
		t.Errorf("k=%v", k)
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, err := ChebyshevK(bad); err == nil {
			t.Errorf("ChebyshevK(%v) accepted", bad)
		}
	}
}

func TestChebyshevBounds(t *testing.T) {
	iv, err := ChebyshevBounds(10, 2, 0.75) // k = 2
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Lo-6) > 1e-12 || math.Abs(iv.Hi-14) > 1e-12 {
		t.Errorf("bounds=%+v", iv)
	}
	if !iv.Contains(10) || iv.Contains(5) || iv.Contains(15) {
		t.Errorf("Contains wrong: %+v", iv)
	}
	if math.Abs(iv.Width()-8) > 1e-12 {
		t.Errorf("Width=%v", iv.Width())
	}
}

// Property: Chebyshev bounds really do contain ≥ p of a Gaussian sample
// (Gaussian concentration is far stronger than Chebyshev, so this holds
// with huge margin and validates the bound direction).
func TestChebyshevCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = rr.NormFloat64()*3 + 7
		}
		mean, std, err := MeanStd(xs)
		if err != nil {
			return false
		}
		iv, err := ChebyshevBounds(mean, std, 0.9)
		if err != nil {
			return false
		}
		inside := 0
		for _, x := range xs {
			if iv.Contains(x) {
				inside++
			}
		}
		return float64(inside)/float64(len(xs)) >= 0.9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
