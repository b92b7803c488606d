package telemetry

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("re-resolving a counter returned a different handle")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 50, 1000} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// v ≤ 1 → bucket 0 (0.5, 1); v ≤ 10 → bucket 1 (2, 10); v ≤ 100 →
	// bucket 2 (50); overflow (1000).
	want := []uint64{2, 2, 1, 1}
	if !reflect.DeepEqual(snap.Counts, want) {
		t.Fatalf("counts = %v, want %v", snap.Counts, want)
	}
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if snap.Sum != 0.5+1+2+10+50+1000 {
		t.Fatalf("sum = %v", snap.Sum)
	}
}

func TestHistogramSanitizesBounds(t *testing.T) {
	h := newHistogram([]float64{10, 1, 10, math.NaN(), 5, math.Inf(1)})
	if want := []float64{1, 5, 10}; !reflect.DeepEqual(h.bounds, want) {
		t.Fatalf("bounds = %v, want %v", h.bounds, want)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", CountBounds()).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestNilSinkIsNoOp(t *testing.T) {
	var s *Sink
	s.Counter("x").Inc()
	s.Gauge("y").Set(1)
	s.Histogram("z", CountBounds()).Observe(1)
}
