// Package telemetry is the observability layer of the repository: a
// lightweight, allocation-conscious metrics registry (counters, gauges,
// bounded histograms), its Prometheus text exposition, an invariant
// auditor that machine-checks the sufficient-statistics contracts of
// §3–§4 after every batch, and an optional debug HTTP endpoint serving
// /metrics, /debug/trace and net/http/pprof.
//
// The paper's headline claims are quantitative — distance-calculation
// counts (Figures 10–11), the β distribution (§4.1), merge/split frequency
// (§4.2) — so the maintenance pipeline reports all of them here at runtime
// instead of only inside the experiment harness.
//
// Everything is safe for concurrent use. Metric handles (Counter, Gauge,
// Histogram) are resolved once by name and then updated with atomic
// operations only, so instrumented hot paths neither allocate nor take
// locks.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates delta into the gauge with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a bounded histogram with fixed upper bounds: bucket i counts
// observations v ≤ bounds[i]; one overflow bucket counts the rest. Bounds
// are fixed at registration, so observation is a binary search plus two
// atomic adds — no allocation, no locks.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram sorts and deduplicates bounds and drops NaN and +Inf: the
// overflow bucket already is the +Inf bucket, and a second one would
// repeat the le="+Inf" series in the exposition.
func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 1) {
			bs = append(bs, b)
		}
	}
	sort.Float64s(bs)
	// Deduplicate: equal bounds would create dead buckets.
	out := bs[:0]
	for i, b := range bs {
		//lint:allow floatsafe deduplicating sorted bounds needs exact equality; near-equal bounds are distinct buckets
		if i == 0 || b != bs[i-1] {
			out = append(out, b)
		}
	}
	return &Histogram{bounds: out, counts: make([]atomic.Uint64, len(out)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot returns the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry holds named metrics. Lookup methods are get-or-create, so
// instrumentation sites can resolve handles without registration order
// mattering; resolving the same name twice returns the same handle.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending upper bounds if needed. The bounds of an existing
// histogram are kept; they are fixed for the metric's lifetime.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the state of one histogram. Counts has
// len(Bounds)+1 entries; the final entry is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot is a point-in-time copy of a registry, the input of a
// Prometheus exposition (PromWriter.AddSnapshot). Metrics are read one at
// a time, so a snapshot taken during concurrent updates is internally
// consistent per metric but not across metrics — the standard expvar
// contract.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
