package optics

import (
	"errors"
	"math"
	"time"

	"incbubbles/internal/telemetry"
	"incbubbles/internal/trace"
)

// Entry is one element of the OPTICS cluster ordering.
type Entry struct {
	// Obj is the object index within the Space the ordering was produced
	// from.
	Obj int
	// ID is the stable external identifier of the object.
	ID uint64
	// Reach is the reachability distance at which the object was reached
	// (+Inf for the start of a new connected component).
	Reach float64
	// Core is the core distance of the object (+Inf when undefined).
	Core float64
	// Weight is how many database points the object represents.
	Weight int
}

// Result is a complete OPTICS run: the cluster ordering plus parameters.
type Result struct {
	Order  []Entry
	MinPts int
	Eps    float64
}

// Params configures an OPTICS run.
type Params struct {
	// Eps is the generating neighbourhood radius. +Inf (the default used
	// throughout the experiments) never truncates the hierarchy.
	Eps float64
	// MinPts is the density threshold in points (not objects): data
	// bubbles contribute their full populations.
	MinPts int
	// Sink optionally receives run accounting (run count, wall time).
	// Instrumentation never changes the ordering.
	Sink *telemetry.Sink
	// Tracer optionally records an optics.run span (object count,
	// ordering length). Like Sink it never changes the ordering.
	Tracer *trace.Tracer
}

// Run computes the OPTICS cluster ordering of space. The algorithm is the
// standard one (Ankerst et al. 1999): objects are expanded in order of
// smallest current reachability, maintained in an indexed heap.
func Run(space Space, params Params) (*Result, error) {
	if space == nil || space.Len() == 0 {
		return nil, errors.New("optics: empty space")
	}
	if params.MinPts < 1 {
		return nil, errors.New("optics: MinPts must be at least 1")
	}
	sp := params.Tracer.Start("optics.run")
	defer sp.End()
	sp.SetInt(trace.AttrCount, int64(space.Len()))
	runStart := time.Now()
	eps := params.Eps
	if eps == 0 {
		eps = math.Inf(1)
	}
	if eps < 0 || math.IsNaN(eps) {
		return nil, errors.New("optics: eps must be a non-negative number")
	}

	n := space.Len()
	processed := make([]bool, n)
	reach := make([]float64, n)
	for i := range reach {
		reach[i] = undefined
	}
	order := make([]Entry, 0, n)
	seeds := newSeedQueue(n, reach)

	emit := func(i int, core float64) {
		order = append(order, Entry{
			Obj:    i,
			ID:     space.ID(i),
			Reach:  reach[i],
			Core:   core,
			Weight: space.Weight(i),
		})
	}

	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		processed[start] = true
		neighbors := space.Neighbors(start, eps)
		core := space.CoreDist(start, neighbors, params.MinPts)
		emit(start, core)
		if math.IsInf(core, 1) {
			continue
		}
		update(space, seeds, neighbors, core, processed, reach)
		for seeds.len() > 0 {
			j := seeds.pop()
			processed[j] = true
			nbJ := space.Neighbors(j, eps)
			coreJ := space.CoreDist(j, nbJ, params.MinPts)
			emit(j, coreJ)
			if !math.IsInf(coreJ, 1) {
				update(space, seeds, nbJ, coreJ, processed, reach)
			}
		}
	}
	if params.Sink != nil {
		params.Sink.Counter(telemetry.MetricOpticsRuns).Inc()
		params.Sink.Histogram(telemetry.MetricOpticsRunSeconds, telemetry.SecondsBounds()).
			Observe(time.Since(runStart).Seconds())
	}
	return &Result{Order: order, MinPts: params.MinPts, Eps: eps}, nil
}

// update relaxes the reachability of the unprocessed neighbours of the
// just-expanded object.
func update(space Space, seeds *seedQueue, neighbors []Neighbor, core float64, processed []bool, reach []float64) {
	for _, nb := range neighbors {
		if processed[nb.Idx] {
			continue
		}
		newReach := math.Max(core, nb.Dist)
		if !seeds.contains(nb.Idx) {
			reach[nb.Idx] = newReach
			seeds.push(nb.Idx)
		} else if newReach < reach[nb.Idx] {
			reach[nb.Idx] = newReach
			seeds.decrease(nb.Idx)
		}
	}
}
