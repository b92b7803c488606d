// Package eval exercises the floatsafe analyzer: exact float comparison
// and map-iteration-order accumulation — the FScore bug class — against
// the sentinel, tie-break and sorted-key forms that are allowed.
package eval

import (
	"math"
	"sort"
)

// Exact equality between computed floats: the acceptance-criterion case
// for internal/eval.
func converged(prev, cur float64) bool {
	return prev == cur // want `exact floating-point ==`
}

func changed(a, b []float64) bool {
	return a[0] != b[0] // want `exact floating-point !=`
}

// Comparisons against exact sentinels are well-defined: no diagnostics.
func sentinels(x float64) bool {
	if x == 0 {
		return true
	}
	if x != 1.5 {
		return false
	}
	return x == math.Inf(1)
}

// The sort tie-break idiom orders rather than equates: allowed.
func rank(dist, id []float64) {
	sort.Slice(id, func(a, b int) bool {
		if dist[a] != dist[b] {
			return dist[a] < dist[b]
		}
		return id[a] < id[b]
	})
}

// FScoreUnstable reproduces the PR 2 golden-output bug: float accumulation
// in Go's randomized map order perturbs the sum's last bits between runs.
func FScoreUnstable(perClass map[string]float64) float64 {
	var sum float64
	for _, v := range perClass {
		sum += v // want `map iteration order`
	}
	return sum
}

// The fixed form iterates sorted keys; ranging over a slice is ordered.
func FScoreStable(perClass map[string]float64) float64 {
	keys := make([]string, 0, len(perClass))
	for k := range perClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += perClass[k]
	}
	return sum
}

// Per-iteration locals die with the iteration: order cannot leak out.
func perIteration(m map[string]float64) float64 {
	var worst float64
	for _, v := range m {
		d := v
		d *= 2
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Accumulating into outer storage through = x + e or a field is the same
// bug with different spelling.
type agg struct{ total float64 }

func spellings(m map[string]float64, a *agg) float64 {
	var s float64
	for _, v := range m {
		s = s + v    // want `map iteration order`
		a.total += v // want `map iteration order`
	}
	return s
}

// Max/argmax selection over a map compares but does not accumulate; the
// comparison is still exact-float and order-independent via >=.
func maxOver(m map[string]float64) float64 {
	best := math.Inf(-1)
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// Suppression with a reason is honoured.
func allowedCompare(a, b float64) bool {
	//lint:allow floatsafe fixture documents an intentional exact check
	return a == b
}
