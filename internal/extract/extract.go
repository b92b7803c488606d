// Package extract implements automatic cluster extraction from OPTICS
// reachability plots using the cluster-tree method of Sander, Qin, Lu, Niu
// and Kovarsky (PAKDD 2003) — the paper's citation [16], used to obtain the
// flat clusterings whose F-scores Table 1 reports.
//
// All routines operate on weighted orderings: each entry may represent
// several database points (data bubbles), and size thresholds count points
// rather than entries, so extraction behaves identically on raw-point and
// bubble-level plots.
package extract

import (
	"math"
	"sort"

	"incbubbles/internal/optics"
)

// Noise is the label assigned to entries that belong to no extracted
// cluster.
const Noise = -1

// Params tunes the cluster-tree extraction.
type Params struct {
	// SignificanceRatio is the maximum ratio avg(region)/reach(split) for
	// a split point to be significant (0.75 in Sander et al.). Default 0.75.
	SignificanceRatio float64
	// MinClusterWeight is the minimum number of points a cluster must
	// represent. Default: 0.5% of the total weight, at least 2.
	MinClusterWeight int
}

func (p Params) withDefaults(totalWeight int) Params {
	if p.SignificanceRatio == 0 {
		p.SignificanceRatio = 0.75
	}
	if p.MinClusterWeight == 0 {
		p.MinClusterWeight = totalWeight / 200
		if p.MinClusterWeight < 2 {
			p.MinClusterWeight = 2
		}
	}
	return p
}

// Node is a cluster-tree node covering the half-open entry range
// [Start, End) of the ordering it was extracted from.
type Node struct {
	Start, End int
	// SplitIdx is the entry index of the significant local maximum that
	// split this node, or -1 for leaves.
	SplitIdx int
	Children []*Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Leaves returns the leaf nodes under n in plot order.
func (n *Node) Leaves() []*Node {
	if n == nil {
		return nil
	}
	if n.IsLeaf() {
		return []*Node{n}
	}
	var out []*Node
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

type extractor struct {
	entries []optics.Entry
	params  Params
	// prefix[i] = Σ weight of entries [0,i); prefixR likewise for
	// weight·reach over finite reachabilities, finW for their weights.
	prefixW []int
	prefixR []float64
	finW    []int
}

// Tree builds the cluster tree of a (possibly weighted) cluster ordering.
// It returns nil for an empty ordering.
func Tree(entries []optics.Entry, params Params) *Node {
	if len(entries) == 0 {
		return nil
	}
	var total int
	for _, e := range entries {
		total += e.Weight
	}
	x := &extractor{entries: entries, params: params.withDefaults(total)}
	x.prefixW = make([]int, len(entries)+1)
	x.prefixR = make([]float64, len(entries)+1)
	x.finW = make([]int, len(entries)+1)
	for i, e := range entries {
		x.prefixW[i+1] = x.prefixW[i] + e.Weight
		x.prefixR[i+1] = x.prefixR[i]
		x.finW[i+1] = x.finW[i]
		if !math.IsInf(e.Reach, 1) {
			x.prefixR[i+1] += e.Reach * float64(e.Weight)
			x.finW[i+1] += e.Weight
		}
	}
	root := &Node{Start: 0, End: len(entries), SplitIdx: -1}
	x.clusterTree(root, nil, x.localMaxima(0, len(entries)))
	return root
}

// weight returns the point weight of entry range [lo,hi).
func (x *extractor) weight(lo, hi int) int { return x.prefixW[hi] - x.prefixW[lo] }

// avgReach returns the weighted average finite reachability of [lo,hi)
// (+Inf when the range holds no finite reachabilities).
func (x *extractor) avgReach(lo, hi int) float64 {
	w := x.finW[hi] - x.finW[lo]
	if w == 0 {
		return math.Inf(1)
	}
	return (x.prefixR[hi] - x.prefixR[lo]) / float64(w)
}

// localMaxima returns the indices in (lo,hi) that are local maxima of the
// reachability plot, sorted by descending reachability (ties by index).
// Infinite reachabilities are always maxima. The very first entry of a
// range is not a split candidate: its bar reflects the jump INTO the
// region, not structure inside it.
func (x *extractor) localMaxima(lo, hi int) []int {
	reach := func(i int) float64 { return x.entries[i].Reach }
	var out []int
	for i := lo + 1; i < hi; i++ {
		r := reach(i)
		if math.IsInf(r, 1) {
			out = append(out, i)
			continue
		}
		leftOK := r >= reach(i-1)
		rightOK := i+1 >= hi || r >= reach(i+1)
		strict := r > reach(i-1) || (i+1 < hi && r > reach(i+1))
		if leftOK && rightOK && strict {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ra, rb := reach(out[a]), reach(out[b])
		if ra != rb {
			return ra > rb
		}
		return out[a] < out[b]
	})
	return out
}

// clusterTree recursively splits node at its most significant local
// maximum, following Sander et al. 2003: an insignificant maximum is
// discarded and the next tried; children smaller than the minimum cluster
// size are pruned; a node whose average reachability is close to its
// parent's is bypassed (its children attach to the parent).
func (x *extractor) clusterTree(node *Node, parent *Node, maxima []int) {
	for len(maxima) > 0 {
		s := maxima[0]
		maxima = maxima[1:]
		splitReach := x.entries[s].Reach

		// The split object itself opens the right region: its bar is the
		// jump INTO that region, but the object is spatially its first
		// member.
		lo1, hi1 := node.Start, s
		lo2, hi2 := s, node.End

		// Significance: both flanks must be clearly below the split bar
		// (the bar itself is excluded from the right flank's average).
		if !math.IsInf(splitReach, 1) {
			if x.avgReach(lo1, hi1)/splitReach > x.params.SignificanceRatio ||
				x.avgReach(s+1, hi2)/splitReach > x.params.SignificanceRatio {
				continue // not significant; try next maximum
			}
		}

		var kids []*Node
		if x.weight(lo1, hi1) >= x.params.MinClusterWeight {
			kids = append(kids, &Node{Start: lo1, End: hi1, SplitIdx: -1})
		}
		if x.weight(lo2, hi2) >= x.params.MinClusterWeight {
			kids = append(kids, &Node{Start: lo2, End: hi2, SplitIdx: -1})
		}
		if len(kids) == 0 {
			return // node stays a leaf
		}
		node.SplitIdx = s

		// Parent similarity: when this node's average reachability is
		// approximately its parent's, the node is structural noise between
		// them — attach the children directly to the parent.
		attach := node
		if parent != nil {
			pa, na := x.avgReach(parent.Start, parent.End), x.avgReach(node.Start, node.End)
			if !math.IsInf(na, 1) && !math.IsInf(pa, 1) && na/pa >= x.params.SignificanceRatio {
				attach = parent
				// Replace node by its children in the parent.
				repl := parent.Children[:0]
				for _, c := range parent.Children {
					if c != node {
						repl = append(repl, c)
					}
				}
				parent.Children = append(repl, kids...)
			}
		}
		if attach == node {
			node.Children = kids
		}
		for _, c := range kids {
			x.clusterTree(c, attach, x.filterRange(maxima, c.Start, c.End))
		}
		return
	}
}

// filterRange keeps the maxima strictly inside (lo, hi), preserving order.
func (x *extractor) filterRange(maxima []int, lo, hi int) []int {
	var out []int
	for _, m := range maxima {
		if m > lo && m < hi {
			out = append(out, m)
		}
	}
	return out
}

// Labels assigns each entry of the ordering the index of the leaf cluster
// containing it, or Noise for entries under no leaf.
func Labels(entries []optics.Entry, root *Node) []int {
	labels := make([]int, len(entries))
	for i := range labels {
		labels[i] = Noise
	}
	if root == nil {
		return labels
	}
	for li, leaf := range root.Leaves() {
		for i := leaf.Start; i < leaf.End && i < len(entries); i++ {
			labels[i] = li
		}
	}
	return labels
}

// ExtractTree is the one-call convenience: build the tree and return the
// per-entry leaf labels.
func ExtractTree(entries []optics.Entry, params Params) []int {
	return Labels(entries, Tree(entries, params))
}
