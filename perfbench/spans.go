package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"incbubbles/internal/trace"
)

// Traced runs record the benchmark's own spans (names starting "bench.")
// around every call into a public function, on the same tracer the
// program's spans go to, so both share one clock and one ID space. The
// tracer's ring is sized so that nothing is evicted; a run that drops a
// span fails its checks.

// traceCapacity bounds a traced run's span ring. At about a hundred
// spans per batch this holds well over ten thousand batches.
const traceCapacity = 1 << 20

func newTracer() *trace.Tracer { return trace.New(trace.Options{Capacity: traceCapacity}) }

// layerOf maps a span name onto the layer bucket its self time is
// charged to. Maintenance sub-operations (merge, split, grow) charge to
// core.maintain, so core.maintain_ms covers the whole of Fig. 3 step 2.
var layerOf = map[string]string{
	"core.merge": "core.maintain",
	"core.split": "core.maintain",
	"core.grow":  "core.maintain",
}

func bucketOf(name string) string {
	if b, ok := layerOf[name]; ok {
		return b
	}
	return name
}

// spanSet indexes one capture of span records.
type spanSet struct {
	recs     []trace.Record
	byID     map[uint64]int
	children map[uint64][]int
}

func newSpanSet(recs []trace.Record) *spanSet {
	s := &spanSet{recs: recs, byID: make(map[uint64]int, len(recs)), children: map[uint64][]int{}}
	for i, r := range recs {
		s.byID[r.ID] = i
	}
	for i, r := range recs {
		if r.Parent != 0 {
			s.children[r.Parent] = append(s.children[r.Parent], i)
		}
	}
	return s
}

// within keeps the spans that started in [from, to] on the tracer clock.
func (s *spanSet) within(from, to int64) *spanSet {
	var out []trace.Record
	for _, r := range s.recs {
		if r.Start >= from && r.Start <= to {
			out = append(out, r)
		}
	}
	return newSpanSet(out)
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if !open || a > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = a, b, true
			continue
		}
		curHi = max(curHi, b)
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// self is a span's duration minus the part of it its children cover.
func (s *spanSet) self(i int) int64 {
	r := s.recs[i]
	kids := s.children[r.ID]
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := s.recs[k]
		iv = append(iv, [2]int64{c.Start, c.Start + c.Dur})
	}
	return r.Dur - covered(iv, r.Start, r.Start+r.Dur)
}

// layerStats is the per-bucket aggregate of one capture.
type layerStats struct {
	selfNs map[string]int64 // summed self time per bucket
	durNs  map[string][]int64
	count  map[string]int
}

func (s *spanSet) layers() layerStats {
	ls := layerStats{selfNs: map[string]int64{}, durNs: map[string][]int64{}, count: map[string]int{}}
	for i, r := range s.recs {
		b := bucketOf(r.Name)
		ls.selfNs[b] += s.self(i)
		ls.durNs[r.Name] = append(ls.durNs[r.Name], r.Dur)
		ls.count[r.Name]++
	}
	return ls
}

// selfMsPer is a bucket's summed self time divided by n, in ms.
func (ls layerStats) selfMsPer(bucket string, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(ls.selfNs[bucket]) / 1e6 / float64(n)
}

// meanMs is the mean inclusive duration of the spans named name, in ms.
func (ls layerStats) meanMs(name string) float64 {
	d := ls.durNs[name]
	if len(d) == 0 {
		return 0
	}
	var sum int64
	for _, x := range d {
		sum += x
	}
	return float64(sum) / 1e6 / float64(len(d))
}

// named returns the spans with the given name.
func (s *spanSet) named(name string) []trace.Record {
	var out []trace.Record
	for _, r := range s.recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// unattributed is the share of the given client spans' time that none
// of their child spans covers: the part of a caller-observed operation
// no program span accounts for.
func (s *spanSet) unattributed(client []trace.Record) float64 {
	var total, bare int64
	for _, c := range client {
		kids := s.childrenOf(c)
		iv := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			iv = append(iv, [2]int64{k.Start, k.Start + k.Dur})
		}
		total += c.Dur
		bare += c.Dur - covered(iv, c.Start, c.Start+c.Dur)
	}
	if total == 0 {
		return 0
	}
	return float64(bare) / float64(total)
}

// childrenOf returns the direct children of r in the set.
func (s *spanSet) childrenOf(r trace.Record) []trace.Record {
	var out []trace.Record
	for _, k := range s.children[r.ID] {
		out = append(out, s.recs[k])
	}
	return out
}

// writeTrace writes every recorded span as Chrome trace-event JSON into
// the output directory and returns the file's path.
func writeTrace(env *runEnv, recs []trace.Record) (string, error) {
	path := filepath.Join(env.outDir, fmt.Sprintf("trace-%s-seed%d.json", env.workload, env.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.WriteChrome(f, recs); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
