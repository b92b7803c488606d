package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ChromeEvent is one entry of the Chrome trace-event format ("X"
// complete events), as consumed by Perfetto and chrome://tracing.
// Timestamps and durations are microseconds.
type ChromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of the trace-event file.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeEvents converts records into trace-event entries, ordered by
// (Start, ID) so output is deterministic for a deterministic clock.
// All spans share pid/tid 1: the pipeline coordinator is a single
// logical track and viewers reconstruct nesting from ts/dur
// containment.
func ChromeEvents(recs []Record) []ChromeEvent {
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].ID < sorted[j].ID
	})
	out := make([]ChromeEvent, len(sorted))
	for i, r := range sorted {
		out[i] = ChromeEvent{
			Name: r.Name,
			Cat:  category(r.Name),
			Ph:   "X",
			Ts:   float64(r.Start) / 1e3,
			Dur:  float64(r.Dur) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: r.AttrMap(),
		}
	}
	return out
}

// category derives the event category from the span-name prefix
// ("core.search" → "core"), which Perfetto uses for colouring/filters.
func category(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// WriteChrome writes records as a Chrome trace-event JSON object. The
// output is valid (an empty trace) for zero records and for a nil
// snapshot, so a disabled tracer still yields a loadable file.
func WriteChrome(w io.Writer, recs []Record) error {
	tr := ChromeTrace{TraceEvents: ChromeEvents(recs), DisplayTimeUnit: "ms"}
	if tr.TraceEvents == nil {
		tr.TraceEvents = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// FlameRow is one aggregated row of the plain-text flame summary: all
// spans sharing the same root→leaf name path, with their total time
// and bound distance work.
type FlameRow struct {
	Path         string // span names joined with ";"
	Depth        int
	Spans        int
	Nanos        int64
	DistComputed int64
	DistPruned   int64
}

// Flame aggregates records by parent-chain path, sorted by path so the
// output is stable. Spans whose parent is not present in recs (e.g.
// evicted from the ring, or outside a SnapshotSince window) are
// rooted at their own name.
func Flame(recs []Record) []FlameRow {
	byID := make(map[uint64]Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	paths := make(map[string]*FlameRow)
	for _, r := range recs {
		var parts []string
		for cur, ok := r, true; ok; cur, ok = byID[cur.Parent] {
			parts = append(parts, cur.Name)
			if cur.Parent == 0 {
				break
			}
		}
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		path := strings.Join(parts, ";")
		row := paths[path]
		if row == nil {
			row = &FlameRow{Path: path, Depth: len(parts) - 1}
			paths[path] = row
		}
		row.Spans++
		row.Nanos += r.Dur
		if v, ok := r.Attr(AttrDistComputed); ok {
			row.DistComputed += v
		}
		if v, ok := r.Attr(AttrDistPruned); ok {
			row.DistPruned += v
		}
	}
	out := make([]FlameRow, 0, len(paths))
	for _, row := range paths {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// WriteFlame renders the flame summary as aligned plain text. Leading
// path segments are indented to read as a tree.
func WriteFlame(w io.Writer, recs []Record) error {
	rows := Flame(recs)
	if _, err := fmt.Fprintf(w, "%-48s %8s %14s %14s %12s\n",
		"span path", "spans", "time", "dist.computed", "dist.pruned"); err != nil {
		return err
	}
	for _, row := range rows {
		name := row.Path
		if i := strings.LastIndexByte(name, ';'); i >= 0 {
			name = name[i+1:]
		}
		label := strings.Repeat("  ", row.Depth) + name
		if _, err := fmt.Fprintf(w, "%-48s %8d %14s %14d %12d\n",
			label, row.Spans, fmtNanos(row.Nanos), row.DistComputed, row.DistPruned); err != nil {
			return err
		}
	}
	return nil
}

// fmtNanos renders a duration with µs precision, stable across
// locales (no time.Duration fancy formatting surprises for huge
// values).
func fmtNanos(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

// maxCaptureSeconds bounds how long a ?sec=N capture blocks: a scrape
// must not pin a handler goroutine indefinitely.
const maxCaptureSeconds = 60

// ServeHTTP serves the span ring: the one trace endpoint behind both the
// CLIs' /debug/trace and bubbled's /tenants/{t}/debug/trace.
//
//	GET                 Chrome trace-event JSON of the retained spans
//	GET ?sec=N          block N seconds (cap 60), then return the spans
//	                    started in that window; cancelling the request
//	                    ends the wait early and returns what accumulated
//	GET ?format=flame   plain-text flame summary instead of JSON
//
// A nil Tracer serves an empty trace.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var recs []Record
	if sec, err := strconv.Atoi(q.Get("sec")); err == nil && sec > 0 {
		since := t.Now()
		select {
		case <-time.After(time.Duration(min(sec, maxCaptureSeconds)) * time.Second):
		case <-r.Context().Done():
		}
		recs = t.SnapshotSince(since)
	} else {
		recs = t.Snapshot()
	}
	var err error
	if q.Get("format") == "flame" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = WriteFlame(w, recs)
	} else {
		w.Header().Set("Content-Type", "application/json")
		err = WriteChrome(w, recs)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
