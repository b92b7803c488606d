package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4), stdlib only. A PromWriter
// accumulates samples — whole registry snapshots under a tenant label,
// plus individual scrape-synthesized series — and renders one parseable
// exposition: families sorted by name, each with exactly one # HELP and
// # TYPE line, histograms as cumulative le-buckets with +Inf, _sum and
// _count. Counters render via FormatUint so exact uint64 totals survive
// the round trip (the distance-accounting cross-check in the server
// tests depends on that).

// Label is one exposition label pair. Values are escaped on write.
type Label struct {
	Name  string
	Value string
}

// PromName converts a dotted registry metric name ("server.queue_depth")
// to its exposition form ("server_queue_depth"). Any character outside
// [a-zA-Z0-9_:] becomes an underscore; a leading digit gains one.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

type promRow struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels []Label
	value  string // pre-formatted so uint64 counters stay exact
}

type promFamily struct {
	name string // exposition name (sanitized)
	typ  string // "counter" | "gauge" | "histogram"
	help string
	rows []promRow
}

// PromWriter accumulates metric samples and renders them as one
// Prometheus text exposition. Not safe for concurrent use; build one per
// scrape. The first type conflict (the same family added as two
// different types) sticks and surfaces from WriteTo, so a scrape can
// never silently interleave mismatched families.
type PromWriter struct {
	families map[string]*promFamily
	err      error
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter {
	return &PromWriter{families: make(map[string]*promFamily)}
}

func (w *PromWriter) family(name, typ string) *promFamily {
	pn := PromName(name)
	f := w.families[pn]
	if f == nil {
		f = &promFamily{name: pn, typ: typ, help: promHelp(name)}
		w.families[pn] = f
		return f
	}
	if f.typ != typ && w.err == nil {
		w.err = fmt.Errorf("telemetry: metric family %s added as both %s and %s", pn, f.typ, typ)
	}
	return f
}

// AddSnapshot adds every metric in snap, each sample carrying labels
// (typically the tenant). Families are keyed by sanitized name, so the
// same metric from several snapshots folds into one family with one row
// per label set. Metric names within the snapshot are walked sorted for
// deterministic row order.
func (w *PromWriter) AddSnapshot(snap Snapshot, labels ...Label) {
	for _, name := range sortedKeys(snap.Counters) {
		w.AddCounterSample(name, snap.Counters[name], labels...)
	}
	for _, name := range sortedKeys(snap.Gauges) {
		w.AddGaugeSample(name, snap.Gauges[name], labels...)
	}
	for _, name := range sortedKeys(snap.Histograms) {
		w.AddHistogramSample(name, snap.Histograms[name], labels...)
	}
}

// AddCounterSample adds one counter sample. The uint64 value is rendered
// exactly (no float round-trip).
func (w *PromWriter) AddCounterSample(name string, v uint64, labels ...Label) {
	f := w.family(name, "counter")
	f.rows = append(f.rows, promRow{labels: cloneLabels(labels), value: strconv.FormatUint(v, 10)})
}

// AddGaugeSample adds one gauge sample.
func (w *PromWriter) AddGaugeSample(name string, v float64, labels ...Label) {
	f := w.family(name, "gauge")
	f.rows = append(f.rows, promRow{labels: cloneLabels(labels), value: formatFloat(v)})
}

// AddHistogramSample adds one histogram sample: cumulative le-buckets
// per bound, the +Inf bucket, then _sum and _count.
func (w *PromWriter) AddHistogramSample(name string, h HistogramSnapshot, labels ...Label) {
	f := w.family(name, "histogram")
	var cum uint64
	for i, b := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		f.rows = append(f.rows, promRow{
			suffix: "_bucket",
			labels: append(cloneLabels(labels), Label{Name: "le", Value: formatFloat(b)}),
			value:  strconv.FormatUint(cum, 10),
		})
	}
	f.rows = append(f.rows, promRow{
		suffix: "_bucket",
		labels: append(cloneLabels(labels), Label{Name: "le", Value: "+Inf"}),
		value:  strconv.FormatUint(h.Count, 10),
	})
	f.rows = append(f.rows, promRow{suffix: "_sum", labels: cloneLabels(labels), value: formatFloat(h.Sum)})
	f.rows = append(f.rows, promRow{suffix: "_count", labels: cloneLabels(labels), value: strconv.FormatUint(h.Count, 10)})
}

// WriteTo renders the exposition: families sorted by name, HELP then
// TYPE then rows in insertion order. It returns the sticky type-conflict
// error, if any, before writing anything.
func (w *PromWriter) WriteTo(out io.Writer) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	names := make([]string, 0, len(w.families))
	for name := range w.families {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(out)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	for _, name := range names {
		f := w.families[name]
		if err := count(fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)); err != nil {
			return n, err
		}
		for _, row := range f.rows {
			if err := count(fmt.Fprintf(bw, "%s%s%s %s\n", f.name, row.suffix, formatLabels(row.labels), row.value)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// WriteResponse serves the exposition as one scrape response. The page
// is rendered into a buffer first, so a writer error (a family added
// under two types) becomes a clean 500, never a torn page a parser
// chokes on halfway through.
func (w *PromWriter) WriteResponse(rw http.ResponseWriter) {
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = rw.Write(buf.Bytes())
}

func cloneLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	return append([]Label(nil), labels...)
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promHelp maps catalog names to their one-line HELP text. Unknown names
// (tenant-registry families added after this table) fall back to a
// generic line so every family still carries HELP.
func promHelp(name string) string {
	if h, ok := promHelpText[name]; ok {
		return h
	}
	return "incbubbles metric " + name + "."
}

var promHelpText = map[string]string{
	MetricDistanceComputed:       "Exact distance computations, from the vecmath counter.",
	MetricDistancePruned:         "Distance computations avoided by triangle-inequality pruning.",
	MetricServerQueueDepth:       "Ingest queue depth sampled by the tenant worker at each dequeue.",
	MetricServerQueueWaitSeconds: "Seconds an admitted batch waited in the ingest queue.",
	MetricServerApplySeconds:     "Seconds from worker pickup to durable apply acknowledgement.",
	MetricServerHTTPRequests:     "HTTP requests routed to a tenant.",
	MetricServerHTTPSeconds:      "HTTP request latency in seconds.",
	MetricServerHTTP429:          "Requests rejected with 429 (ingest queue full).",
	MetricServerHTTP503:          "Requests rejected with 503 (draining or tenant degraded).",
	MetricServerLadderState:      "Degradation-ladder state: 0 healthy, 1 degraded; the reason label names the rung.",
	MetricServerCheckpointAge:    "Seconds since the tenant's last durable checkpoint (-1 before the first).",
	MetricTraceSpansDropped:      "Spans evicted from the bounded trace ring.",
	MetricWALFsyncSeconds:        "WAL fsync latency in seconds.",
	MetricWALCheckpointSeconds:   "WAL checkpoint write latency in seconds.",
}

// PromPoint is one parsed sample row.
type PromPoint struct {
	Suffix string // "", "_bucket", "_sum", "_count"
	Labels map[string]string
	Value  float64
	Raw    string // the unparsed value text, for exact uint64 comparisons
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name   string
	Type   string
	Help   string
	Points []PromPoint
}

// ParseProm parses a text exposition produced by PromWriter (a strict
// subset of the Prometheus 0.0.4 format): every sample must follow its
// family's # TYPE line, histogram samples must use the _bucket/_sum/
// _count suffixes, and label values must use the standard escapes.
func ParseProm(r io.Reader) (map[string]*PromFamily, error) {
	families := make(map[string]*PromFamily)
	var cur *PromFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			f := families[name]
			if f == nil {
				f = &PromFamily{Name: name}
				families[name] = f
			}
			f.Help = unescapeHelp(help)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			f := families[name]
			if f == nil {
				f = &PromFamily{Name: name}
				families[name] = f
			}
			if f.Type != "" && f.Type != typ {
				return nil, fmt.Errorf("line %d: family %s re-typed %s -> %s", lineNo, name, f.Type, typ)
			}
			f.Type = typ
			cur = f
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments
		}
		point, name, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if cur == nil || !sampleBelongsTo(cur, name, &point) {
			return nil, fmt.Errorf("line %d: sample %s outside its family's TYPE block", lineNo, name)
		}
		cur.Points = append(cur.Points, point)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return families, nil
}

// sampleBelongsTo checks that a sample named name belongs to family f,
// setting point.Suffix for histogram series names.
func sampleBelongsTo(f *PromFamily, name string, point *PromPoint) bool {
	if name == f.Name {
		return true
	}
	if f.Type != "histogram" {
		return false
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if name == f.Name+suffix {
			point.Suffix = suffix
			return true
		}
	}
	return false
}

func parsePromSample(line string) (PromPoint, string, error) {
	var p PromPoint
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return p, "", fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	rest := line[nameEnd:]
	if strings.HasPrefix(rest, "{") {
		end := findLabelsEnd(rest)
		if end < 0 {
			return p, "", fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parsePromLabels(rest[1:end])
		if err != nil {
			return p, "", fmt.Errorf("%w in %q", err, line)
		}
		p.Labels = labels
		rest = rest[end+1:]
	}
	raw := strings.TrimSpace(rest)
	if raw == "" {
		return p, "", fmt.Errorf("sample %q has no value", line)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return p, "", fmt.Errorf("bad value %q: %w", raw, err)
	}
	p.Raw = raw
	p.Value = v
	return p, name, nil
}

// findLabelsEnd returns the index of the closing brace of a label set
// that starts at s[0] == '{', honouring escapes inside quoted values.
func findLabelsEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip escaped char
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

func parsePromLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("label %s value not quoted", name)
		}
		s = s[1:]
		var b strings.Builder
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					b.WriteByte('\n')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					b.WriteByte(s[i+1])
				}
				i++
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(s) {
			return nil, fmt.Errorf("label %s value unterminated", name)
		}
		labels[name] = b.String()
		s = s[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return labels, nil
}

func unescapeHelp(v string) string {
	r := strings.NewReplacer(`\n`, "\n", `\\`, `\`)
	return r.Replace(v)
}
