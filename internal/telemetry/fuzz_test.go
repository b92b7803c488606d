package telemetry_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/telemetry"
)

// FuzzAudit feeds arbitrary (frequently corrupt) bubble statistics through
// the auditor: whatever (n, LS, SS) combination the snapshot decoder lets
// through — including unrealizable ones — Audit must return structured
// violations, never panic.
func FuzzAudit(f *testing.F) {
	var buf bytes.Buffer
	set, _ := bubble.NewSet(2, bubble.Options{UseTriangleInequality: true})
	set.AddBubble([]float64{0, 0})
	set.AddBubble([]float64{5, 5})
	set.AssignTo(0, 1, []float64{0.5, 0})
	set.AssignTo(1, 2, []float64{5, 5.5})
	set.Save(&buf)
	f.Add(buf.Bytes(), 2)
	// Unrealizable statistics Load accepts: SS below ‖LS‖²/n, empty-bubble
	// residue, huge magnitudes.
	f.Add([]byte(`{"version":1,"dim":2,"bubbles":[{"seed":[0,0],"n":3,"ls":[9,9],"ss":1,"members":[1,2,3]}]}`), 3)
	f.Add([]byte(`{"version":1,"dim":2,"bubbles":[{"seed":[0,0],"n":0,"ls":[1,0],"ss":7}]}`), 0)
	f.Add([]byte(`{"version":1,"dim":1,"bubbles":[{"seed":[1e308],"n":1,"ls":[-1e308],"ss":-1e308,"members":[1]}]}`), 1)
	f.Add([]byte(`{"version":1,"dim":3,"bubbles":[]}`), -5)
	f.Fuzz(func(t *testing.T, data []byte, totalPoints int) {
		s, err := bubble.Load(bytes.NewReader(data), bubble.Options{})
		if err != nil {
			return
		}
		vs := telemetry.AuditWith(s, totalPoints, telemetry.AuditOptions{MaxViolations: 16})
		for _, v := range vs {
			if v.Code == telemetry.CodeInternal {
				t.Fatalf("auditor recovered from a panic on decodable input: %v", v)
			}
			_ = v.String()
		}
	})
}

// FuzzPromRoundTrip renders fuzzed counters, gauges (NaN and ±Inf
// included) and histograms, under fuzzed metric names and label values,
// through PromWriter and parses the page back with ParseProm. Counters
// must come back as their exact decimal text, gauges bit-equal (NaN as
// NaN), label values unchanged, and histogram buckets cumulative with
// the one +Inf bucket equal to _count. ParseProm must also never panic
// on the raw fuzz bytes.
func FuzzPromRoundTrip(f *testing.F) {
	obs := func(bounds []float64, vs ...float64) []byte {
		out := []byte{byte(len(bounds))}
		for _, v := range append(bounds, vs...) {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add("distance.computed", "alpha", uint64(1234567890123), 3.5, obs([]float64{1e-3, 1e-1}, 2e-3, 0.2, 50))
	f.Add("server.queue_depth", "a\\b\"c\nd", uint64(math.MaxUint64), math.NaN(), obs(nil, 1))
	f.Add("9lives", "", uint64(0), math.Inf(1), obs([]float64{math.Inf(1)}, math.Inf(1), math.NaN()))
	f.Add("a-b c", "\x00\xff}\"{", uint64(1), math.Inf(-1), obs([]float64{-1, math.Inf(-1)}, math.Inf(-1), -1))
	f.Add("ok:name_1", "le", uint64(1<<53+1), math.Copysign(0, -1), []byte("# TYPE x counter\nx{a=\"\\\"\"} 1\n"))
	f.Fuzz(func(t *testing.T, name, label string, counter uint64, gauge float64, raw []byte) {
		_, _ = telemetry.ParseProm(bytes.NewReader(raw))

		reg := telemetry.NewRegistry()
		reg.Counter(name + ".c").Add(counter)
		reg.Gauge(name + ".g").Set(gauge)
		var bounds []float64
		if len(raw) > 0 {
			n := int(raw[0]) % 8
			raw = raw[1:]
			for ; n > 0 && len(raw) >= 8; n-- {
				bounds = append(bounds, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
				raw = raw[8:]
			}
		}
		h := reg.Histogram(name+".h", bounds)
		for ; len(raw) >= 8; raw = raw[8:] {
			h.Observe(math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}

		w := telemetry.NewPromWriter()
		w.AddSnapshot(reg.Snapshot(), telemetry.Label{Name: "tenant", Value: label})
		var page bytes.Buffer
		if _, err := w.WriteTo(&page); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		fams, err := telemetry.ParseProm(bytes.NewReader(page.Bytes()))
		if err != nil {
			t.Fatalf("ParseProm rejected the writer's page: %v\n%s", err, page.Bytes())
		}
		point := func(suffix string) telemetry.PromPoint {
			t.Helper()
			fam := fams[telemetry.PromName(name+suffix)]
			if fam == nil || len(fam.Points) != 1 {
				t.Fatalf("family %s: %+v\n%s", telemetry.PromName(name+suffix), fam, page.Bytes())
			}
			if got := fam.Points[0].Labels["tenant"]; got != label {
				t.Fatalf("label value %q came back as %q", label, got)
			}
			return fam.Points[0]
		}
		if got := point(".c").Raw; got != strconv.FormatUint(counter, 10) {
			t.Fatalf("counter %d came back as %q", counter, got)
		}
		if got := point(".g").Value; math.Float64bits(got) != math.Float64bits(gauge) && !(math.IsNaN(gauge) && math.IsNaN(got)) {
			t.Fatalf("gauge %v came back as %v", gauge, got)
		}

		hist := fams[telemetry.PromName(name+".h")]
		if hist == nil || hist.Type != "histogram" {
			t.Fatalf("histogram family missing: %+v", hist)
		}
		var prev uint64
		var inf, count string
		for _, p := range hist.Points {
			if got := p.Labels["tenant"]; got != label {
				t.Fatalf("histogram label value %q came back as %q", label, got)
			}
			switch p.Suffix {
			case "_bucket":
				if inf != "" {
					t.Fatalf("bucket after le=+Inf: %+v", hist.Points)
				}
				v, err := strconv.ParseUint(p.Raw, 10, 64)
				if err != nil || v < prev {
					t.Fatalf("bucket %q not cumulative after %d: %v", p.Raw, prev, err)
				}
				prev = v
				if p.Labels["le"] == "+Inf" {
					inf = p.Raw
				}
			case "_count":
				count = p.Raw
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("+Inf bucket %q != _count %q", inf, count)
		}
	})
}
