package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"incbubbles/internal/bubble"
	"incbubbles/internal/dataset"
	"incbubbles/internal/stats"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/vecmath"
)

func buildCleanSet(t *testing.T) (*bubble.Set, int) {
	t.Helper()
	rng := stats.NewRNG(7)
	db := dataset.MustNew(3)
	for i := 0; i < 200; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{0, 0, 0}, 3), 0)
	}
	for i := 0; i < 200; i++ {
		db.Insert(rng.GaussianPoint(vecmath.Point{25, 25, 25}, 3), 1)
	}
	set, err := bubble.Build(db, 12, bubble.Options{
		UseTriangleInequality: true,
		RNG:                   stats.NewRNG(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	return set, db.Len()
}

func TestAuditCleanSet(t *testing.T) {
	set, n := buildCleanSet(t)
	if vs := telemetry.Audit(set, n); len(vs) != 0 {
		t.Fatalf("clean set reported violations: %v", vs)
	}
}

// corruptSS round-trips the set through its JSON snapshot, overwriting one
// bubble's SS on the way, and returns the reloaded (corrupt) set. This is
// the only way to inject bad statistics: the live API maintains the
// invariants by construction.
func corruptSS(t *testing.T, set *bubble.Set, bubbleIdx int, ss float64) *bubble.Set {
	t.Helper()
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	bubbles := snap["bubbles"].([]any)
	bubbles[bubbleIdx].(map[string]any)["ss"] = ss
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := bubble.Load(bytes.NewReader(raw), bubble.Options{RNG: stats.NewRNG(9)})
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestAuditDetectsCorruptedSS is the acceptance-criterion test: a
// deliberately corrupted bubble (SS mutated below the Cauchy–Schwarz lower
// bound ‖LS‖²/n) must be reported as a Definition 1 violation.
func TestAuditDetectsCorruptedSS(t *testing.T) {
	set, n := buildCleanSet(t)
	victim := -1
	for i, b := range set.Bubbles() {
		if b.N() > 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no populated bubble to corrupt")
	}
	lower := set.Bubble(victim).LS().Norm2() / float64(set.Bubble(victim).N())
	corrupt := corruptSS(t, set, victim, lower*0.5)
	vs := telemetry.Audit(corrupt, n)
	if len(vs) == 0 {
		t.Fatal("corrupted SS went undetected")
	}
	found := false
	for _, v := range vs {
		if v.Code == telemetry.CodeNegativeVariance && v.Bubble == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected %s on bubble %d, got %v", telemetry.CodeNegativeVariance, victim, vs)
	}
}

func TestAuditDetectsNonFinite(t *testing.T) {
	set, n := buildCleanSet(t)
	corrupt := corruptSS(t, set, 0, 1)       // make bubble 0 inconsistent…
	corrupt = corruptSS(t, corrupt, 0, -1e9) // …then push SS wildly negative
	vs := telemetry.Audit(corrupt, n)
	if len(vs) == 0 {
		t.Fatal("negative SS undetected")
	}

	// NaN SS must surface as non-finite, not crash the auditor.
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := strings.Replace(buf.String(), `"ss":`, `"ss":null,"x":`, 1)
	nan, err := bubble.Load(strings.NewReader(raw), bubble.Options{})
	if err != nil {
		t.Skipf("mutated snapshot rejected by Load: %v", err)
	}
	_ = telemetry.Audit(nan, n) // must not panic
}

func TestAuditCountMismatch(t *testing.T) {
	set, n := buildCleanSet(t)
	vs := telemetry.Audit(set, n+5)
	found := false
	for _, v := range vs {
		if v.Code == telemetry.CodeCountMismatch {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong totalPoints not reported: %v", vs)
	}
}

func TestAuditNilSet(t *testing.T) {
	vs := telemetry.Audit(nil, 0)
	if len(vs) != 1 || vs[0].Code != telemetry.CodeInternal {
		t.Fatalf("nil set: %v", vs)
	}
}

func TestAuditTruncatesReport(t *testing.T) {
	set, n := buildCleanSet(t)
	// Corrupt every populated bubble so the violation count exceeds the cap.
	corrupt := set
	for i, b := range set.Bubbles() {
		if b.N() > 1 {
			corrupt = corruptSS(t, corrupt, i, -1)
		}
	}
	vs := telemetry.AuditWith(corrupt, n, telemetry.AuditOptions{MaxViolations: 2})
	if len(vs) != 3 { // 2 violations + truncation notice
		t.Fatalf("got %d violations, want 3 (2 + truncation): %v", len(vs), vs)
	}
	last := vs[len(vs)-1]
	if last.Code != telemetry.CodeInternal || !strings.Contains(last.Detail, "truncated") {
		t.Fatalf("missing truncation notice: %v", last)
	}
}

func TestAuditEmptyResidue(t *testing.T) {
	// Hand-craft a snapshot with an n=0 bubble retaining nonzero SS.
	raw := `{"version":1,"dim":2,"bubbles":[` +
		`{"seed":[0,0],"n":0,"ls":[0,0],"ss":3.5},` +
		`{"seed":[5,5],"n":2,"ls":[10,10],"ss":101,"members":[1,2]}]}`
	set, err := bubble.Load(strings.NewReader(raw), bubble.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs := telemetry.Audit(set, 2)
	found := false
	for _, v := range vs {
		if v.Code == telemetry.CodeEmptyResidue && v.Bubble == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("empty residue not reported: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := telemetry.Violation{Code: telemetry.CodeBetaSum, Bubble: -1, Detail: "x"}
	if s := v.String(); !strings.Contains(s, "beta-sum") {
		t.Fatalf("String() = %q", s)
	}
	v.Bubble = 3
	if s := v.String(); !strings.Contains(s, "bubble 3") {
		t.Fatalf("String() = %q", s)
	}
}
