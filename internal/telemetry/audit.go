package telemetry

import (
	"fmt"
	"math"

	"incbubbles/internal/bubble"
	"incbubbles/internal/vecmath"
)

// Code names one class of audited invariant. The codes map one-to-one onto
// the paper's sufficient-statistics contracts: Definition 1 requires a
// bubble's (n, LS, SS) to describe a realizable point set (non-negative
// variance), Definition 2 requires the β distribution to normalize over
// the database, and Lemma 1 pruning is only sound against a symmetric,
// exact seed distance matrix.
type Code string

const (
	// CodeCountMismatch: Σ nᵢ over all bubbles differs from the database
	// size N (Figure 3 increments/decrements lost or duplicated).
	CodeCountMismatch Code = "count-mismatch"
	// CodeNegativeCount: a bubble reports n < 0.
	CodeNegativeCount Code = "negative-count"
	// CodeNonFinite: a seed coordinate, LS coordinate, or SS is NaN/Inf.
	CodeNonFinite Code = "non-finite"
	// CodeNegativeVariance: SS < ‖LS‖²/n beyond tolerance — the statistics
	// describe no realizable point set (Definition 1).
	CodeNegativeVariance Code = "negative-variance"
	// CodeEmptyResidue: an empty bubble (n = 0) retains nonzero LS or SS.
	CodeEmptyResidue Code = "empty-residue"
	// CodeBetaSum: Σ βᵢ differs from 1 beyond tolerance (Definition 2).
	CodeBetaSum Code = "beta-sum"
	// CodeSeedMatrix: the cached seed distance matrix is asymmetric, has a
	// nonzero diagonal, or disagrees with the recomputed seed distances —
	// any of which silently breaks Lemma 1 pruning.
	CodeSeedMatrix Code = "seed-matrix"
	// CodeOwnership: the point→bubble ownership bookkeeping disagrees with
	// the per-bubble member sets or counts.
	CodeOwnership Code = "ownership"
	// CodeDimension: a bubble's seed or LS has the wrong dimensionality.
	CodeDimension Code = "dimension"
	// CodeInternal: the auditor itself recovered from a panic while
	// inspecting a corrupt set; Detail carries the panic value.
	CodeInternal Code = "internal"
)

// Violation is one detected invariant breach. Bubble is the offending
// bubble index, or -1 for set-level violations.
type Violation struct {
	Code   Code   `json:"code"`
	Bubble int    `json:"bubble"`
	Detail string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Bubble < 0 {
		return fmt.Sprintf("%s: %s", v.Code, v.Detail)
	}
	return fmt.Sprintf("%s (bubble %d): %s", v.Code, v.Bubble, v.Detail)
}

// AuditOptions tunes an audit pass.
type AuditOptions struct {
	// RelTol is the relative tolerance for floating-point comparisons
	// (sufficient statistics drift as points are absorbed and released in
	// different orders). ≤0 selects 1e-6.
	RelTol float64
	// MaxViolations bounds the report so a thoroughly corrupt set cannot
	// produce an unbounded slice. ≤0 selects 64.
	MaxViolations int
}

const (
	defaultRelTol        = 1e-6
	defaultMaxViolations = 64
)

// Audit validates the paper's sufficient-statistics contracts over set:
// per-bubble realizability (SS ≥ ‖LS‖²/n, finite statistics, empty bubbles
// fully zeroed), Σnᵢ = totalPoints and Σβᵢ = 1, ownership-map consistency,
// and the symmetry and exactness of the seed distance matrix Lemma 1
// pruning relies on. totalPoints is the current database size N.
//
// Audit returns structured violations instead of panicking — even on
// deliberately corrupted statistics — so a production system can degrade
// gracefully (alert, rebuild, shed load) rather than crash. It performs no
// counted distance computations, draws no randomness, and mutates nothing,
// so auditing never perturbs experiment results or determinism contracts.
func Audit(set *bubble.Set, totalPoints int) []Violation {
	return AuditWith(set, totalPoints, AuditOptions{})
}

// AuditWith is Audit with explicit options.
func AuditWith(set *bubble.Set, totalPoints int, opts AuditOptions) (vs []Violation) {
	defer func() {
		if r := recover(); r != nil {
			vs = append(vs, Violation{Code: CodeInternal, Bubble: -1, Detail: fmt.Sprint(r)})
		}
	}()
	if opts.RelTol <= 0 {
		opts.RelTol = defaultRelTol
	}
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = defaultMaxViolations
	}
	if set == nil {
		return []Violation{{Code: CodeInternal, Bubble: -1, Detail: "nil bubble set"}}
	}
	a := &auditor{opts: opts}
	a.bubbles(set)
	a.totals(set, totalPoints)
	a.ownership(set)
	a.seedMatrix(set)
	return a.vs
}

type auditor struct {
	opts AuditOptions
	vs   []Violation
	full bool
}

func (a *auditor) add(code Code, bubbleIdx int, format string, args ...any) {
	if a.full {
		return
	}
	if len(a.vs) >= a.opts.MaxViolations {
		a.full = true
		a.vs = append(a.vs, Violation{Code: CodeInternal, Bubble: -1,
			Detail: fmt.Sprintf("report truncated at %d violations", a.opts.MaxViolations)})
		return
	}
	a.vs = append(a.vs, Violation{Code: code, Bubble: bubbleIdx, Detail: fmt.Sprintf(format, args...)})
}

// bubbles checks every bubble's (n, LS, SS) for Definition 1
// realizability.
func (a *auditor) bubbles(set *bubble.Set) {
	dim := set.Dim()
	for i, b := range set.Bubbles() {
		n := b.N()
		ls := b.LS()
		ss := b.SS()
		if n < 0 {
			a.add(CodeNegativeCount, i, "n=%d", n)
			continue
		}
		if b.Seed().Dim() != dim || ls.Dim() != dim {
			a.add(CodeDimension, i, "seed dim %d, LS dim %d, want %d", b.Seed().Dim(), ls.Dim(), dim)
			continue
		}
		if !b.Seed().IsFinite() || !ls.IsFinite() || math.IsNaN(ss) || math.IsInf(ss, 0) {
			a.add(CodeNonFinite, i, "seed=%v ls=%v ss=%v", b.Seed(), ls, ss)
			continue
		}
		if n == 0 {
			if ss != 0 || ls.Norm2() != 0 {
				a.add(CodeEmptyResidue, i, "n=0 but ls=%v ss=%v", ls, ss)
			}
			continue
		}
		// Cauchy–Schwarz lower bound: SS ≥ ‖LS‖²/n for any real point set.
		lower := ls.Norm2() / float64(n)
		tol := a.opts.RelTol * (1 + math.Abs(ss) + lower)
		if ss < lower-tol {
			a.add(CodeNegativeVariance, i, "ss=%g < |ls|²/n=%g (n=%d)", ss, lower, n)
		}
	}
}

// totals checks Σnᵢ = N and Σβᵢ = 1.
func (a *auditor) totals(set *bubble.Set, totalPoints int) {
	var sumN int
	for _, b := range set.Bubbles() {
		if b.N() > 0 {
			sumN += b.N()
		}
	}
	if sumN != totalPoints {
		a.add(CodeCountMismatch, -1, "Σn=%d but database holds %d points", sumN, totalPoints)
	}
	if totalPoints <= 0 {
		return
	}
	var sumBeta float64
	for _, beta := range set.Betas(totalPoints) {
		sumBeta += beta
	}
	if math.Abs(sumBeta-1) > a.opts.RelTol*float64(1+set.Len()) {
		a.add(CodeBetaSum, -1, "Σβ=%g, want 1", sumBeta)
	}
}

// ownership checks the point→bubble map against per-bubble members/counts.
func (a *auditor) ownership(set *bubble.Set) {
	if err := set.CheckInvariants(); err != nil {
		a.add(CodeOwnership, -1, "%v", err)
	}
}

// seedMatrix checks the Lemma 1 seed distance matrix: zero diagonal,
// symmetry, finiteness, and (unless skipped) agreement with recomputed
// seed distances. SeedDistance only looks entries up and recomputation
// uses the uncounted vecmath.Distance, so an audit never shows up in the
// paper's Figure 10/11 accounting.
func (a *auditor) seedMatrix(set *bubble.Set) {
	if !set.Options().UseTriangleInequality {
		return
	}
	k := set.Len()
	dim := set.Dim()
	for i := 0; i < k; i++ {
		if d := set.SeedDistance(i, i); d != 0 {
			a.add(CodeSeedMatrix, i, "diagonal entry %g, want 0", d)
		}
		for j := i + 1; j < k; j++ {
			dij, dji := set.SeedDistance(i, j), set.SeedDistance(j, i)
			if math.IsNaN(dij) || math.IsInf(dij, 0) || dij < 0 {
				a.add(CodeSeedMatrix, i, "entry (%d,%d)=%g", i, j, dij)
				continue
			}
			//lint:allow floatsafe Lemma 1 caching must be exactly symmetric; any bit difference is the defect being audited
			if dij != dji {
				a.add(CodeSeedMatrix, i, "asymmetric: (%d,%d)=%g vs (%d,%d)=%g", i, j, dij, j, i, dji)
				continue
			}
			si, sj := set.Bubble(i).Seed(), set.Bubble(j).Seed()
			if si.Dim() != dim || sj.Dim() != dim {
				continue // already reported as CodeDimension
			}
			//lint:allow rawdist audits recompute uncounted so verification never inflates Figure 10-11 accounting
			actual := vecmath.Distance(si, sj)
			if math.Abs(dij-actual) > a.opts.RelTol*(1+actual) {
				a.add(CodeSeedMatrix, i, "cached (%d,%d)=%g but seeds are %g apart", i, j, dij, actual)
			}
		}
	}
}
