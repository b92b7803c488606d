// Package rawdist forbids uncounted Euclidean-distance computation outside
// internal/vecmath. The paper's efficiency results (Figures 10 and 11) are
// stated in numbers of distance calculations, so every coordinate-scanning
// distance evaluation must flow through a (*vecmath.Counter) or
// (*vecmath.Tally) — a direct call to the uncounted package functions, or a
// hand-rolled diff-square-accumulate loop, silently removes work from that
// accounting and lets the reported pruning factors drift.
package rawdist

import (
	"go/ast"
	"go/token"

	"incbubbles/internal/analysis/bubblelint/lintutil"
	"incbubbles/internal/analysis/framework"
)

// Analyzer is the rawdist check.
var Analyzer = &framework.Analyzer{
	Name: "rawdist",
	Doc: "forbid uncounted Euclidean-distance math outside internal/vecmath " +
		"(protects the Figure 10–11 distance-calculation accounting)",
	Run: run,
}

// uncounted are the vecmath package-level distance functions that bypass
// counters.
var uncounted = map[string]bool{"Distance": true, "SquaredDistance": true}

func run(pass *framework.Pass) (interface{}, error) {
	if lintutil.PathWithin(pass.Pkg.Path(), "internal/vecmath") {
		return nil, nil // the one package allowed to implement raw scans
	}
	for _, file := range pass.Files {
		f := file
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := lintutil.Callee(pass.TypesInfo, n)
				if fn != nil && uncounted[fn.Name()] &&
					lintutil.IsPkgFunc(pass.TypesInfo, n, "internal/vecmath", fn.Name()) {
					pass.Reportf(n.Pos(),
						"uncounted vecmath.%s call; route through (*vecmath.Counter).%s or (*vecmath.Tally).%s so the Figure 10–11 distance accounting counts it",
						fn.Name(), fn.Name(), fn.Name())
				}
			case *ast.ForStmt:
				checkLoopBody(pass, f, n.Body)
			case *ast.RangeStmt:
				checkLoopBody(pass, f, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// checkLoopBody flags diff-square accumulations (s += (a[i]-b[i])*(a[i]-b[i]),
// including the d := a[i]-b[i]; s += d*d and math.Pow(a[i]-b[i], 2) forms)
// in a loop body: the textbook shape of a hand-rolled squared-distance scan.
func checkLoopBody(pass *framework.Pass, file *ast.File, body *ast.BlockStmt) {
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		var acc ast.Expr
		switch as.Tok {
		case token.ADD_ASSIGN:
			acc = as.Rhs[0]
		case token.ASSIGN:
			// s = s + e
			bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
			if !ok || bin.Op != token.ADD {
				continue
			}
			lhs := lintutil.ExprString(as.Lhs[0])
			switch {
			case lintutil.ExprString(bin.X) == lhs:
				acc = bin.Y
			case lintutil.ExprString(bin.Y) == lhs:
				acc = bin.X
			default:
				continue
			}
		default:
			continue
		}
		if !lintutil.IsFloat(pass.TypesInfo.TypeOf(as.Lhs[0])) {
			continue
		}
		if isSquaredDiff(pass, file, acc) {
			pass.Reportf(as.Pos(),
				"raw Euclidean-distance loop (coordinate diff squared and accumulated); use (*vecmath.Counter).SquaredDistance or (*vecmath.Tally).SquaredDistance so the Figure 10–11 distance accounting counts it")
		}
	}
}

// isSquaredDiff reports whether e squares a coordinate difference:
// (a[i]-b[i])*(a[i]-b[i]), d*d with d defined as such a difference, or
// math.Pow(a[i]-b[i], 2).
func isSquaredDiff(pass *framework.Pass, file *ast.File, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if lintutil.IsPkgFunc(pass.TypesInfo, call, "math", "Pow") && len(call.Args) == 2 {
			return isIndexedDiff(pass, file, call.Args[0])
		}
		return false
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok || bin.Op != token.MUL {
		return false
	}
	if lintutil.ExprString(bin.X) != lintutil.ExprString(bin.Y) {
		return false
	}
	return isIndexedDiff(pass, file, bin.X)
}

// isIndexedDiff reports whether e is a float difference of two indexed
// expressions sharing one index over distinct bases (p[i] - q[i]), either
// directly or through a local variable defined from one. The indexed-pair
// requirement is what separates a point-to-point distance scan from other
// squared accumulations (variance, norms of a single vector's updates).
func isIndexedDiff(pass *framework.Pass, file *ast.File, e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		scope := framework.EnclosingFunc(file, id.Pos())
		for _, rhs := range lintutil.DefiningRHS(pass.TypesInfo, scope, id) {
			if isIndexedDiff(pass, file, rhs) {
				return true
			}
		}
		return false
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok || bin.Op != token.SUB || !lintutil.IsFloat(pass.TypesInfo.TypeOf(bin)) {
		return false
	}
	xi, ok := ast.Unparen(bin.X).(*ast.IndexExpr)
	if !ok {
		return false
	}
	yi, ok := ast.Unparen(bin.Y).(*ast.IndexExpr)
	if !ok {
		return false
	}
	return lintutil.ExprString(xi.Index) == lintutil.ExprString(yi.Index) &&
		lintutil.ExprString(xi.X) != lintutil.ExprString(yi.X)
}
