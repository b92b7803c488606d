// Package errsentinel flags sentinel-error comparisons written with == or
// != (or a switch over an error value with sentinel cases) instead of
// errors.Is (DESIGN.md §14). The repository's failure paths lean on
// sentinels — wal.ErrPoisoned, failpoint.ErrCrash, io.EOF — and
// several of them cross wrapping boundaries (%w) on their way up the
// stack: an == comparison silently
// stops matching the moment any layer wraps the error, which is exactly
// how a retryable checkpoint failure once became a permanent one.
//
// A sentinel is a package-level variable assignable to error. Comparisons
// against nil are fine (that is how Go spells success), and comparisons
// inside an `Is(error) bool` method are exempt — implementing the
// errors.Is protocol is the one place identity comparison belongs.
// Anything else deliberate carries //lint:allow errsentinel with a reason.
package errsentinel

import (
	"go/ast"
	"go/token"
	"go/types"

	"incbubbles/internal/analysis/framework"
)

// Analyzer is the errsentinel check.
var Analyzer = &framework.Analyzer{
	Name: "errsentinel",
	Doc: "sentinel errors must be compared with errors.Is, not == / != / " +
		"switch-case — wrapping breaks identity comparison (DESIGN.md §14)",
	Run: run,
}

func run(pass *framework.Pass) (interface{}, error) {
	errType := types.Universe.Lookup("error").Type()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isErrorsIsMethod(pass.TypesInfo, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					name := sentinelName(pass.TypesInfo, errType, n.X)
					if name == "" {
						name = sentinelName(pass.TypesInfo, errType, n.Y)
					}
					if name == "" {
						return true
					}
					// The other operand must be error-typed too, or this is
					// not an error comparison at all.
					if !isErrorExpr(pass.TypesInfo, errType, n.X) || !isErrorExpr(pass.TypesInfo, errType, n.Y) {
						return true
					}
					pass.Reportf(n.OpPos, "sentinel error %s compared with %s: wrapping with %%w breaks identity — use errors.Is",
						name, n.Op)
				case *ast.SwitchStmt:
					if n.Tag == nil || !isErrorExpr(pass.TypesInfo, errType, n.Tag) {
						return true
					}
					for _, cl := range n.Body.List {
						cc, ok := cl.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, e := range cc.List {
							if name := sentinelName(pass.TypesInfo, errType, e); name != "" {
								pass.Reportf(e.Pos(), "switch case compares sentinel error %s by identity: wrapping with %%w breaks it — use if/else with errors.Is", name)
							}
						}
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// sentinelName returns the printable name of e when it references a
// package-level error variable, else "".
func sentinelName(info *types.Info, errType types.Type, e ast.Expr) string {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return ""
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !types.AssignableTo(v.Type(), errType) {
		return ""
	}
	return v.Name()
}

// isErrorExpr reports whether e's static type is assignable to error and
// not the untyped nil.
func isErrorExpr(info *types.Info, errType types.Type, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.AssignableTo(t, errType)
}

// isErrorsIsMethod reports whether fd implements the errors.Is protocol:
// a method named Is taking one error and returning bool. Identity
// comparison against sentinels is the point of such methods.
func isErrorsIsMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "Is" || fd.Recv == nil {
		return false
	}
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	if !types.Identical(sig.Params().At(0).Type(), errType) {
		return false
	}
	b, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.Bool
}
