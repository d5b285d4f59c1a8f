package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ProfileGuard keeps internal/profile off the message path: no
// //samzasql:hotpath function may call into the package. Its runtime/metrics
// Collector reads process-wide runtime state (runtime/metrics.Read walks
// every sample and replays histogram buckets), so it belongs on the metrics
// reporter's refresh hook, once per publish, never once per batch.
var ProfileGuard = &Analyzer{
	Name: "profile-guard",
	Doc: "//samzasql:hotpath functions must not call into internal/profile; runtime/metrics " +
		"collection runs on the metrics reporter, once per publish",
	Run: runProfileGuard,
}

func runProfileGuard(pass *Pass) {
	for _, decl := range pass.Pkg.HotPathFuncs() {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := profileCallee(pass, call); fn != nil {
				pass.Reportf(call.Pos(), "unguarded profile.%s call in //samzasql:hotpath function %s reads process-wide runtime state per batch; refresh from the metrics reporter instead", fn.Name(), decl.Name.Name)
			}
			return true
		})
	}
}

// profileCallee resolves call's target and returns it when it lives in the
// internal/profile package (package functions and methods on its types
// alike).
func profileCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Info().Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/profile") {
		return nil
	}
	return fn
}
