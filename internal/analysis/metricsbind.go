package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MetricsBinding enforces the pre-bound-handle rule: metric handles are
// looked up from the registry once per task (Init/Open/constructor) and the
// per-message path touches only the returned *Counter/*Gauge/Timer. A
// registry lookup inside ProcessBatch/ProcessBlock/poll code takes the
// registry's RWMutex and hashes the metric name per call — contention the
// hot path must not carry.
var MetricsBinding = &Analyzer{
	Name: "metrics-binding",
	Doc: "no metrics.Registry name lookups (Counter/Gauge/Histogram/Timer) inside ProcessBatch/ProcessBlock " +
		"methods, poll loops, or //samzasql:hotpath functions; bind handles once per task and reuse them",
	Run: runMetricsBinding,
}

// registryLookupMethods are the name-resolving constructors on
// metrics.Registry. Snapshot/Names are reporter-path reads and stay legal.
var registryLookupMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Timer":     true,
}

// processLoopFuncs are function names that are per-message paths by
// convention even without a hotpath annotation: a task's block entry point
// (samza.StreamTask) and an operator's (operators.BlockOperator).
var processLoopFuncs = map[string]bool{
	"ProcessBatch": true,
	"ProcessBlock": true,
}

func runMetricsBinding(pass *Pass) {
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			name := decl.Name.Name
			hot := pass.Pkg.IsHotPath(decl)
			looped := processLoopFuncs[name] || strings.HasPrefix(strings.ToLower(name), "poll")
			if !hot && !looped {
				continue
			}
			why := "a //samzasql:hotpath function"
			if looped {
				why = "a per-message " + name + " path"
			}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registryLookupMethods[sel.Sel.Name] {
					return true
				}
				if !isMetricsRegistry(pass.TypeOf(sel.X)) {
					return true
				}
				pass.Reportf(call.Pos(), "registry lookup %s(...) inside %s takes the registry lock and hashes the name per message; bind the handle once per task (Init/Open) and reuse it", sel.Sel.Name, why)
				return true
			})
		}
	}
}

// isMetricsRegistry reports whether t is (a pointer to) the runtime's
// metrics.Registry.
func isMetricsRegistry(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/metrics")
}
