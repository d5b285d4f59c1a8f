// Package analysis is a small, stdlib-only static-analysis framework plus
// the project-specific analyzers that machine-check the runtime's hot-path,
// locking and commit-order invariants. PRs 1–3 made the runtime fast by
// imposing rules the compiler cannot see (zero-allocation message paths,
// metrics handles bound once per task, store-flush → changelog-flush →
// offset-commit ordering, single-lock poll passes); this package turns those
// rules from comments into diagnostics with file:line positions, so a
// refactor that silently regresses one fails `samzasql-vet` instead of a
// benchmark three PRs later.
//
// The framework is deliberately tiny: a loader built on go/parser +
// go/types + go/importer (no golang.org/x/tools dependency), an Analyzer
// interface, and comment directives:
//
//	//samzasql:hotpath          marks a function as allocation-sensitive;
//	                            hotpath-alloc checks its body
//	//samzasql:enforce a,b      opts a package into the scoped analyzers
//	                            a and b (used by fixtures; the runtime
//	                            packages are in scope by import path)
//	//samzasql:ignore [a,b] …   suppresses findings (optionally only from
//	                            analyzers a,b) on this line and the next
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //samzasql:ignore / //samzasql:enforce directive lists.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check over pass.Pkg (per-package analyzers).
	Run func(pass *Pass)
	// RunProgram performs the check over pass.Prog — the whole-module view
	// with CFGs and the call graph. Exactly one of Run/RunProgram is set;
	// RunProgram analyzers are invoked once per Run call, not per package.
	RunProgram func(pass *Pass)
}

// Diagnostic is one finding, positioned at a file:line:col.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is set when a //samzasql:ignore directive covers the
	// finding; suppressed diagnostics do not fail the build.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of its subject: one package (Pkg set)
// for per-package analyzers, the whole program (Prog set) for
// interprocedural ones.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-module view (CFGs + call graph); set only for
	// RunProgram analyzers.
	Prog *Program

	diags *[]Diagnostic
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet {
	if p.Pkg != nil {
		return p.Pkg.Fset
	}
	return p.Prog.Fset
}

// Files returns the package's parsed syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Syntax }

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset().Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package, resolves //samzasql:ignore
// suppressions, and returns the diagnostics sorted by position. Suppressed
// findings are included (marked) so callers can surface them with -show-ignored.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var wholeProgram []*Analyzer
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.RunProgram != nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			wholeProgram = append(wholeProgram, a)
		}
	}
	if len(wholeProgram) > 0 {
		prog := BuildProgram(pkgs)
		for _, a := range wholeProgram {
			pass := &Pass{Analyzer: a, Prog: prog, diags: &diags}
			a.RunProgram(pass)
		}
	}
	for i := range diags {
		d := &diags[i]
		for _, pkg := range pkgs {
			if pkg.directives.suppresses(d.Pos, d.Analyzer) {
				d.Suppressed = true
				break
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
