package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural analyzers
// propagate summaries over. Nodes are functions — declared functions and
// methods plus function literals, each with its own CFG — and edges are
// call sites resolved through go/types:
//
//   - direct calls to module functions and methods resolve statically;
//   - interface method calls are devirtualized to every module type whose
//     method set satisfies the interface, bounded by devirtLimit (beyond
//     the bound the site is marked Unknown rather than fanning out);
//   - calls through function values (fields, parameters, variables) are
//     Unknown — the analyzers treat Unknown sites conservatively per rule;
//   - go and defer call sites keep their spawn/defer nature on the edge, so
//     analyses can decide whether facts flow across them (a goroutine does
//     not block its spawner; a deferred call runs on every exit path).

// devirtLimit bounds interface-call devirtualization: when more module
// types implement the called interface, the site is marked Unknown instead
// of adding an edge per implementation. This keeps wide interfaces (say, a
// future multi-backend Store with a dozen engines) from turning every
// virtual call into an everything-calls-everything blowup.
const devirtLimit = 12

// Func is one analyzable function: a declared function/method (Decl set) or
// a function literal (Lit set).
type Func struct {
	// Obj is the type-checker object for declared functions; nil for
	// literals.
	Obj *types.Func
	// Decl / Lit: exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Parent is the enclosing Func for literals; nil for declarations.
	Parent *Func
	// Pkg is the package the function was parsed from.
	Pkg *Package
	// CFG is the function body's control-flow graph (nil when the decl has
	// no body).
	CFG *CFG

	name string
}

// Name returns a stable printable name: "pkg.Fn", "(*pkg.T).Method", or
// "pkg.Fn$litN" for literals.
func (f *Func) Name() string { return f.name }

// Body returns the function body (nil for bodiless declarations).
func (f *Func) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// Pos returns the function's source position.
func (f *Func) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return f.Lit.Pos()
}

// CallSite is one resolved call expression within a caller.
type CallSite struct {
	Caller *Func
	Call   *ast.CallExpr
	// Go / Deferred mark `go f()` and `defer f()` sites.
	Go       bool
	Deferred bool
	// Callees are the module-internal functions the call may reach.
	Callees []*Func
	// Unknown is set when at least one possible target could not be
	// resolved (function values, over-wide interfaces, external callbacks).
	Unknown bool
}

// CallGraph indexes every function and call site of a Program.
type CallGraph struct {
	// Funcs lists every function in deterministic (position) order.
	Funcs []*Func
	// ByObj maps declared function objects to their node.
	ByObj map[*types.Func]*Func
	// ByLit maps literal syntax to its node.
	ByLit map[*ast.FuncLit]*Func
	// Sites lists each function's call sites in source order.
	Sites map[*Func][]*CallSite
	// CallerSites lists the sites that may invoke a function.
	CallerSites map[*Func][]*CallSite
}

// Program is the whole-module view a whole-program analyzer runs over.
type Program struct {
	Pkgs  []*Package
	Fset  *token.FileSet
	Graph *CallGraph

	// concreteTypes caches every module named type (for devirtualization).
	concreteTypes []*types.Named
}

// BuildProgram assembles CFGs and the call graph for a set of packages.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	} else {
		prog.Fset = token.NewFileSet()
	}
	g := &CallGraph{
		ByObj:       map[*types.Func]*Func{},
		ByLit:       map[*ast.FuncLit]*Func{},
		Sites:       map[*Func][]*CallSite{},
		CallerSites: map[*Func][]*CallSite{},
	}
	prog.Graph = g

	// Pass 1: collect functions (decls first, then literals inside them, in
	// source order) and module named types.
	for _, pkg := range pkgs {
		prog.collectTypes(pkg)
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				fn := &Func{
					Obj:  obj,
					Decl: fd,
					Pkg:  pkg,
					CFG:  BuildCFG(fd.Body),
					name: declName(pkg, fd, obj),
				}
				g.Funcs = append(g.Funcs, fn)
				if obj != nil {
					g.ByObj[obj] = fn
				}
				prog.collectLiterals(fn)
			}
		}
	}

	// Pass 2: resolve call sites.
	for _, fn := range g.Funcs {
		prog.resolveSites(fn)
	}
	for _, fn := range g.Funcs {
		for _, site := range g.Sites[fn] {
			for _, callee := range site.Callees {
				g.CallerSites[callee] = append(g.CallerSites[callee], site)
			}
		}
	}
	return prog
}

// collectLiterals registers every function literal in fn's own body (not in
// nested literals — those are registered by their own parent) as a child
// Func with its own CFG.
func (p *Program) collectLiterals(fn *Func) {
	n := 0
	var walk func(node ast.Node)
	walk = func(node ast.Node) {
		ast.Inspect(node, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			child := &Func{
				Lit:    lit,
				Parent: fn,
				Pkg:    fn.Pkg,
				CFG:    BuildCFG(lit.Body),
				name:   fmt.Sprintf("%s$lit%d", fn.name, n+1),
			}
			n++
			p.Graph.Funcs = append(p.Graph.Funcs, child)
			p.Graph.ByLit[lit] = child
			p.collectLiterals(child)
			return false // nested literals handled by the recursive call above
		})
	}
	// Inspect the body but skip the root itself re-matching.
	for _, stmt := range fn.Body().List {
		walk(stmt)
	}
}

// collectTypes caches the package's named types for devirtualization.
func (p *Program) collectTypes(pkg *Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(named) {
			continue
		}
		p.concreteTypes = append(p.concreteTypes, named)
	}
}

// resolveSites finds and resolves every call site in fn's own body
// (excluding nested literals, which own their sites).
func (p *Program) resolveSites(fn *Func) {
	info := fn.Pkg.Info
	var sites []*CallSite

	var visit func(node ast.Node, inGo, inDefer bool)
	visit = func(node ast.Node, inGo, inDefer bool) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false // its own Func resolves its sites
			case *ast.GoStmt:
				sites = append(sites, p.resolveCall(fn, info, x.Call, true, false))
				for _, arg := range x.Call.Args {
					visit(arg, false, false)
				}
				visit(x.Call.Fun, false, false)
				return false
			case *ast.DeferStmt:
				sites = append(sites, p.resolveCall(fn, info, x.Call, false, true))
				for _, arg := range x.Call.Args {
					visit(arg, false, false)
				}
				visit(x.Call.Fun, false, false)
				return false
			case *ast.CallExpr:
				sites = append(sites, p.resolveCall(fn, info, x, inGo, inDefer))
				return true // arguments may contain further calls
			}
			return true
		})
	}
	for _, stmt := range fn.Body().List {
		visit(stmt, false, false)
	}
	// Source order keeps downstream output deterministic.
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].Call.Pos() < sites[j].Call.Pos() })
	p.Graph.Sites[fn] = sites
}

// resolveCall classifies one call expression.
func (p *Program) resolveCall(caller *Func, info *types.Info, call *ast.CallExpr, isGo, isDefer bool) *CallSite {
	site := &CallSite{Caller: caller, Call: call, Go: isGo, Deferred: isDefer}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			p.addStaticCallee(site, obj)
		case *types.Builtin, *types.TypeName:
			// Builtins and conversions: no edge, fully resolved.
		case *types.Var:
			site.Unknown = true // function value
		case nil:
			// Defs (shouldn't happen for a call) or unresolved: be safe.
			site.Unknown = true
		default:
			site.Unknown = true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj, ok := sel.Obj().(*types.Func)
			if !ok {
				site.Unknown = true // func-typed field value
				break
			}
			recv := sel.Recv()
			if types.IsInterface(derefType(recv)) {
				p.devirtualize(site, derefType(recv), obj)
			} else {
				p.addStaticCallee(site, obj)
			}
		} else {
			// Qualified identifier (pkg.Fn) or type conversion.
			switch obj := info.Uses[fun.Sel].(type) {
			case *types.Func:
				p.addStaticCallee(site, obj)
			case *types.TypeName:
				// conversion
			case *types.Var:
				site.Unknown = true
			default:
				site.Unknown = true
			}
		}
	case *ast.FuncLit:
		if fn, ok := p.Graph.ByLit[fun]; ok {
			site.Callees = append(site.Callees, fn)
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.InterfaceType, *ast.StarExpr:
		// type conversion
	case *ast.IndexExpr, *ast.IndexListExpr:
		// generic instantiation or indexed function value; resolve the
		// underlying object when it is a function.
		if id := indexedIdent(fun); id != nil {
			if obj, ok := info.Uses[id].(*types.Func); ok {
				p.addStaticCallee(site, obj)
				break
			}
		}
		site.Unknown = true
	default:
		site.Unknown = true
	}
	return site
}

func indexedIdent(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.IndexExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id
		}
	case *ast.IndexListExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id
		}
	}
	return nil
}

// addStaticCallee records obj as a target when it is a module function with
// a body; stdlib and bodiless targets resolve to nothing (the analyzers
// classify external calls directly from the call expression).
func (p *Program) addStaticCallee(site *CallSite, obj *types.Func) {
	if obj == nil {
		return
	}
	if fn, ok := p.Graph.ByObj[obj.Origin()]; ok {
		site.Callees = append(site.Callees, fn)
	}
}

// devirtualize resolves an interface method call to every module type whose
// method set satisfies the interface, bounded by devirtLimit.
func (p *Program) devirtualize(site *CallSite, iface types.Type, method *types.Func) {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		site.Unknown = true
		return
	}
	var targets []*Func
	for _, named := range p.concreteTypes {
		var impl types.Type
		switch {
		case types.Implements(named, it):
			impl = named
		case types.Implements(types.NewPointer(named), it):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, method.Pkg(), method.Name())
		fnObj, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if fn, ok := p.Graph.ByObj[fnObj.Origin()]; ok {
			targets = append(targets, fn)
		}
	}
	if len(targets) > devirtLimit {
		site.Unknown = true
		return
	}
	// Interface values can also hold types outside the module (stdlib or
	// test doubles); note the residual uncertainty without giving up the
	// resolved fan-out.
	site.Callees = append(site.Callees, targets...)
}

// derefType strips one level of pointer.
func derefType(t types.Type) types.Type {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// declName renders a declared function's stable display name.
func declName(pkg *Package, fd *ast.FuncDecl, obj *types.Func) string {
	short := pkg.PkgPath
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return short + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	ptr := false
	if se, ok := recv.(*ast.StarExpr); ok {
		ptr = true
		recv = se.X
	}
	name := "?"
	switch r := recv.(type) {
	case *ast.Ident:
		name = r.Name
	case *ast.IndexExpr:
		if id, ok := r.X.(*ast.Ident); ok {
			name = id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := r.X.(*ast.Ident); ok {
			name = id.Name
		}
	}
	if ptr {
		return fmt.Sprintf("(*%s.%s).%s", short, name, fd.Name.Name)
	}
	return fmt.Sprintf("(%s.%s).%s", short, name, fd.Name.Name)
}
