package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package plus the directive index the
// analyzers consult.
type Package struct {
	// PkgPath is the import path ("samzasql/internal/kv").
	PkgPath string
	// Dir is the absolute directory the sources were read from.
	Dir    string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info

	directives *directiveIndex
}

// Loader parses and type-checks packages of one module from source, with
// stdlib dependencies imported from compiled export data. It is stdlib-only:
// module-internal import paths are resolved by mapping them onto directories
// under the module root, which is all a single self-contained module needs.
type Loader struct {
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's import-path prefix ("samzasql").
	ModulePath string
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet

	std      types.Importer
	pkgs     map[string]*Package // memoized by import path
	loading  map[string]bool     // cycle guard
	typeErrs []error
}

// NewLoader builds a loader rooted at the directory holding go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root %s: %w", abs, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		Fset:       token.NewFileSet(),
		std:        importer.Default(),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Import implements types.Importer: module-internal paths load from source,
// everything else (the stdlib) comes from compiled export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) dirFor(pkgPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// load parses and type-checks one module-internal package (memoized).
func (l *Loader) load(pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)
	pkg, err := l.loadDir(l.dirFor(pkgPath), pkgPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

func (l *Loader) loadDir(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: package %s: %w", pkgPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.Fset.Position(files[i].Pos()).Filename < l.Fset.Position(files[j].Pos()).Filename
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	pkg := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.Fset,
		Syntax:  files,
		Types:   tpkg,
		Info:    info,
	}
	pkg.directives = indexDirectives(pkg)
	return pkg, nil
}

// LoadPatterns resolves package patterns to loaded packages. Supported
// patterns, matching what `go run ./cmd/samzasql-vet` is invoked with:
//
//	./...       every package under the module root
//	./x/...     every package under directory x
//	./x, x      the single package in directory x
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	addTree := func(root string) error {
		return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if hasGoSource(path) && !seen[path] {
				seen[path] = true
				dirs = append(dirs, path)
			}
			return nil
		})
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := addTree(l.ModuleRoot); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			if err := addTree(root); err != nil {
				return nil, err
			}
		default:
			dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := l.ModulePath
		if rel != "." {
			pkgPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(pkgPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoSource(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
