package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive comment prefixes. Like //go: directives they must start the
// comment with no space after the slashes.
const (
	hotpathDirective = "//samzasql:hotpath"
	ignoreDirective  = "//samzasql:ignore"
	enforceDirective = "//samzasql:enforce"
)

// ignoreEntry is one //samzasql:ignore occurrence: the analyzers it names
// (empty = all) on the lines it covers.
type ignoreEntry struct {
	analyzers []string // nil means every analyzer
}

// directiveIndex is the per-package view of all samzasql comment directives.
type directiveIndex struct {
	// ignores maps filename -> line -> entry. An entry on line L covers
	// findings on L and L+1, so both trailing comments and comments on the
	// line above the offending statement work.
	ignores map[string]map[int][]ignoreEntry
	// hotpathLines maps filename -> set of lines carrying the hotpath
	// directive.
	hotpathLines map[string]map[int]bool
	// enforced lists the scoped analyzers the package opted into via
	// //samzasql:enforce (fixture packages use this; runtime packages are in
	// scope by import path).
	enforced map[string]bool
}

// indexDirectives scans every comment in the package once.
func indexDirectives(pkg *Package) *directiveIndex {
	idx := &directiveIndex{
		ignores:      map[string]map[int][]ignoreEntry{},
		hotpathLines: map[string]map[int]bool{},
		enforced:     map[string]bool{},
	}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				text := c.Text
				switch {
				case strings.HasPrefix(text, ignoreDirective):
					rest := strings.TrimPrefix(text, ignoreDirective)
					entry := ignoreEntry{analyzers: parseAnalyzerList(rest)}
					byLine := idx.ignores[pos.Filename]
					if byLine == nil {
						byLine = map[int][]ignoreEntry{}
						idx.ignores[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], entry)
				case strings.HasPrefix(text, hotpathDirective):
					lines := idx.hotpathLines[pos.Filename]
					if lines == nil {
						lines = map[int]bool{}
						idx.hotpathLines[pos.Filename] = lines
					}
					lines[pos.Line] = true
				case strings.HasPrefix(text, enforceDirective):
					for _, name := range parseAnalyzerList(strings.TrimPrefix(text, enforceDirective)) {
						idx.enforced[name] = true
					}
				}
			}
		}
	}
	return idx
}

// parseAnalyzerList parses the optional analyzer list after a directive
// keyword: a comma-separated first field; everything after the first
// whitespace-separated field (or after "--") is free-text rationale. A
// missing list yields nil (= all analyzers).
func parseAnalyzerList(rest string) []string {
	fields := strings.Fields(rest)
	if len(fields) == 0 || fields[0] == "--" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(fields[0], ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// suppresses reports whether an ignore directive covers a finding from the
// named analyzer at pos.
func (idx *directiveIndex) suppresses(pos token.Position, analyzer string) bool {
	byLine := idx.ignores[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, e := range byLine[line] {
			if e.analyzers == nil {
				return true
			}
			for _, name := range e.analyzers {
				if name == analyzer {
					return true
				}
			}
		}
	}
	return false
}

// IgnoreDirectives counts the package's //samzasql:ignore occurrences.
func (p *Package) IgnoreDirectives() int {
	n := 0
	for _, byLine := range p.directives.ignores {
		for _, entries := range byLine {
			n += len(entries)
		}
	}
	return n
}

// StaleIgnore is a //samzasql:ignore directive naming an analyzer Suite()
// does not have: a suppression left behind by a deleted or renamed analyzer.
type StaleIgnore struct {
	Pos  token.Position // Column is not recorded
	Name string
}

// StaleIgnores lists the package's stale ignore directives in file and line
// order.
func (p *Package) StaleIgnores() []StaleIgnore {
	var out []StaleIgnore
	for file, byLine := range p.directives.ignores {
		for line, entries := range byLine {
			for _, e := range entries {
				for _, name := range e.analyzers {
					if ByName(name) == nil {
						out = append(out, StaleIgnore{Pos: token.Position{Filename: file, Line: line}, Name: name})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// Enforces reports whether the package opted into the named scoped analyzer
// via //samzasql:enforce.
func (p *Package) Enforces(analyzer string) bool {
	return p.directives.enforced[analyzer]
}

// IsHotPath reports whether decl carries the //samzasql:hotpath directive —
// in its doc comment or on the line directly above (or on) the line the
// declaration starts on.
func (p *Package) IsHotPath(decl *ast.FuncDecl) bool {
	pos := p.Fset.Position(decl.Pos())
	lines := p.directives.hotpathLines[pos.Filename]
	if lines == nil {
		return false
	}
	if lines[pos.Line] || lines[pos.Line-1] {
		return true
	}
	if decl.Doc != nil {
		start := p.Fset.Position(decl.Doc.Pos()).Line
		for l := start; l < pos.Line; l++ {
			if lines[l] {
				return true
			}
		}
	}
	return false
}

// HotPathFuncs returns the package's hotpath-annotated declarations.
func (p *Package) HotPathFuncs() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Syntax {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && p.IsHotPath(fd) {
				out = append(out, fd)
			}
		}
	}
	return out
}
