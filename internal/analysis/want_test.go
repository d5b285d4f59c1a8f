package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// expectation is one `// want "…"` or `// want-suppressed "…"` comment in a
// fixture file: a regexp the diagnostic on that line must match.
type expectation struct {
	file       string
	line       int
	re         *regexp.Regexp
	suppressed bool
	matched    bool
}

var wantRE = regexp.MustCompile("//\\s*(want|want-suppressed)\\s+`([^`]+)`")

// parseExpectations extracts the want comments from every .go file in dir.
func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", path, m[2], err)
				}
				wants = append(wants, &expectation{
					file:       path,
					line:       fset.Position(c.Pos()).Line,
					re:         re,
					suppressed: m[1] == "want-suppressed",
				})
			}
		}
	}
	return wants
}

// checkFixture loads the fixture package in testdata/src/<name>, runs one
// analyzer over it, and verifies the diagnostics against the fixture's want
// comments: every want must be hit by a matching diagnostic with the right
// suppression state, and every diagnostic must be claimed by a want.
func checkFixture(t *testing.T, name string, analyzer *Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "samzasql-vet-fixtures/"+name)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{analyzer})
	wants := parseExpectations(t, dir)

	for _, d := range diags {
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if !w.re.MatchString(d.Message) {
				continue
			}
			if w.suppressed != d.Suppressed {
				t.Errorf("%s: diagnostic %q suppressed=%v, want comment expects suppressed=%v",
					d.Pos, d.Message, d.Suppressed, w.suppressed)
			}
			w.matched = true
			claimed = true
			break
		}
		if !claimed {
			t.Errorf("unexpected diagnostic %s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Test files (_test.go) are excluded: the analyzers guard the runtime,
// and test-only code is free to allocate, spawn, and drop errors as it
// pleases.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	pkg, err := l.loadDir(dir, pkgPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

// Unsuppressed filters diags down to the findings that should fail a build.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
