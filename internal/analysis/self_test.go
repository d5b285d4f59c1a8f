package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoIsClean runs the full suite over the repository itself, the same
// way `make vet-custom` does, and fails on any unsuppressed finding. This is
// the check that keeps the runtime honest between CI runs of the CLI: a
// change that drops a commit-chain error or allocates on a hot path breaks
// `go test ./internal/analysis` locally, not just the vet step.
func TestRepoIsClean(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadPatterns(./...) found no packages")
	}
	diags := Run(pkgs, Suite())
	for _, d := range Unsuppressed(diags) {
		t.Errorf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
	}
}

// TestSuiteHasInterproceduralRules pins the whole-program rules into the
// suite: dropping one from Suite() would silently stop checking deadlock
// freedom and channel hygiene everywhere (TestRepoIsClean and make
// vet-custom both run Suite()).
func TestSuiteHasInterproceduralRules(t *testing.T) {
	have := map[string]bool{}
	for _, a := range Suite() {
		have[a.Name] = true
	}
	for _, want := range []string{"lock-order", "chan-leak"} {
		if !have[want] {
			t.Errorf("Suite() lost the %s analyzer", want)
		}
		a := ByName(want)
		if a == nil {
			t.Errorf("ByName(%q) = nil", want)
			continue
		}
		if a.RunProgram == nil {
			t.Errorf("%s must be a whole-program (RunProgram) analyzer", want)
		}
	}
}

// TestRepoHasHotpathAnnotations guards the annotation satellite: the message
// hot paths must stay marked, otherwise hotpath-alloc silently checks
// nothing. The exact function set may grow, but it must never shrink to the
// point of vacuity.
func TestRepoHasHotpathAnnotations(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	perPkg := map[string]int{}
	for _, pkg := range pkgs {
		n := len(pkg.HotPathFuncs())
		total += n
		perPkg[pkg.PkgPath] = n
	}
	// hotpath-alloc, metrics-binding, trace-guard and profile-guard all scope
	// their checks to these annotations, so shrinking the set blinds four
	// analyzers, not one. The floor sits under the current count (52, after
	// the per-tuple bodies and their five annotations went) but far above
	// vacuity.
	if total < 45 {
		t.Fatalf("only %d //samzasql:hotpath functions in the tree; the message hot paths must stay annotated", total)
	}
	for _, want := range []string{
		"samzasql/internal/samza",
		"samzasql/internal/kafka",
		"samzasql/internal/kv",
		"samzasql/internal/monitor",
		"samzasql/internal/operators",
		"samzasql/internal/executor",
		// RouteBatch: the one way from a task into the operators.
		"samzasql/internal/sql/physical",
	} {
		if perPkg[want] == 0 {
			t.Errorf("package %s has no //samzasql:hotpath annotations left", want)
		}
	}
}

// TestStaleIgnores: a suppression naming an analyzer the suite no longer
// has is found, and live names and the name-less form are not.
func TestStaleIgnores(t *testing.T) {
	dir := t.TempDir()
	src := `package stale

//samzasql:ignore lock-discipline -- live
//samzasql:ignore error-drop,hotpath-blocking -- one live, one deleted
//samzasql:ignore -- every analyzer
var x int
`
	if err := os.WriteFile(filepath.Join(dir, "stale.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "samzasql-vet-fixtures/stale")
	if err != nil {
		t.Fatal(err)
	}
	got := pkg.StaleIgnores()
	if len(got) != 1 || got[0].Name != "hotpath-blocking" || got[0].Pos.Line != 4 {
		t.Fatalf("StaleIgnores() = %+v, want hotpath-blocking on line 4", got)
	}
}
