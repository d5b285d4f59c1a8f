// Command samzasql-vet runs the project's static-analysis suite — the
// machine-checked form of the runtime's hot-path, locking and commit-order
// invariants — over the module's packages and exits non-zero on findings.
//
// Usage:
//
//	go run ./cmd/samzasql-vet ./...            # whole module (what make ci runs)
//	go run ./cmd/samzasql-vet ./internal/...   # one subtree
//	go run ./cmd/samzasql-vet -list            # describe the analyzers
//	go run ./cmd/samzasql-vet -run hotpath-alloc,error-drop ./...
//
// Findings print as file:line:col: analyzer: message. A finding covered by a
// //samzasql:ignore directive is suppressed (shown with -show-ignored).
// With -json every finding — suppressed ones included, so consumers can
// audit the suppression set — prints as one JSON object per line:
//
//	{"rule":"lock-order","pos":"internal/kv/cached.go:12:3","message":"…","suppressed":false}
//
// Every run ends with the suppression count on standard error: how many
// //samzasql:ignore directives the loaded packages carry and how many
// findings they suppress. A directive naming an analyzer the suite does not
// have is printed there as a warning.
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type-check failure. In
// both modes only unsuppressed findings fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"samzasql/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list        = flag.Bool("list", false, "list the analyzers and exit")
		only        = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		showIgnored = flag.Bool("show-ignored", false, "also print findings suppressed by //samzasql:ignore")
		jsonOut     = flag.Bool("json", false, "print one JSON object per finding (suppressed included) instead of text")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Printf("%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.Suite()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "samzasql-vet: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "samzasql-vet:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "samzasql-vet:", err)
		return 2
	}
	pkgs, err := loader.LoadPatterns(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "samzasql-vet:", err)
		return 2
	}

	diags := analysis.Run(pkgs, analyzers)
	cwd, _ := os.Getwd()
	enc := json.NewEncoder(os.Stdout)
	failures, suppressed := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		}
		if d.Suppressed && !*showIgnored && !*jsonOut {
			continue
		}
		file := relTo(cwd, d.Pos.Filename)
		if !d.Suppressed {
			failures++
		}
		if *jsonOut {
			enc.Encode(jsonFinding{
				Rule:       d.Analyzer,
				Pos:        fmt.Sprintf("%s:%d:%d", file, d.Pos.Line, d.Pos.Column),
				File:       file,
				Line:       d.Pos.Line,
				Col:        d.Pos.Column,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
			continue
		}
		note := ""
		if d.Suppressed {
			note = " (suppressed by //samzasql:ignore)"
		}
		fmt.Printf("%s:%d:%d: %s: %s%s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message, note)
	}
	// The suppression set is a standing cost the ROADMAP tracks; print it
	// so the figure is read from CI logs, not counted by hand.
	directives := 0
	for _, pkg := range pkgs {
		directives += pkg.IgnoreDirectives()
		// A directive naming an analyzer the suite no longer has suppresses
		// nothing; it is reported so it gets deleted, but does not fail the
		// run.
		for _, st := range pkg.StaleIgnores() {
			fmt.Fprintf(os.Stderr, "%s:%d: warning: //samzasql:ignore names %q, which is not an analyzer of the suite; delete it\n",
				relTo(cwd, st.Pos.Filename), st.Pos.Line, st.Name)
		}
	}
	fmt.Fprintf(os.Stderr, "samzasql-vet: %d //samzasql:ignore directive(s) suppress %d finding(s)\n", directives, suppressed)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "samzasql-vet: %d finding(s) in %d package(s)\n", failures, len(pkgs))
		return 1
	}
	return 0
}

// jsonFinding is the -json line schema. Pos duplicates File/Line/Col as one
// clickable string; both forms stay so shell pipelines and structured
// consumers each get the shape they want.
type jsonFinding struct {
	Rule       string `json:"rule"`
	Pos        string `json:"pos"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// relTo returns file relative to dir when it lies below dir, else file.
func relTo(dir, file string) string {
	if dir != "" {
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return file
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
