// Command himaplint runs the repository's custom static-analysis suite
// (internal/analysis): three stdlib-only go/ast + go/types analyzers
// enforcing invariants no other gate sees — mapping determinism,
// typed-error discipline, and cancellation polling in every function
// that takes a context.
//
// Usage:
//
//	go run ./cmd/himaplint ./...              # whole module (the CI gate)
//	go run ./cmd/himaplint ./internal/route   # one package
//
// Exit status: 0 when clean, 1 on any unsuppressed finding, 2 on usage
// errors or load/type-check failure. Suppress an accepted exception in
// place with
//
//	//lint:ignore <analyzer> <reason>
//
// on (or directly above) the flagged line; the analyzer name must be
// from the catalogue ("all" is rejected) and the reason is mandatory.
// Dead suppressions are themselves findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"himap/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	// No flags are defined: the set exists so -h and stray flags get the
	// usage text and exit status 2.
	fs := flag.NewFlagSet("himaplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: himaplint <packages>\n\npatterns: ./... for the whole module, or package directories\n")
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.Load(".")
	if err != nil {
		fmt.Fprintf(stderr, "himaplint: %v\n", err)
		return 2
	}
	match, err := packageFilter(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "himaplint: %v\n", err)
		return 2
	}

	findings := 0
	for _, d := range analysis.Run(prog, analysis.All(), analysis.DefaultScope()) {
		if !match(d.Pos.Filename) {
			continue
		}
		findings++
		if r, err := filepath.Rel(prog.Root, d.Pos.Filename); err == nil {
			d.Pos.Filename = r
		}
		fmt.Fprintln(stdout, d)
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "himaplint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// packageFilter resolves CLI patterns to a filename predicate. "./..."
// (or "...") accepts everything; "./dir/..." accepts the subtree; a bare
// directory accepts files directly inside it.
func packageFilter(patterns []string) (func(string) bool, error) {
	type rule struct {
		dir     string
		subtree bool
	}
	var rules []rule
	for _, pat := range patterns {
		subtree := false
		if strings.HasSuffix(pat, "/...") {
			subtree = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				return func(string) bool { return true }, nil
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(abs); err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
		rules = append(rules, rule{dir: abs, subtree: subtree})
	}
	return func(file string) bool {
		dir := filepath.Dir(file)
		for _, r := range rules {
			if dir == r.dir {
				return true
			}
			if r.subtree && strings.HasPrefix(dir, r.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}
