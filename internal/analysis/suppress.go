package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Suppression grammar:
//
//	//lint:ignore <analyzer> <reason>
//
// The comment suppresses diagnostics of the named analyzer on the line
// it sits on and on the line directly below — so it works both as an
// end-of-line annotation and as a standalone comment above the flagged
// statement. The analyzer name must be a real analyzer from the
// catalogue ("all" is rejected: every accepted exception names exactly
// what it excepts), and a reason is mandatory. Directives that are
// malformed — or that suppress nothing when their analyzer runs over
// the package (dead suppressions left behind by fixed code) — are
// themselves reported under the pseudo-analyzer "suppress".
type ignoreDirective struct {
	analyzer string
	reason   bool
	line     int
	pos      token.Pos
	used     bool
}

func (d *ignoreDirective) covers(line int) bool {
	return line == d.line || line == d.line+1
}

// collectIgnores scans the files' comments for //lint:ignore
// directives, one entry per directive, keyed by filename.
func collectIgnores(fset *token.FileSet, files []*ast.File) map[string][]*ignoreDirective {
	out := map[string][]*ignoreDirective{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				out[pos.Filename] = append(out[pos.Filename], &ignoreDirective{
					analyzer: fields[0],
					reason:   len(fields) >= 2,
					line:     pos.Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// filterSuppressed drops diagnostics covered by a well-formed ignore
// directive naming their analyzer, marking the directives used.
func filterSuppressed(dirs map[string][]*ignoreDirective, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !suppressed(dirs[d.Pos.Filename], d) {
			out = append(out, d)
		}
	}
	return out
}

func suppressed(dirs []*ignoreDirective, d Diagnostic) bool {
	hit := false
	for _, dir := range dirs {
		if dir.reason && dir.analyzer == d.Analyzer && dir.covers(d.Pos.Line) {
			dir.used = true
			hit = true // keep marking every matching directive used
		}
	}
	return hit
}

// suppressionFindings reports the directive-level problems of one
// package: missing reasons, the rejected "all" wildcard, unknown
// analyzer names, and dead suppressions. Deadness is only judged for
// directives whose analyzer actually ran over this package — one that
// is scoped away from it (or left out of a fixture run) must not have
// its suppressions called dead.
func suppressionFindings(fset *token.FileSet, dirs map[string][]*ignoreDirective, known map[string]bool, analyzers []*Analyzer, scope Scope, pkgPath string) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		if scope.includes(a.Name, pkgPath) {
			ran[a.Name] = true
		}
	}
	var out []Diagnostic
	report := func(d *ignoreDirective, format string, args ...any) {
		out = append(out, Diagnostic{
			Analyzer: SuppressName,
			Pos:      fset.Position(d.pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	var files []string
	for f := range dirs {
		files = append(files, f)
	}
	// The driver sorts diagnostics afterwards; file order here only
	// needs to be stable, not meaningful.
	sort.Strings(files)
	for _, f := range files {
		for _, d := range dirs[f] {
			switch {
			case d.analyzer == "all":
				report(d, "//lint:ignore all names no specific analyzer; name the analyzer being suppressed")
			case !known[d.analyzer]:
				report(d, "//lint:ignore names unknown analyzer %q", d.analyzer)
			case !d.reason:
				report(d, "//lint:ignore %s needs a reason: //lint:ignore <analyzer> <reason>", d.analyzer)
			case ran[d.analyzer] && !d.used:
				report(d, "//lint:ignore %s suppresses nothing (dead suppression — remove it or re-justify)", d.analyzer)
			}
		}
	}
	return out
}
