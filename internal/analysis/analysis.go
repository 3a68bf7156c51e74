// Package analysis is the repo's custom static-analysis layer: a small
// stdlib-only (go/parser + go/ast + go/types, no x/tools) driver and
// three project-specific analyzers, each owning a defect no other gate
// sees (DESIGN.md, "Static analysis", has the mutation audit):
//
//   - determinism: the mapping a compile emits must be a pure function of
//     (kernel, fabric, options minus Workers). Wall-clock reads, globally
//     seeded randomness, and map-iteration order reaching slices, output,
//     or candidate selection all break that silently.
//   - errdiscipline: every failure escaping an internal package must be
//     typed — wrapping a diag sentinel or a package-level sentinel with
//     %w — so errors.Is/As dispatch keeps working through the public API.
//   - ctxflow: in every function that takes a context.Context, unbounded
//     loops must poll cancellation and the received context must not be
//     dropped for context.Background()/TODO().
//
// Lock discipline and hot-path allocation are not checked here: the
// race detector over the -shuffle=on suite and the two AllocsPerRun
// ceiling tests measure what the toolchain actually did.
//
// The driver (Load + Run) parses and type-checks every package of the
// module from source, runs each analyzer over its configured package
// scope, and filters diagnostics through //lint:ignore suppressions —
// reporting ignores that are malformed or suppress nothing under the
// pseudo-analyzer name "suppress". cmd/himaplint is the CLI; the
// fixture harness in fixture.go backs the golden tests under testdata/.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at one source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer run over one type-checked package. Run functions
// report findings through Reportf; the driver applies suppression and
// ordering afterwards.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Prog is the whole loaded module, for checks that look one hop past
	// the package (ctxflow's callee declarations).
	Prog *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Run inspects the Pass's package and
// reports findings; it must not retain the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the three project analyzers in catalogue order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, ErrDiscipline, Ctxflow}
}

// SuppressName is the pseudo-analyzer name under which the driver
// reports malformed or dead //lint:ignore directives. It is not a
// valid suppression target itself.
const SuppressName = "suppress"

// knownAnalyzerNames is the set of names valid in //lint:ignore
// directives: the full catalogue plus whatever extra analyzers a
// caller passes to Run.
func knownAnalyzerNames(analyzers []*Analyzer) map[string]bool {
	names := map[string]bool{}
	for _, a := range All() {
		names[a.Name] = true
	}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// Scope maps an analyzer name to the module package paths it runs on.
// A nil entry (or missing key) means "every package of the module".
// Paths are import paths; an entry applies to the exact package.
type Scope map[string][]string

// DefaultScope is the repository's enforcement configuration:
//
//   - determinism runs on the compile-path packages, where mapping
//     decisions are made (the paper pipeline, the router, the systolic
//     search, the baseline mapper, and the MRRG).
//   - errdiscipline runs on the compile-path packages plus the
//     architecture model, the simulator, and the analysis layer itself
//     (himaplint self-hosts) — the packages whose failures escape
//     through a public API and must stay errors.Is-able.
//   - ctxflow checks every context-taking function and runs
//     module-wide (internal/analysis included).
func DefaultScope() Scope {
	compilePath := []string{
		"himap/internal/himap",
		"himap/internal/route",
		"himap/internal/systolic",
		"himap/internal/baseline",
		"himap/internal/exact",
		"himap/internal/mrrg",
	}
	return Scope{
		// internal/serve caches and serves compile results verbatim, so a
		// nondeterminism there (map-order response fields, wall-clock values
		// in cached bodies) would break the byte-identity contract between
		// served and direct compiles — it is compile-path for this purpose.
		// internal/store persists those bodies across restarts and
		// cmd/himapload replays a seeded workload against them; both carry
		// the same replay contract, so they join the determinism scope
		// (wall-clock latency measurement sites are annotated).
		Determinism.Name: append(append([]string(nil), compilePath...),
			"himap/internal/serve", "himap/internal/store", "himap/cmd/himapload"),
		ErrDiscipline.Name: append(append([]string(nil), compilePath...), "himap/internal/arch", "himap/internal/sim", "himap/internal/analysis"),
		Ctxflow.Name:       nil,
	}
}

func (s Scope) includes(analyzer, pkgPath string) bool {
	paths, ok := s[analyzer]
	if !ok || paths == nil {
		return true
	}
	for _, p := range paths {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// Run executes the analyzers over every package of the program within
// the scope, applies //lint:ignore suppression (reporting malformed and
// dead directives), and returns the surviving diagnostics sorted by
// position.
func Run(prog *Program, analyzers []*Analyzer, scope Scope) []Diagnostic {
	known := knownAnalyzerNames(analyzers)
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if !scope.includes(a.Name, pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
			}
			a.Run(pass)
			pkgDiags = append(pkgDiags, pass.diags...)
		}
		dirs := collectIgnores(prog.Fset, pkg.Files)
		out = append(out, filterSuppressed(dirs, pkgDiags)...)
		out = append(out, suppressionFindings(prog.Fset, dirs, known, analyzers, scope, pkg.Path)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}
