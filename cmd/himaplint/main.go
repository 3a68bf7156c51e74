// Command himaplint runs the repository's custom static-analysis suite
// (internal/analysis): five stdlib-only go/ast + go/types analyzers over
// a module-wide interprocedural summary layer, enforcing the invariants
// the compiler cannot — mapping determinism, typed-error discipline,
// the escape-based //himap:noalloc hot-path contract, the
// cancellation-polling discipline below CompileRequest, and lock-set
// consistency of may-happen-in-parallel writes.
//
// Usage:
//
//	go run ./cmd/himaplint ./...                  # whole module (the CI gate)
//	go run ./cmd/himaplint ./internal/route       # one package
//	go run ./cmd/himaplint -json ./...            # machine-readable findings
//	go run ./cmd/himaplint -analyzer ctxflow,lockset ./...
//	go run ./cmd/himaplint -baseline himaplint.baseline.json ./...
//	go run ./cmd/himaplint -write-baseline himaplint.baseline.json ./...
//
// The baseline file is a ratchet: -baseline fails on any finding not
// recorded in it (new debt) and on any recorded finding that no longer
// reproduces (fixed debt must be removed via -write-baseline, so the
// file only ever shrinks). Entries are keyed by analyzer, root-relative
// file, and message — never line numbers — so unrelated edits do not
// invalidate the baseline.
//
// Exit status: 0 when clean (or when the baseline comparison is
// exact), 1 when any unsuppressed finding is new or any baseline entry
// is stale, 2 on usage errors or load/type-check failure. Suppress an
// accepted exception in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on (or directly above) the flagged line; the analyzer name must be
// from the catalogue ("all" is rejected) and the reason is mandatory.
// Dead suppressions are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"himap/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// baselineFile is the on-disk ratchet format. Findings are sorted by
// (file, analyzer, message) so regeneration is deterministic and diffs
// review cleanly.
type baselineFile struct {
	Version  int             `json:"version"`
	Findings []baselineEntry `json:"findings"`
}

type baselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // root-relative, slash-separated
	Message  string `json:"message"`
}

func (e baselineEntry) key() string {
	return e.Analyzer + "\x00" + e.File + "\x00" + e.Message
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("himaplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	analyzerList := fs.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	baselinePath := fs.String("baseline", "", "compare findings against this ratchet file; new or stale entries fail")
	writeBaseline := fs.String("write-baseline", "", "regenerate this ratchet file from the current findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: himaplint [-json] [-analyzer a,b] [-baseline file | -write-baseline file] <packages>\n\npatterns: ./... for the whole module, or package directories\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := analysis.All()
	if *analyzerList != "" {
		if *writeBaseline != "" {
			fmt.Fprintf(stderr, "himaplint: -write-baseline must record the full analyzer set; drop -analyzer\n")
			return 2
		}
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*analyzerList, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "himaplint: unknown analyzer %q (have %s)\n", name, analyzerNames(analysis.All()))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	if *baselinePath != "" && *writeBaseline != "" {
		fmt.Fprintf(stderr, "himaplint: -baseline and -write-baseline are mutually exclusive\n")
		return 2
	}

	prog, err := analysis.Load(".")
	if err != nil {
		fmt.Fprintf(stderr, "himaplint: %v\n", err)
		return 2
	}
	match, err := packageFilter(prog, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "himaplint: %v\n", err)
		return 2
	}

	diags := analysis.Run(prog, analyzers, analysis.DefaultScope())
	kept := diags[:0]
	for _, d := range diags {
		if match(d.Pos.Filename) {
			kept = append(kept, d)
		}
	}
	diags = kept
	current := toEntries(prog.Root, diags)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "himaplint: %v\n", err)
			return 2
		}
	}

	if *writeBaseline != "" {
		data, err := json.MarshalIndent(baselineFile{Version: 1, Findings: current}, "", " ")
		if err != nil {
			fmt.Fprintf(stderr, "himaplint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*writeBaseline, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "himaplint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "himaplint: wrote %d finding(s) to %s\n", len(current), *writeBaseline)
		return 0
	}

	if *baselinePath != "" {
		return compareBaseline(stdout, stderr, *baselinePath, current, analyzers)
	}

	if !*jsonOut {
		for _, d := range diags {
			rel := d
			if r, err := filepath.Rel(prog.Root, d.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Fprintln(stdout, rel)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "himaplint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// compareBaseline implements the ratchet: current findings missing from
// the baseline are new debt, baseline entries that no longer reproduce
// (for analyzers that ran) are stale and must be removed — the file may
// only shrink in step with the code.
func compareBaseline(stdout, stderr io.Writer, path string, current []baselineEntry, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "himaplint: %v\n", err)
		return 2
	}
	var bl baselineFile
	if err := json.Unmarshal(data, &bl); err != nil {
		fmt.Fprintf(stderr, "himaplint: baseline %s: %v\n", path, err)
		return 2
	}
	if bl.Version != 1 {
		fmt.Fprintf(stderr, "himaplint: baseline %s: unsupported version %d\n", path, bl.Version)
		return 2
	}
	ran := map[string]bool{analysis.SuppressName: true}
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	recorded := map[string]int{}
	for _, e := range bl.Findings {
		recorded[e.key()]++
	}
	var fresh []baselineEntry
	for _, e := range current {
		if recorded[e.key()] > 0 {
			recorded[e.key()]--
		} else {
			fresh = append(fresh, e)
		}
	}
	seen := map[string]int{}
	for _, e := range current {
		seen[e.key()]++
	}
	var stale []baselineEntry
	for _, e := range bl.Findings {
		if seen[e.key()] > 0 {
			seen[e.key()]--
		} else if ran[e.Analyzer] {
			stale = append(stale, e)
		}
	}

	for _, e := range fresh {
		fmt.Fprintf(stdout, "new finding not in baseline: %s: [%s] %s\n", e.File, e.Analyzer, e.Message)
	}
	for _, e := range stale {
		fmt.Fprintf(stdout, "stale baseline entry (fixed; refresh with -write-baseline): %s: [%s] %s\n", e.File, e.Analyzer, e.Message)
	}
	if len(fresh) > 0 || len(stale) > 0 {
		fmt.Fprintf(stderr, "himaplint: baseline mismatch: %d new, %d stale\n", len(fresh), len(stale))
		return 1
	}
	return 0
}

// toEntries renders diagnostics into baseline entries — root-relative
// slash paths, no line numbers — sorted by (file, analyzer, message).
func toEntries(root string, diags []analysis.Diagnostic) []baselineEntry {
	out := make([]baselineEntry, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if r, err := filepath.Rel(root, file); err == nil {
			file = r
		}
		out = append(out, baselineEntry{
			Analyzer: d.Analyzer,
			File:     filepath.ToSlash(file),
			Message:  d.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out
}

func analyzerNames(as []*analysis.Analyzer) string {
	var names []string
	for _, a := range as {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// packageFilter resolves CLI patterns to a filename predicate. "./..."
// (or "...") accepts everything; "./dir/..." accepts the subtree; a bare
// directory accepts files directly inside it.
func packageFilter(prog *analysis.Program, patterns []string) (func(string) bool, error) {
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
