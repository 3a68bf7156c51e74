package himap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsCheckedForNames are the documents that tell a reader which test,
// benchmark or file to run or open; CHANGES.md and ROADMAP.md are a
// record of what was and are not checked.
var docsCheckedForNames = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "results/README.md"}

// designMaxLines keeps DESIGN.md a document read in one sitting.
const designMaxLines = 900

var (
	citedFunc = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	// A repo-relative path: two or more components, not preceded by a
	// character that would make it part of a longer word or an absolute
	// path. Only paths whose first component is a top-level directory of
	// the repository are checked.
	citedPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])((?:\./)?[A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.*-]+)+)`)
	// A package path may be cited with an exported name, as in
	// internal/exp.ExactGap; the package directory is what must exist.
	qualifiedName = regexp.MustCompile(`\.[A-Z][A-Za-z0-9_]*$`)
)

// TestDocsNameWhatExists holds the documents to the code: every
// Test/Benchmark/Fuzz name they cite is a func declared in the module or
// in bench/, every repo-relative path they cite exists, and DESIGN.md
// stays within designMaxLines.
func TestDocsNameWhatExists(t *testing.T) {
	declared := declaredFuncs(t)
	for _, doc := range docsCheckedForNames {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if doc == "DESIGN.md" {
			if n := strings.Count(text, "\n"); n > designMaxLines {
				t.Errorf("DESIGN.md has %d lines, limit %d", n, designMaxLines)
			}
		}
		for _, name := range citedFunc.FindAllString(text, -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no file in the module or bench/ declares", doc, name)
			}
		}
		for _, m := range citedPath.FindAllStringSubmatch(text, -1) {
			p := strings.TrimRight(strings.TrimPrefix(m[1], "./"), ".,:;")
			p = qualifiedName.ReplaceAllString(p, "")
			if fi, err := os.Stat(strings.SplitN(p, "/", 2)[0]); err != nil || !fi.IsDir() {
				continue
			}
			if matches, _ := filepath.Glob(p); len(matches) == 0 {
				t.Errorf("%s cites %s, which does not exist", doc, p)
			}
		}
	}
}

// declaredFuncs returns the name of every top-level func in the
// repository's Go files outside testdata/ (bench/ included).
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
