// Command coverage_core writes the coverage ledger of the ten mapping
// packages: every function with statements that no test runs, one line
// each, "package.function count", sorted, with the total in a leading
// comment line. It runs the whole module's tests once with
// -coverpkg set to the ten packages, so a statement counts as covered
// when any package's tests run it. Lines are keyed by function, not by
// source line, so an edit that moves code does not change the ledger;
// an edit that adds a statement no test runs does.
//
//	go run ./scripts/coverage_core > results/coverage_core.txt
//	go run ./scripts/coverage_core | diff - results/coverage_core.txt
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The ten packages the ledger covers.
var corePackages = []string{"arch", "ir", "kernel", "mrrg", "route", "himap", "exact", "baseline", "systolic", "sim"}

const module = "himap/"

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "coverage_core: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "coverage_core")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	profile := filepath.Join(dir, "cover.out")
	pkgs := make([]string, len(corePackages))
	for i, p := range corePackages {
		pkgs[i] = module + "internal/" + p
	}
	cmd := exec.Command("go", "test", "-count=1", "-coverpkg="+strings.Join(pkgs, ","), "-coverprofile="+profile, "./...")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test: %v", err)
	}
	blocks, err := readProfile(profile)
	if err != nil {
		return err
	}
	uncovered, err := attribute(blocks)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(uncovered))
	total := 0
	for name, n := range uncovered {
		names = append(names, name)
		total += n
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# uncovered statements in the ten mapping packages: %d\n", total)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, uncovered[name])
	}
	return w.Flush()
}

// block is one coverage block of a profile: a source range and its
// statement count.
type block struct {
	file                     string // import path of the package + "/" + file name
	line0, col0, line1, col1 int
	stmts                    int
}

// readProfile parses a coverage profile and returns each block once with
// whether any test binary ran it: a -coverpkg run lists every block once
// per test binary.
func readProfile(path string) (map[block]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	covered := map[block]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		// file:l0.c0,l1.c1 stmts count
		colon := strings.LastIndex(line, ":")
		var b block
		var count int
		b.file = line[:colon]
		if _, err := fmt.Sscanf(line[colon+1:], "%d.%d,%d.%d %d %d", &b.line0, &b.col0, &b.line1, &b.col1, &b.stmts, &count); err != nil {
			return nil, fmt.Errorf("%s: %q: %v", path, line, err)
		}
		covered[b] = covered[b] || count > 0
	}
	return covered, sc.Err()
}

// attribute sums the statements of the unrun blocks of the core packages
// by the function that encloses them (a closure counts toward the
// function it is written in).
func attribute(covered map[block]bool) (map[string]int, error) {
	funcs := map[string][]span{} // file -> its functions
	uncovered := map[string]int{}
	for b, ran := range covered {
		pkg, ok := corePackage(b.file)
		if !ok || ran || b.stmts == 0 {
			continue
		}
		spans, seen := funcs[b.file]
		if !seen {
			var err error
			if spans, err = functions(pkg, strings.TrimPrefix(b.file, module)); err != nil {
				return nil, err
			}
			funcs[b.file] = spans
		}
		name := ""
		for _, s := range spans {
			if s.contains(b.line0, b.col0) {
				name = s.name
				break
			}
		}
		if name == "" {
			return nil, fmt.Errorf("%s:%d.%d: block outside every function", b.file, b.line0, b.col0)
		}
		uncovered[name] += b.stmts
	}
	return uncovered, nil
}

// corePackage reports the short name of the core package a profile file
// belongs to.
func corePackage(file string) (string, bool) {
	dir := filepath.Dir(file)
	for _, p := range corePackages {
		if dir == module+"internal/"+p {
			return p, true
		}
	}
	return "", false
}

// span is one function declaration's source range.
type span struct {
	name                     string
	line0, col0, line1, col1 int
}

func (s span) contains(line, col int) bool {
	after := line > s.line0 || (line == s.line0 && col >= s.col0)
	before := line < s.line1 || (line == s.line1 && col <= s.col1)
	return after && before
}

// functions lists the function declarations of one source file, named
// pkg.Func or pkg.Recv.Method.
func functions(pkg, path string) ([]span, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var spans []span
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := pkg + "." + fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			name = pkg + "." + receiver(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		p0, p1 := fset.Position(fd.Pos()), fset.Position(fd.End())
		spans = append(spans, span{name, p0.Line, p0.Column, p1.Line, p1.Column})
	}
	return spans, nil
}

// receiver names a method's receiver type without pointer or type
// parameters.
func receiver(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return receiver(t.X)
	case *ast.IndexExpr:
		return receiver(t.X)
	case *ast.IndexListExpr:
		return receiver(t.X)
	case *ast.Ident:
		return t.Name
	}
	return strconv.Quote(fmt.Sprint(t))
}
