// Command coverage_core writes the coverage ledger of the ten mapping
// packages in two sections, one line per function, sorted.
//
// The first section is every function with statements that no test
// runs, "package.function count", with the total in a leading comment
// line. It runs the whole module's tests once with -coverpkg set to the
// ten packages, so a statement counts as covered when any package's
// tests run it.
//
// The second section names every function of which no product command
// runs a statement: code only tests reach. It builds the product
// binaries (cmd/, examples/, the himapd smoke) with -cover, runs the
// fixed command list productRuns under GOCOVERDIR, and reads the merged
// counters. Every command runs with GOMAXPROCS=1, so the worker counts
// that default to it (and with them the speculative attempts a compile
// starts) do not depend on the host; and it names functions without
// counts, so cancellation timing cannot change the output.
//
// Lines are keyed by function, not by source line, so an edit that
// moves code does not change the ledger; an edit that adds a statement
// no test runs, or a function no product command runs, does.
//
//	go run ./scripts/coverage_core > results/coverage_core.txt
//	go run ./scripts/coverage_core | diff - results/coverage_core.txt
package main

import (
	"bufio"
	"bytes"
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

// productMains are the binaries productRuns runs, built into one
// directory under their base names. The smoke test builds himapd
// itself, so himapd is only instrumented: a covered binary writes
// counters only when its main package is instrumented too, so
// -coverpkg names every main beside the ten packages.
var (
	productMains = []string{"./cmd/himap", "./cmd/experiments", "./examples/custom-kernel", "./examples/quickstart", "./scripts/himapd_smoke"}
	coveredMains = append([]string{"./cmd/himapd"}, productMains...)
)

// productRuns is the product command list of the second section: a
// binary of productMains, its arguments, and whether it must fail (an
// error path is product code too). Each command reaches some function
// no other one does; the smoke test's inner go build takes -cover from
// GOFLAGS, and GOCOVERDIR reaches the daemon.
var productRuns = []struct {
	bin   string
	args  []string
	fails bool
}{
	{"himap", []string{"-kernel", "FW", "-validate", "-render", "-program", "-itermap", "-bitstream", "-trace"}, false},
	{"himap", []string{"-kernel", "NW", "-inner", "1"}, true},
	{"himap", []string{"-kernel", "MVT", "-rows", "4", "-cols", "4", "-mapper", "conventional", "-block", "2", "-validate", "-bitstream"}, false},
	{"himap", []string{"-kernel", "FW", "-rows", "4", "-cols", "4", "-mapper", "exact", "-block", "2", "-validate", "-trace"}, false},
	// Trips the live-region guard, which drops the region and re-runs
	// the round on the whole array.
	{"himap", []string{"-kernel", "ATAX", "-rows", "32", "-cols", "32", "-fabric", "diag", "-workers", "1", "-trace"}, false},
	// A fabric with no memory PE, and one whose links are a shared bus.
	{"himap", []string{"-kernel", "FW", "-mem-pes", "none"}, true},
	{"himap", []string{"-kernel", "MVT", "-bandwidth", "bus"}, false},
	{"experiments", []string{"-table1", "-table2", "-gap"}, false},
	{"experiments", []string{"-explore", "-explore-size", "2"}, false},
	// GET /v1/kernels and an inline specification.
	{"himapd_smoke", nil, false},
	// CompileAuto's Table I triage.
	{"custom-kernel", nil, false},
	// SaveConfig and LoadConfig.
	{"quickstart", nil, false},
}

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
	pkgs := make([]string, len(corePackages))
	for i, p := range corePackages {
		pkgs[i] = module + "internal/" + p
	}
	tested, err := testProfile(dir, strings.Join(pkgs, ","))
	if err != nil {
		return err
	}
	product, err := productProfile(dir, strings.Join(pkgs, ","))
	if err != nil {
		return err
	}
	byTests, err := attribute(tested)
	if err != nil {
		return err
	}
	byProduct, err := attribute(product)
	if err != nil {
		return err
	}
	var untested, testOnly []string
	total := 0
	for name, f := range byTests {
		if f.unrun > 0 {
			untested = append(untested, name)
			total += f.unrun
		}
		if p, ok := byProduct[name]; !ok || p.unrun == p.stmts {
			testOnly = append(testOnly, name)
		}
	}
	sort.Strings(untested)
	sort.Strings(testOnly)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# uncovered statements in the ten mapping packages: %d\n", total)
	for _, name := range untested {
		fmt.Fprintf(w, "%s %d\n", name, byTests[name].unrun)
	}
	fmt.Fprintf(w, "# test-only: functions of the ten mapping packages no product command runs: %d\n", len(testOnly))
	for _, name := range testOnly {
		fmt.Fprintln(w, name)
	}
	return w.Flush()
}

// testProfile runs the module's tests under -coverpkg=pkgs and reads
// their profile.
func testProfile(dir, pkgs string) (map[block]bool, error) {
	profile := filepath.Join(dir, "tests.out")
	cmd := exec.Command("go", "test", "-count=1", "-coverpkg="+pkgs, "-coverprofile="+profile, "./...")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %v", err)
	}
	return readProfile(profile)
}

// productProfile builds productMains with -cover, runs productRuns with
// one GOCOVERDIR, and reads the merged counters.
func productProfile(dir, pkgs string) (map[block]bool, error) {
	bin, counters := filepath.Join(dir, "bin")+string(filepath.Separator), filepath.Join(dir, "counters")
	if err := os.Mkdir(counters, 0o755); err != nil {
		return nil, err
	}
	mains := make([]string, len(coveredMains))
	for i, m := range coveredMains {
		mains[i] = module + strings.TrimPrefix(m, "./")
	}
	cover := "-coverpkg=" + pkgs + "," + strings.Join(mains, ",")
	build := exec.Command("go", append([]string{"build", "-cover", cover, "-o", bin}, productMains...)...)
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("go build -cover: %v", err)
	}
	for _, r := range productRuns {
		var out bytes.Buffer
		cmd := exec.Command(bin+r.bin, r.args...)
		cmd.Stdout, cmd.Stderr = &out, &out
		cmd.Env = append(os.Environ(), "GOCOVERDIR="+counters, "GOFLAGS=-cover "+cover, "GOMAXPROCS=1")
		if err := cmd.Run(); (err != nil) != r.fails {
			os.Stderr.Write(out.Bytes())
			return nil, fmt.Errorf("%s %s: exit %v, want failure %v", r.bin, strings.Join(r.args, " "), err, r.fails)
		}
	}
	profile := filepath.Join(dir, "product.out")
	conv := exec.Command("go", "tool", "covdata", "textfmt", "-i="+counters, "-o="+profile)
	conv.Stdout, conv.Stderr = os.Stderr, os.Stderr
	if err := conv.Run(); err != nil {
		return nil, fmt.Errorf("go tool covdata: %v", err)
	}
	return readProfile(profile)
}

// block is one coverage block of a profile: a source range and its
// statement count.
type block struct {
	file                     string // import path of the package + "/" + file name
	line0, col0, line1, col1 int
	stmts                    int
}

// readProfile parses a coverage profile and returns each block once with
// whether any binary ran it: a -coverpkg test run lists every block once
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

// funcCov is one function's statements and those of them no binary ran.
type funcCov struct{ stmts, unrun int }

// attribute sums the statements of the blocks of the core packages, all
// and unrun, by the function that encloses them (a closure counts
// toward the function it is written in).
func attribute(covered map[block]bool) (map[string]funcCov, error) {
	funcs := map[string][]span{} // file -> its functions
	byFunc := map[string]funcCov{}
	for b, ran := range covered {
		pkg, ok := corePackage(b.file)
		if !ok || b.stmts == 0 {
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
		f := byFunc[name]
		f.stmts += b.stmts
		if !ran {
			f.unrun += b.stmts
		}
		byFunc[name] = f
	}
	return byFunc, nil
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
