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
	// A package-qualified name, pkg.Name or pkg.Type.Member; checked
	// when pkg is the name of one of the module's packages.
	citedMember = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
)

// docsExemptFromMembers keep citing names that are gone: README's
// migration notes name removed APIs on purpose.
var docsExemptFromMembers = map[string]bool{"README.md": true}

// TestDocsNameWhatExists holds the documents to the code: every
// Test/Benchmark/Fuzz name they cite is a func declared in the module or
// in bench/, every pkg.Name and pkg.Type.Member they cite for a package
// of the module is declared there (README.md excepted), every
// repo-relative path they cite exists, and DESIGN.md stays within
// designMaxLines.
func TestDocsNameWhatExists(t *testing.T) {
	declared, members := declarations(t)
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
		for _, m := range citedMember.FindAllStringSubmatch(text, -1) {
			pkg, name, member := m[1], m[2], m[3]
			if docsExemptFromMembers[doc] || !members[pkg] {
				continue
			}
			listed := members[pkg+"."+name+".*"] && !members[pkg+"."+name+".+"]
			if !members[pkg+"."+name] || member != "" && listed && !members[pkg+"."+name+"."+member] {
				t.Errorf("%s cites %s, which package %s does not declare", doc, strings.TrimLeft(m[0], " `*(["), pkg)
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

// declarations returns the name of every top-level func in the
// repository's Go files outside testdata/ (bench/ included), and the
// package members a document may cite: the name of each non-main
// package, "pkg.Name" for its top-level funcs, types, vars and consts,
// and "pkg.Type.Member" for the methods and fields of its types, with
// "pkg.Type.*" marking a type whose members are listed and "pkg.Type.+"
// one that embeds another, whose promoted members are not.
func declarations(t *testing.T) (funcs, members map[string]bool) {
	t.Helper()
	funcs, members = map[string]bool{}, map[string]bool{}
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
		pkg := f.Name.Name
		if pkg != "main" {
			members[pkg] = true
		}
		member := func(typ, name string) {
			members[pkg+"."+typ+".*"] = true
			members[pkg+"."+typ+"."+name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					funcs[decl.Name.Name] = true
					members[pkg+"."+decl.Name.Name] = true
				} else {
					member(receiverName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						members[pkg+"."+spec.Name.Name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, n := range field.Names {
								member(spec.Name.Name, n.Name)
							}
							if len(field.Names) == 0 { // embedded: its promoted members are not listed
								members[pkg+"."+spec.Name.Name+".+"] = true
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							members[pkg+"."+n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, members
}

// receiverName names a method's receiver type without pointer or type
// parameters.
func receiverName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr:
		return receiverName(t.X)
	case *ast.IndexListExpr:
		return receiverName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}
