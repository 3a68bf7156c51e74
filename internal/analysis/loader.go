package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrLoad is the sentinel wrapped by every loader failure — missing
// go.mod, unparsable source, type-check errors — so callers (the CLI's
// exit-code 2 path, the fixture harness) can errors.Is their way to
// "the program never loaded" as opposed to "the program has findings".
var ErrLoad = errors.New("analysis: load failed")

// Package is one parsed and type-checked module package.
type Package struct {
	Path  string // import path, e.g. "himap/internal/route"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the fully loaded module: every package parsed from source
// and type-checked, plus the index from function objects to their
// declarations (ctxflow's one-hop callee lookup).
type Program struct {
	Fset   *token.FileSet
	Module string // module path from go.mod
	Root   string // module root directory
	Pkgs   []*Package
	Decls  map[*types.Func]*ast.FuncDecl

	byPath map[string]*Package
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrLoad, err)
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("%w: no go.mod above %s", ErrLoad, dir)
		}
		abs = parent
	}
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrLoad, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%w: no module directive in %s/go.mod", ErrLoad, root)
}

// loader resolves imports during type checking: module-internal paths
// are loaded recursively from source, everything else (the standard
// library) is delegated to the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	module  string
	root    string
	std     types.Importer
	pkgs    map[string]*Package // memoized module packages
	loading map[string]bool     // import-cycle guard
}

func newLoader(fset *token.FileSet, module, root string) *loader {
	return &loader{
		fset:    fset,
		module:  module,
		root:    root,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// load parses and type-checks one module package (memoized). Test files
// are excluded: the analyzers guard the shipped compile path, and test
// packages may import the module under a different package identity.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("%w: import cycle through %s", ErrLoad, path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLoad, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLoad, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: no Go files in %s", ErrLoad, dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%w: type-checking %s: %v", ErrLoad, path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// packageDirs enumerates every directory under root holding at least one
// non-test Go file, skipping testdata, hidden directories, and results.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dirs = append(dirs, filepath.Dir(p))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLoad, err)
	}
	sort.Strings(dirs)
	uniq := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			uniq = append(uniq, d)
		}
	}
	return uniq, nil
}

// loadModule parses and type-checks every package under root as module
// `module` and assembles the Program. Shared by Load (the real module)
// and LoadDir (fixture trees, where the directory base name stands in
// for the module path).
func loadModule(module, root string) (*Program, error) {
	fset := token.NewFileSet()
	l := newLoader(fset, module, root)
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:   fset,
		Module: module,
		Root:   root,
		Decls:  map[*types.Func]*ast.FuncDecl{},
		byPath: map[string]*Package{},
	}
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLoad, err)
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[path] = pkg
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						prog.Decls[fn] = fd
					}
				}
			}
		}
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// Load parses and type-checks every package of the module rooted at (or
// above) dir.
func Load(dir string) (*Program, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return loadModule(module, root)
}

// Lookup returns the loaded package with the given import path, if any.
func (p *Program) Lookup(path string) *Package { return p.byPath[path] }
