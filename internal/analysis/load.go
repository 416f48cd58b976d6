package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package bundles everything the analyzers need about one type-checked
// package: retained syntax trees plus the go/types results.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks the packages of one module using only the standard
// library: go/parser for syntax, go/types for checking, and the source
// importer for dependencies outside the module. Module-internal imports
// are resolved by the loader itself (recursively, memoized) so that each
// package is checked exactly once and its syntax trees are retained for
// the analyzers; the source importer would type-check them too but
// discards the ASTs.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
}

// NewLoader builds a loader for the module rooted at moduleRoot.
func NewLoader(moduleRoot string) (*Loader, error) {
	modulePath, err := readModulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer consults build.Default; with cgo enabled it
	// would try to run cgo on packages like net. Every package this
	// module touches has a pure-Go fallback, so force it off.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// Fset returns the file set shared by every loaded package.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Sizes returns the size model of the target platform's gc compiler,
// which padcheck uses to compute struct strides.
func (l *Loader) Sizes() types.Sizes {
	if s := types.SizesFor("gc", build.Default.GOARCH); s != nil {
		return s
	}
	return types.SizesFor("gc", "amd64")
}

// Import implements types.Importer: module-internal paths are loaded by
// this loader, everything else is delegated to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks every package of the module, returning them sorted
// by import path.
func (l *Loader) Load() ([]*Package, error) {
	dirs, err := l.walk(l.moduleRoot)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := l.load(l.importPath(dir))
		if err != nil {
			return nil, err
		}
		if p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadDir type-checks the single package in dir (which need not belong
// to the module — analyzer test fixtures live under testdata). Imports
// resolve against the module and the standard library.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.check("fixture/"+filepath.Base(abs), abs)
}

func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	p, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) check(path, dir string) (*Package, error) {
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil // test-only or empty directory
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l, Sizes: l.Sizes()}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// goFilesIn lists the non-test Go files of dir in sorted order. Build
// constraints are ignored: this module has none, and the suite wants to
// see every file it owns anyway.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// walk finds every directory under root holding non-test Go files,
// skipping hidden directories and testdata.
func (l *Loader) walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
