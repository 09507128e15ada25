package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("unimem/internal/core").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed source files (build-tag filtered, tests
	// excluded unless LoadOptions.Tests).
	Files []*ast.File
	// Fset positions all files.
	Fset *token.FileSet
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the expression types, uses and definitions the
	// analyzers consult.
	Info *types.Info
}

// LoadOptions tunes module loading.
type LoadOptions struct {
	// Tests includes _test.go files (external test packages are still
	// skipped: they cannot be merged into the package under test).
	Tests bool
}

// loader loads and type-checks every package of one module from source,
// resolving intra-module imports itself and standard-library imports through
// the compiler's source importer. No export data or external tooling is
// needed, keeping mglint stdlib-only.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	module  string // module path from go.mod
	opts    LoadOptions
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
}

func newLoader(root, module string, opts LoadOptions) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		root:    root,
		module:  module,
		opts:    opts,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// FindModuleRoot walks up from dir to the directory holding go.mod and
// returns it with the declared module path.
func FindModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Load type-checks the whole module rooted at root and returns its packages
// in deterministic (import path) order.
func Load(root string, opts LoadOptions) ([]*Package, error) {
	root, module, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, module, opts)
	dirs, err := ld.packageDirs()
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := ld.loadDir(dir)
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

// packageDirs lists every directory under the module root that contains Go
// files, skipping hidden directories and testdata.
func (ld *loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(ld.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ld.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				return nil
			}
		}
		return nil
	})
	return dirs, err
}

// importPathFor maps a module directory to its import path.
func (ld *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return ld.module, nil
	}
	return ld.module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps an intra-module import path to its directory.
func (ld *loader) dirFor(path string) string {
	if path == ld.module {
		return ld.root
	}
	rel := strings.TrimPrefix(path, ld.module+"/")
	return filepath.Join(ld.root, filepath.FromSlash(rel))
}

// tagSatisfied evaluates one build-constraint tag against the default build
// configuration: target platform and toolchain release tags.
func (ld *loader) tagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	}
	if strings.HasPrefix(tag, "go1.") {
		// All release tags up to the running toolchain are satisfied;
		// parsing runtime.Version precisely is overkill for a lint pass.
		return true
	}
	return false
}

// fileIncluded reports whether the file's build constraints match the load
// configuration.
func (ld *loader) fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(ld.tagSatisfied) {
				return false
			}
		}
	}
	return true
}

// loadDir parses and type-checks the package in dir. A directory whose only
// files are excluded by build tags or test filtering yields (nil, nil).
func (ld *loader) loadDir(dir string) (*Package, error) {
	path, err := ld.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return ld.loadPath(path)
}

func (ld *loader) loadPath(path string) (*Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir := ld.dirFor(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !ld.opts.Tests {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !ld.fileIncluded(f) {
			continue
		}
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			continue // external test package: separate compilation unit
		}
		if pkgName == "" || !isTest {
			if pkgName != "" && pkgName != f.Name.Name && !strings.HasSuffix(f.Name.Name, "_test") {
				return nil, fmt.Errorf("lint: conflicting package names %s and %s in %s", pkgName, f.Name.Name, dir)
			}
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		ld.pkgs[path] = nil
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			return ld.importPkg(ipath, dir)
		}),
	}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Fset: ld.fset, Types: tpkg, Info: info}
	ld.pkgs[path] = p
	return p, nil
}

// importPkg resolves one import: intra-module paths load recursively from
// source; everything else goes through the standard-library source importer.
func (ld *loader) importPkg(path, fromDir string) (*types.Package, error) {
	if path == ld.module || strings.HasPrefix(path, ld.module+"/") {
		p, err := ld.loadPath(path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: import %q resolves to an empty package", path)
		}
		return p.Types, nil
	}
	return ld.std.ImportFrom(path, fromDir, 0)
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
