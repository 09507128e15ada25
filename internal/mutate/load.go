package mutate

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

// Package is one loaded, type-checked package of the module. Its files are
// those of the default build configuration, in-package _test.go files
// included; external _test packages are separate compilation units and are
// skipped.
type Package struct {
	// Path is the import path ("unimem/internal/core").
	Path string
	// Files are the parsed source files.
	Files []*ast.File
	// Fset positions all files.
	Fset *token.FileSet
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the expression types, uses and definitions the
	// operators consult.
	Info *types.Info
}

// loader type-checks the packages of one module from source. Intra-module
// imports load recursively; everything else goes through the compiler's
// source importer, so no export data or external tooling is needed.
type loader struct {
	fset    *token.FileSet
	root    string // module root directory
	module  string // module path from go.mod
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path; nil for a directory without files
	loading map[string]bool     // import-cycle guard
}

// findModuleRoot walks up from dir to the directory holding go.mod and
// returns it with the declared module path.
func findModuleRoot(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("mutate: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("mutate: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// loadPackages type-checks every package under the module root, skipping
// hidden, underscore, testdata and vendor directories, and returns them in
// import-path order.
func loadPackages(root, module string) ([]*Package, error) {
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		root:    root,
		module:  module,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	var out []*Package
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p, err := ld.load(path)
		if p != nil {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// defaultTag evaluates one build-constraint tag under the default build
// configuration: the host platform, the gc toolchain and every go1.x
// release tag. Every other tag is unset, as in a plain `go build`.
func defaultTag(tag string) bool {
	return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" || strings.HasPrefix(tag, "go1.")
}

// buildIncluded reports whether the file's build constraints hold under
// the default build configuration.
func buildIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			if expr, err := constraint.Parse(c.Text); err == nil && !expr.Eval(defaultTag) {
				return false
			}
		}
	}
	return true
}

// load parses and type-checks the package at an intra-module import path.
// A directory whose files are all excluded yields (nil, nil).
func (ld *loader) load(path string) (*Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("mutate: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir := filepath.Join(ld.root, filepath.FromSlash(strings.TrimPrefix(path, ld.module)))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if buildIncluded(f) && !strings.HasSuffix(f.Name.Name, "_test") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		ld.pkgs[path] = nil
		return nil, nil
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		if ipath != ld.module && !strings.HasPrefix(ipath, ld.module+"/") {
			return ld.std.ImportFrom(ipath, dir, 0)
		}
		p, err := ld.load(ipath)
		if err == nil && p == nil {
			err = fmt.Errorf("mutate: import %q resolves to an empty package", ipath)
		}
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	})}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("mutate: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Files: files, Fset: ld.fset, Types: tpkg, Info: info}
	ld.pkgs[path] = p
	return p, nil
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
