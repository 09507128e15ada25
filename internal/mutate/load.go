package mutate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module. Its files are
// the ones `go list` names for the default build configuration, in-package
// _test.go files included.
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

// listedPackage is the part of `go list -json` output the loader and the
// router read.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
}

// goList runs the go tool in dir and decodes its stream of JSON values.
func goList[T any](dir string, args ...string) ([]T, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("mutate: go list %s in %s: %v: %s", strings.Join(args, " "), dir, err, strings.TrimSpace(stderr.String()))
	}
	var vals []T
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var v T
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("mutate: decoding go list output: %w", err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// loader type-checks the listed packages of one module from source.
// Intra-module imports load recursively; everything else goes through the
// compiler's source importer, so no export data is needed.
type loader struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	listed  map[string]*listedPackage // the module's packages by import path
	pkgs    map[string]*Package
	loading map[string]bool // import-cycle guard
}

// loadPackages type-checks every listed package and returns them in
// import-path order.
func loadPackages(listed map[string]*listedPackage) ([]*Package, error) {
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		listed:  listed,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	var out []*Package
	for path := range listed {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// load parses and type-checks the package at an intra-module import path.
func (ld *loader) load(path string) (*Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("mutate: import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	lp := ld.listed[path]
	var files []*ast.File
	for _, name := range slices.Concat(lp.GoFiles, lp.TestGoFiles) {
		f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		if ld.listed[ipath] == nil {
			return ld.std.ImportFrom(ipath, lp.Dir, 0)
		}
		p, err := ld.load(ipath)
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
