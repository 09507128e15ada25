// Package mutate is the domain-aware mutation-testing layer of the
// repository: it derives small, security-meaningful defects ("mutants")
// from the module's own AST and type information, applies each one through
// a `go build -overlay` file (no source-tree copies), routes the mutant
// only to the test packages that can observe it, and reports which mutants
// the test suite kills. The operator set has two tiers: generic defect
// classes (negated conditionals, off-by-one bounds, early returns, swapped
// inequalities) and domain operators stated from the unit domains of the
// geometry helpers and the protection engine's policy surface —
// granularity-index swaps, deleted verify/MAC checks (the TOCTOU class the
// attack harness found), skipped integrity-tree levels, dropped counter
// bumps, inverted fine/coarse switch direction, and lazy-switch-window
// elision.
//
// cmd/mgmutate is the command-line front end. Its output is deterministic
// (same sample size, byte-identical JSON report), so CI gates it against a
// checked-in score floor.
package mutate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// Site is one mutable location: a byte span of a source file plus the
// replacement text that turns the original program into the mutant.
type Site struct {
	// Op is the operator name ("negate-cond", "unit-swap", ...).
	Op string
	// Pkg is the import path of the containing package.
	Pkg string
	// File is the absolute path of the source file.
	File string
	// Start and End are byte offsets of the replaced span (End exclusive;
	// Start == End inserts).
	Start, End int
	// Orig is the replaced source text, Repl the mutant text.
	Orig, Repl string
	// Pos locates the mutated node for reports and ignore directives.
	Pos token.Position
	// Desc is a one-line human description of the induced defect.
	Desc string
}

// less orders sites canonically: package, file, position, operator,
// replacement. The report and the seeded sample both depend on this order
// being total and stable.
func (s Site) less(o Site) bool {
	if s.Pkg != o.Pkg {
		return s.Pkg < o.Pkg
	}
	if s.File != o.File {
		return s.File < o.File
	}
	if s.Pos.Line != o.Pos.Line {
		return s.Pos.Line < o.Pos.Line
	}
	if s.Pos.Column != o.Pos.Column {
		return s.Pos.Column < o.Pos.Column
	}
	if s.Op != o.Op {
		return s.Op < o.Op
	}
	return s.Repl < o.Repl
}

// Operator is one mutation rule.
type Operator struct {
	// Name is the operator name used in reports and ignore directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// sites returns the operator's mutable locations in one package; the
	// caller stamps Op on them.
	sites func(m *Module, p *Package) []Site
}

// Operators is the full operator set in stable order: the generic tier
// (generic.go), then the domain tier (domain.go).
var Operators = []Operator{
	{"negate-cond", "negate if-statement conditions", negateCondSites},
	{"swap-ineq", "swap strict and non-strict comparisons (< vs <=, > vs >=)", swapIneqSites},
	{"off-by-one", "shift comparison bounds by one (x < n becomes x < n+1)", offByOneSites},
	{"early-return", "return zero values at function entry, skipping the body", earlyReturnSites},
	{"unit-swap", "swap byte/block/partition/chunk index helpers and geometry constants (stated partner tables)", unitSwapSites},
	{"drop-verify", "delete verify/MAC checks: verify* calls return nil, crypto.Equal returns true (TOCTOU class)", dropVerifySites},
	{"skip-level", "tree walks skip every other level (level++ becomes level += 2)", skipLevelSites},
	{"drop-bump", "drop major/minor counter bumps (ctr+1 becomes ctr): the anti-replay freshness class", dropBumpSites},
	{"invert-switch", "invert fine/coarse switch direction: Gran comparisons swap operands, Promote and Demote trade places", invertSwitchSites},
	{"drop-window", "elide the lazy-switch window: commits dropped, Current reads Next, window probe deleted", dropWindowSites},
}

// OperatorByName resolves an operator name.
func OperatorByName(name string) (Operator, bool) {
	for _, op := range Operators {
		if op.Name == name {
			return op, true
		}
	}
	return Operator{}, false
}

// Module is one loaded module plus the shared indexes the operators and
// the runner consult: source bytes, the resolved unit-swap partners, and
// the go tool's package list, whose imports (test files included) route
// the mutants.
type Module struct {
	// Root is the absolute module root directory.
	Root string
	// Path is the module path from go.mod.
	Path string
	// Pkgs are the loaded packages (test files included) in import-path
	// order.
	Pkgs []*Package

	partners map[*types.Func]*types.Func
	src      map[string][]byte
	listed   map[string]*listedPackage  // `go list ./...` by import path
	closure  map[string]map[string]bool // memoized closureOf
}

// LoadModule loads and type-checks the module containing dir. The go tool
// decides the module root and which packages and files belong to it, as
// `go build ./...` and `go test ./...` would.
func LoadModule(dir string) (*Module, error) {
	mods, err := goList[struct{ Path, Dir string }](dir, "-m")
	if err != nil {
		return nil, err
	}
	if len(mods) != 1 {
		return nil, fmt.Errorf("mutate: %s is in %d modules, want 1", dir, len(mods))
	}
	listed, err := goList[listedPackage](mods[0].Dir, "./...")
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root: mods[0].Dir, Path: mods[0].Path, src: map[string][]byte{},
		listed: map[string]*listedPackage{}, closure: map[string]map[string]bool{},
	}
	for i := range listed {
		m.listed[listed[i].ImportPath] = &listed[i]
	}
	if m.Pkgs, err = loadPackages(m.listed); err != nil {
		return nil, err
	}
	m.partners = resolvePartners(m.metaPackage())
	return m, nil
}

// metaPackage returns the module's geometry package, or nil when it has
// none.
func (m *Module) metaPackage() *types.Package {
	for _, p := range m.Pkgs {
		if p.Path == m.Path+metaPathSuffix {
			return p.Types
		}
	}
	return nil
}

// PackageByPath resolves an import path (exact, or unique suffix match
// like "internal/secmem") to a loaded package.
func (m *Module) PackageByPath(path string) (*Package, error) {
	var hit *Package
	for _, p := range m.Pkgs {
		if p.Path == path {
			return p, nil
		}
		if strings.HasSuffix(p.Path, "/"+path) {
			if hit != nil {
				return nil, fmt.Errorf("mutate: package %q is ambiguous (%s, %s)", path, hit.Path, p.Path)
			}
			hit = p
		}
	}
	if hit == nil {
		return nil, fmt.Errorf("mutate: no package %q in module %s", path, m.Path)
	}
	return hit, nil
}

// Source returns (and caches) the bytes of one source file.
func (m *Module) Source(file string) ([]byte, error) {
	if b, ok := m.src[file]; ok {
		return b, nil
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	m.src[file] = b
	return b, nil
}

// Apply returns the mutated contents of the site's file.
func (m *Module) Apply(s Site) ([]byte, error) {
	src, err := m.Source(s.File)
	if err != nil {
		return nil, err
	}
	if s.Start < 0 || s.End < s.Start || s.End > len(src) {
		return nil, fmt.Errorf("mutate: site span [%d,%d) outside %s (%d bytes)", s.Start, s.End, s.File, len(src))
	}
	out := make([]byte, 0, len(src)+len(s.Repl))
	out = append(out, src[:s.Start]...)
	out = append(out, s.Repl...)
	out = append(out, src[s.End:]...)
	return out, nil
}

// CollectSites runs the operators over the target packages and returns all
// sites in canonical order. Test files are never mutated.
func (m *Module) CollectSites(targets []*Package, ops []Operator) []Site {
	var out []Site
	for _, p := range targets {
		for _, op := range ops {
			for _, s := range op.sites(m, p) {
				s.Op = op.Name
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	// Two operators can propose the same rewrite (an off-by-one on a bound
	// that a swap also produces); keep one so the sample is not double
	// weighted.
	dedup := out[:0]
	for i, s := range out {
		if i > 0 && s.File == out[i-1].File && s.Start == out[i-1].Start && s.End == out[i-1].End && s.Repl == out[i-1].Repl {
			continue
		}
		dedup = append(dedup, s)
	}
	return dedup
}

// --- shared AST helpers ----------------------------------------------------

// span resolves a node's byte span and position within its file.
func span(p *Package, n ast.Node) (file string, start, end int, pos token.Position) {
	sp := p.Fset.Position(n.Pos())
	ep := p.Fset.Position(n.End())
	return sp.Filename, sp.Offset, ep.Offset, sp
}

// nodeText returns the original source text of a node.
func (m *Module) nodeText(p *Package, n ast.Node) string {
	file, start, end, _ := span(p, n)
	src, err := m.Source(file)
	if err != nil || end > len(src) {
		return ""
	}
	return string(src[start:end])
}

// site builds a Site replacing node n with repl.
func (m *Module) site(p *Package, n ast.Node, repl, desc string) Site {
	file, start, end, pos := span(p, n)
	return Site{
		Pkg: p.Path, File: file, Start: start, End: end,
		Orig: m.nodeText(p, n), Repl: repl,
		Pos: pos, Desc: desc,
	}
}

// eachSourceFile visits the package's non-test files with a parent stack
// (innermost ancestor last), the traversal every operator shares.
func eachSourceFile(p *Package, fn func(f *ast.File, n ast.Node, stack []ast.Node)) {
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(f, n, stack)
			stack = append(stack, n)
			return true
		})
	}
}

// calleeFunc resolves the *types.Func a call invokes (nil for builtins,
// type conversions and function-typed values).
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeNameIdent returns the identifier holding the callee's name (the
// selector's Sel for method/package calls), which name-swap operators
// replace in place.
func calleeNameIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// typeString renders a type with full package paths ("unimem/internal/meta.Gran").
func typeString(t types.Type) string {
	if t == nil {
		return ""
	}
	return types.TypeString(t, nil)
}
