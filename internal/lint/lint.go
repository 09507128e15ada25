// Package lint is the domain-aware static-analysis layer of the repository:
// it type-checks the whole module with the standard library's go/parser,
// go/ast and go/types (no external dependencies) and runs expression-local
// analyzers that encode the protection engine's spelling rules: named
// granularity constants instead of magic literals, picosecond/cycle unit
// discipline, 64B address alignment, and no silently dropped errors. A run
// of the full rule set also reports every //lint:ignore directive that
// suppressed nothing. Unit mixups across calls, nondeterminism, probe
// accounting, races and hot-path allocations are left to tests (the
// goldens, the -race runs, the probe/Stats agreement and zero-alloc tests
// in internal/core). cmd/mglint is the command-line front end; the runtime
// counterpart of these compile-time rules is internal/check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	// Pos locates the offending expression.
	Pos token.Position
	// Rule is the analyzer rule name ("magic-granularity", ...).
	Rule string
	// Msg explains the finding and the suggested fix.
	Msg string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: mglint/%s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one domain rule checked over a package.
type Analyzer interface {
	// Name is the rule name used in findings and suppressions.
	Name() string
	// Doc is a one-line description for -help output.
	Doc() string
	// Check inspects one package and returns its findings.
	Check(p *Package) []Finding
}

// Analyzers returns the full rule set in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&MagicGranularity{},
		&UnitMixing{},
		&Alignment{},
		&UncheckedReturn{},
	}
}

// AnalyzerByName resolves a rule name.
func AnalyzerByName(name string) (Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Options configures a lint run.
type Options struct {
	// Load tunes module loading.
	Load LoadOptions
	// Rules restricts the rule set (nil = all).
	Rules []string
}

// Run lints the module containing root and returns unsuppressed findings
// sorted by position, with filenames relative to the module root (stable
// across checkouts, which the baseline and JSON output rely on). A run of
// the full rule set also audits the suppression directives: each one that
// suppressed nothing is reported as a stale-suppression finding. A
// restricted run skips the audit, since a directive for a disabled rule is
// not stale.
func Run(root string, opts Options) ([]Finding, error) {
	absRoot, _, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := Load(root, opts.Load)
	if err != nil {
		return nil, err
	}
	fs, err := check(pkgs, opts.Rules)
	if err != nil {
		return nil, err
	}
	return relativeTo(fs, absRoot), nil
}

// relativeTo rewrites finding filenames relative to root.
func relativeTo(fs []Finding, root string) []Finding {
	root = strings.TrimSuffix(root, string(os.PathSeparator)) + string(os.PathSeparator)
	for i := range fs {
		fs[i].Pos.Filename = strings.TrimPrefix(fs[i].Pos.Filename, root)
	}
	return fs
}

// check is the driver: it resolves the rule set, collects raw findings
// package by package, applies suppressions (marking the directives that
// fired), and returns the survivors sorted and deduplicated. When every rule
// ran, unused directives are added as stale-suppression findings.
func check(pkgs []*Package, rules []string) ([]Finding, error) {
	var analyzers []Analyzer
	if len(rules) == 0 {
		analyzers = Analyzers()
	} else {
		for _, name := range rules {
			a, ok := AnalyzerByName(name)
			if !ok {
				return nil, fmt.Errorf("lint: unknown rule %q", name)
			}
			analyzers = append(analyzers, a)
		}
	}
	sup := suppressionsOf(pkgs)
	var out []Finding
	for _, m := range sup.Malformed {
		out = append(out, Finding{Pos: m.Pos, Rule: "ignore-directive", Msg: m.Msg})
	}
	for _, a := range analyzers {
		for _, p := range pkgs {
			for _, f := range a.Check(p) {
				if _, ok := sup.Match(f.Pos.Filename, f.Pos.Line, f.Rule); !ok {
					out = append(out, f)
				}
			}
		}
	}
	if len(rules) == 0 {
		for _, d := range sup.Stale() {
			out = append(out, Finding{
				Pos:  d.Pos,
				Rule: "stale-suppression",
				Msg:  "suppression for mglint/" + d.Name + " no longer matches any finding; remove it",
			})
		}
	}
	return sortFindings(out), nil
}

// IgnorePrefix introduces a suppression comment:
//
//	//lint:ignore mglint/<rule> <reason>
//
// Placement, the mandatory reason and the stale audit follow Directives.
const IgnorePrefix = "//lint:ignore"

// suppressionsOf scans every file of the module for suppressions.
func suppressionsOf(pkgs []*Package) *Directives {
	s := NewDirectives(IgnorePrefix, IgnorePrefix+" mglint/<rule> <reason>", func(name string) (string, error) {
		rule, ok := strings.CutPrefix(name, "mglint/")
		if !ok {
			return "", fmt.Errorf("rule %q lacks the mglint/ prefix", name)
		}
		return rule, nil
	})
	for _, p := range pkgs {
		for _, f := range p.Files {
			s.Scan(p.Fset, f)
		}
	}
	return s
}

// sortFindings orders by (file, line, col, rule) and drops exact
// duplicates — the provably deterministic output contract.
func sortFindings(out []Finding) []Finding {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	// Nested expressions can hit one rule twice at one position; report once.
	dedup := out[:0]
	for i, f := range out {
		if i > 0 && f == out[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup
}

// inspect walks every file of the package with a parent stack, calling fn
// with each node and its ancestors (innermost last).
func inspect(p *Package, fn func(n ast.Node, stack []ast.Node)) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			fn(n, stack)
			stack = append(stack, n)
			return true
		})
	}
}
