// Package lint is the domain-aware static-analysis layer of the repository:
// it type-checks the whole module with the standard library's go/parser,
// go/ast and go/types (no external dependencies) and runs analyzers that
// encode the protection engine's domain rules — named granularity constants
// instead of magic literals, picosecond/cycle unit discipline, 64B address
// alignment, no silently dropped errors, and the module-wide dataflow rules
// (unit-flow, determinism, probe-discipline) built on the fact-propagation
// engine in dataflow.go. A run of the full rule set also reports every
// //lint:ignore directive that suppressed nothing. Races and hot-path
// allocations are left to tests (the -race runs and the scheme-wide
// zero-alloc test in internal/core). cmd/mglint is the CLI driver; the
// runtime counterpart of these compile-time rules is internal/check.
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

// ModuleAnalyzer is an analyzer that additionally (or instead) needs the
// whole type-checked module at once — the dataflow rules propagate facts
// across package boundaries, so per-package inspection cannot see their
// violations. CheckModule is called exactly once per run.
type ModuleAnalyzer interface {
	Analyzer
	CheckModule(pkgs []*Package) []Finding
}

// Analyzers returns the full rule set in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		&MagicGranularity{},
		&UnitMixing{},
		&Alignment{},
		&UncheckedReturn{},
		&UnitFlow{},
		&Determinism{},
		&ProbeDiscipline{},
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
// across checkouts, which the baseline and SARIF output rely on). A run of
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
	return RelativeTo(fs, absRoot), nil
}

// RelativeTo rewrites finding filenames relative to root.
func RelativeTo(fs []Finding, root string) []Finding {
	root = strings.TrimSuffix(root, string(os.PathSeparator)) + string(os.PathSeparator)
	for i := range fs {
		fs[i].Pos.Filename = strings.TrimPrefix(fs[i].Pos.Filename, root)
	}
	return fs
}

// check is the driver: it resolves the rule set, collects raw findings
// from per-package and module-wide analyzers, applies suppressions
// (marking the directives that fired), and returns the survivors sorted
// and deduplicated. When every rule ran, unused directives are added as
// stale-suppression findings.
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
	out = append(out, sup.malformed...)
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			for _, f := range ma.CheckModule(pkgs) {
				if !sup.covers(f) {
					out = append(out, f)
				}
			}
		}
		for _, p := range pkgs {
			for _, f := range a.Check(p) {
				if !sup.covers(f) {
					out = append(out, f)
				}
			}
		}
	}
	if len(rules) == 0 {
		out = append(out, sup.stale()...)
	}
	return sortFindings(out), nil
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

// IgnorePrefix introduces a suppression comment:
//
//	//lint:ignore mglint/<rule> <reason>
//
// A directive on a line of its own covers the following line; a directive
// at the end of a code line covers only that line. The reason is mandatory;
// a directive without one is itself reported.
const IgnorePrefix = "//lint:ignore "

// directive is one parsed suppression comment.
type directive struct {
	pos  token.Position
	rule string
	// covs is the source line the directive covers (its own line for
	// end-of-line placement, the next line for standalone placement).
	covs int
	used bool
}

// suppressions indexes every well-formed directive of the module.
type suppressions struct {
	// byLine maps filename -> covered line -> directives.
	byLine map[string]map[int][]*directive
	// all preserves scan order (packages sorted by path, files and
	// comments in source order) so the stale audit iterates
	// deterministically.
	all []*directive
	// malformed collects directives without a rule or reason.
	malformed []Finding
}

// suppressionsOf scans all packages' comments for ignore directives. A
// directive whose line holds code before the comment is end-of-line and
// covers its own line; a directive alone on its line covers the next line.
// The distinction matters when two findings sit on adjacent lines: an
// end-of-line directive must not leak onto the neighbour below.
func suppressionsOf(pkgs []*Package) *suppressions {
	s := &suppressions{byLine: map[string]map[int][]*directive{}}
	lineCache := map[string][]string{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, strings.TrimSpace(IgnorePrefix))
					if !ok {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 || !strings.HasPrefix(fields[0], "mglint/") {
						s.malformed = append(s.malformed, Finding{
							Pos:  pos,
							Rule: "ignore-directive",
							Msg:  "malformed suppression: want //lint:ignore mglint/<rule> <reason>",
						})
						continue
					}
					d := &directive{
						pos:  pos,
						rule: strings.TrimPrefix(fields[0], "mglint/"),
						covs: pos.Line + 1,
					}
					if eolDirective(lineCache, pos) {
						d.covs = pos.Line
					}
					lines := s.byLine[pos.Filename]
					if lines == nil {
						lines = map[int][]*directive{}
						s.byLine[pos.Filename] = lines
					}
					lines[d.covs] = append(lines[d.covs], d)
					s.all = append(s.all, d)
				}
			}
		}
	}
	return s
}

// eolDirective reports whether the directive at pos shares its line with
// code (true: end-of-line placement). Decided from the raw source so that
// the answer does not depend on which AST node the comment attached to. An
// unreadable file conservatively counts as standalone, the historically
// dominant placement.
func eolDirective(cache map[string][]string, pos token.Position) bool {
	lines, ok := cache[pos.Filename]
	if !ok {
		data, err := os.ReadFile(pos.Filename)
		if err != nil {
			cache[pos.Filename] = nil
			return false
		}
		lines = strings.Split(string(data), "\n")
		cache[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) || pos.Column < 1 {
		return false
	}
	line := lines[pos.Line-1]
	if pos.Column-1 > len(line) {
		return false
	}
	return strings.TrimSpace(line[:pos.Column-1]) != ""
}

// covers reports whether the finding is suppressed, marking the first
// matching directive as used (only the first: a duplicate directive for
// the same rule and line does nothing and should surface as stale).
func (s *suppressions) covers(f Finding) bool {
	for _, d := range s.byLine[f.Pos.Filename][f.Pos.Line] {
		if d.rule == f.Rule || d.rule == "all" {
			d.used = true
			return true
		}
	}
	return false
}

// stale returns one finding per directive that never suppressed anything.
func (s *suppressions) stale() []Finding {
	var out []Finding
	for _, d := range s.all {
		if !d.used {
			out = append(out, Finding{
				Pos:  d.pos,
				Rule: "stale-suppression",
				Msg:  "suppression for mglint/" + d.rule + " no longer matches any finding; remove it",
			})
		}
	}
	return out
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
