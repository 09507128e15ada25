package mutate

import (
	"fmt"
	"sort"
	"strings"

	"unimem/internal/lint"
)

// Ignore directives are lint.Directives, the scanner mglint's suppressions
// use:
//
//	//mutate:ignore <operator|all> <reason>
//
// An end-of-line directive covers mutants on its own line; a standalone
// directive covers the next line. The reason is mandatory — a directive
// without one is an error, not a silent pass — and directives that cover
// nothing are reported stale by every full mgmutate run, so equivalent-
// mutant annotations cannot outlive the code they describe.

const ignorePrefix = "//mutate:ignore"

// IgnoreSet holds the module's parsed directives plus any malformed ones.
type IgnoreSet struct {
	// Malformed lists directives missing the reason or operator field, as
	// ready-to-print "file:line: message" strings.
	Malformed []string

	dirs *lint.Directives
}

// newIgnoreDirectives returns an empty directive set that accepts operator
// names and "all".
func newIgnoreDirectives() *lint.Directives {
	return lint.NewDirectives(ignorePrefix, ignorePrefix+" <operator|all> <reason>", func(op string) (string, error) {
		if _, ok := OperatorByName(op); !ok && op != "all" {
			return "", fmt.Errorf("unknown operator %q", op)
		}
		return op, nil
	})
}

// ParseIgnores scans the non-test source files of the target packages for
// ignore directives.
func ParseIgnores(m *Module, targets []*lint.Package) *IgnoreSet {
	set := &IgnoreSet{dirs: newIgnoreDirectives()}
	for _, p := range targets {
		for _, f := range p.Files {
			if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				set.dirs.Scan(p.Fset, f)
			}
		}
	}
	for _, d := range set.dirs.Malformed {
		set.Malformed = append(set.Malformed, fmt.Sprintf("%s:%d: %s", relIgnorePath(m, d.Pos.Filename), d.Pos.Line, d.Msg))
	}
	sort.Strings(set.Malformed)
	return set
}

// Covers reports whether a directive suppresses the site, marking the
// first matching directive used (for the staleness audit).
func (s *IgnoreSet) Covers(site Site) (reason string, ok bool) {
	d, ok := s.dirs.Match(site.File, site.Pos.Line, site.Op)
	if !ok {
		return "", false
	}
	return d.Reason, true
}

// Stale returns directives that covered no collected site, as
// ready-to-print "file:line: message" strings. Call after Covers has run
// over the complete (unsampled) site set.
func (s *IgnoreSet) Stale(m *Module) []string {
	var out []string
	for _, d := range s.dirs.Stale() {
		out = append(out, fmt.Sprintf("%s:%d: stale mutate:ignore (%s): no %s mutant on line %d",
			relIgnorePath(m, d.Pos.Filename), d.Pos.Line, d.Reason, d.Name, d.Covers))
	}
	sort.Strings(out)
	return out
}

// relIgnorePath shortens file paths to module-relative form for messages.
func relIgnorePath(m *Module, file string) string {
	if rel, ok := strings.CutPrefix(file, m.Root+"/"); ok {
		return rel
	}
	return file
}
