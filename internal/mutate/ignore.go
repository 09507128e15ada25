package mutate

import (
	"bytes"
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Ignore directives mark equivalent mutants:
//
//	//mutate:ignore <operator|all> <reason>
//
// A directive at the end of a code line covers mutants on its own line; a
// directive alone on its line covers the next line. The reason is
// mandatory: a directive without one is malformed and covers nothing.
// Covers marks only the first directive that covers a site, so a duplicate
// stays unused and Stale reports it together with the directives whose code
// is gone. Every full mgmutate run fails on both, so equivalent-mutant
// annotations cannot outlive the code they describe.

const ignorePrefix = "//mutate:ignore"

// IgnoreSet holds the module's parsed directives plus any malformed ones.
type IgnoreSet struct {
	// Malformed lists the directives that do not parse, as ready-to-print
	// "file:line: message" strings.
	Malformed []string

	// dirs holds the well-formed directives in scan order.
	dirs []*ignore
}

// ignore is one well-formed directive.
type ignore struct {
	pos    token.Position // the directive itself
	op     string         // operator name or "all"
	reason string
	covers int // the source line the directive covers
	used   bool
}

// parseIgnore splits one directive comment into its operator and reason.
func parseIgnore(text string) (op, reason string, err error) {
	rest := strings.TrimPrefix(text, ignorePrefix)
	fields := strings.Fields(rest)
	problem := ""
	switch {
	case rest != "" && rest[0] != ' ' && rest[0] != '\t':
		problem = "no space after " + ignorePrefix
	case len(fields) == 0:
		problem = "missing operator"
	case len(fields) == 1:
		problem = "missing reason"
	default:
		if _, ok := OperatorByName(fields[0]); !ok && fields[0] != "all" {
			problem = fmt.Sprintf("unknown operator %q", fields[0])
		}
	}
	if problem != "" {
		return "", "", fmt.Errorf("malformed directive (%s): want %s <operator|all> <reason>", problem, ignorePrefix)
	}
	return fields[0], strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])), nil
}

// ParseIgnores scans the non-test source files of the target packages for
// ignore directives.
func ParseIgnores(m *Module, targets []*Package) *IgnoreSet {
	s := &IgnoreSet{}
	for _, p := range targets {
		for _, f := range p.Files {
			file := p.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			// An unreadable file reads as empty: every directive in it
			// then counts as standalone.
			src, _ := m.Source(file)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					op, reason, err := parseIgnore(c.Text)
					if err != nil {
						s.Malformed = append(s.Malformed, fmt.Sprintf("%s:%d: %v", relIgnorePath(m, file), pos.Line, err))
						continue
					}
					d := &ignore{pos: pos, op: op, reason: reason, covers: pos.Line + 1}
					if endOfLine(src, pos.Offset) {
						d.covers = pos.Line
					}
					s.dirs = append(s.dirs, d)
				}
			}
		}
	}
	sort.Strings(s.Malformed)
	return s
}

// endOfLine reports whether code precedes offset on its line. It reads the
// raw source, so the answer does not depend on which AST node the comment
// attached to.
func endOfLine(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	line := src[bytes.LastIndexByte(src[:offset], '\n')+1 : offset]
	return len(bytes.TrimSpace(line)) > 0
}

// Covers reports whether a directive suppresses the site, marking the
// first matching directive used (for the staleness audit).
func (s *IgnoreSet) Covers(site Site) (reason string, ok bool) {
	for _, d := range s.dirs {
		if d.pos.Filename == site.File && d.covers == site.Pos.Line && (d.op == site.Op || d.op == "all") {
			d.used = true
			return d.reason, true
		}
	}
	return "", false
}

// Stale returns directives that covered no collected site, as
// ready-to-print "file:line: message" strings. Call after Covers has run
// over the complete (unsampled) site set.
func (s *IgnoreSet) Stale(m *Module) []string {
	var out []string
	for _, d := range s.dirs {
		if !d.used {
			out = append(out, fmt.Sprintf("%s:%d: stale mutate:ignore (%s): no %s mutant on line %d",
				relIgnorePath(m, d.pos.Filename), d.pos.Line, d.reason, d.op, d.covers))
		}
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
