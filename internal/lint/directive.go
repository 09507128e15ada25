package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"strings"
)

// Directives is one family of in-source directives of the form
//
//	<prefix> <name> <reason>
//
// mglint's //lint:ignore suppressions and mgmutate's //mutate:ignore
// equivalent-mutant claims both use it. A directive at the end of a code
// line covers only that line; a directive alone on its line covers the next
// line. The reason is mandatory: a directive without one is malformed and
// covers nothing. Match marks only the first directive that covers a name on
// a line, so a duplicate stays unused and Stale reports it together with
// the directives whose code is gone.
type Directives struct {
	// Malformed lists the directives that do not parse, in scan order.
	Malformed []Malformed

	prefix string
	usage  string
	name   func(string) (string, error)
	// byLine maps filename -> covered line -> directives.
	byLine map[string]map[int][]*Directive
	// all preserves scan order so Stale is deterministic.
	all []*Directive
	// lines caches raw source lines for the placement rule.
	lines map[string][]string
}

// Directive is one well-formed directive.
type Directive struct {
	// Pos locates the directive itself.
	Pos token.Position
	// Name is what the directive covers: a rule or operator name, or "all".
	Name string
	// Reason is the mandatory justification.
	Reason string
	// Covers is the source line the directive covers.
	Covers int
	used   bool
}

// Malformed is a directive that does not parse.
type Malformed struct {
	Pos token.Position
	Msg string
}

// NewDirectives returns an empty set for directives introduced by prefix.
// usage is the well-formed shape quoted in malformed messages; name checks
// the name field and returns the name directives match against.
func NewDirectives(prefix, usage string, name func(string) (string, error)) *Directives {
	return &Directives{
		prefix: prefix,
		usage:  usage,
		name:   name,
		byLine: map[string]map[int][]*Directive{},
		lines:  map[string][]string{},
	}
}

// Parse splits one comment's text into the directive's name and reason.
func (s *Directives) Parse(text string) (name, reason string, err error) {
	rest := strings.TrimPrefix(text, s.prefix)
	fields := strings.Fields(rest)
	problem := ""
	switch {
	case rest != "" && rest[0] != ' ' && rest[0] != '\t':
		problem = "no space after " + s.prefix
	case len(fields) == 0:
		problem = "missing name"
	case len(fields) == 1:
		problem = "missing reason"
	default:
		if name, err = s.name(fields[0]); err != nil {
			problem = err.Error()
		}
	}
	if problem != "" {
		return "", "", fmt.Errorf("malformed directive (%s): want %s", problem, s.usage)
	}
	return name, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])), nil
}

// Scan adds the directives in the comments of one file.
func (s *Directives) Scan(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, s.prefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			name, reason, err := s.Parse(c.Text)
			if err != nil {
				s.Malformed = append(s.Malformed, Malformed{Pos: pos, Msg: err.Error()})
				continue
			}
			d := &Directive{Pos: pos, Name: name, Reason: reason, Covers: pos.Line + 1}
			if s.endOfLine(pos) {
				d.Covers = pos.Line
			}
			lines := s.byLine[pos.Filename]
			if lines == nil {
				lines = map[int][]*Directive{}
				s.byLine[pos.Filename] = lines
			}
			lines[d.Covers] = append(lines[d.Covers], d)
			s.all = append(s.all, d)
		}
	}
}

// endOfLine reports whether the directive at pos shares its line with code.
// Decided from the raw source so that the answer does not depend on which
// AST node the comment attached to. An unreadable file counts as
// standalone placement.
func (s *Directives) endOfLine(pos token.Position) bool {
	lines, ok := s.lines[pos.Filename]
	if !ok {
		if data, err := os.ReadFile(pos.Filename); err == nil {
			lines = strings.Split(string(data), "\n")
		}
		s.lines[pos.Filename] = lines
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

// Match returns the first directive that covers name on file:line and
// marks it used.
func (s *Directives) Match(file string, line int, name string) (*Directive, bool) {
	for _, d := range s.byLine[file][line] {
		if d.Name == name || d.Name == "all" {
			d.used = true
			return d, true
		}
	}
	return nil, false
}

// Stale returns the directives that never matched, in scan order. Call it
// after Match has run over every finding the directives could cover.
func (s *Directives) Stale() []*Directive {
	var out []*Directive
	for _, d := range s.all {
		if !d.used {
			out = append(out, d)
		}
	}
	return out
}
