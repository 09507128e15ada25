package mutate

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestNoDroppedErrors fails on any call, go or defer statement in a
// non-test internal/ file that drops an error result. The functional layer
// reports tampering, corruption and I/O failure through error results, so
// a dropped one turns an integrity violation or a truncated file into
// silent acceptance, and go vet does not flag it. An explicit `_ =` stays
// allowed: it is a visible decision.
func TestNoDroppedErrors(t *testing.T) {
	m, err := realModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range droppedErrors(m) {
		t.Errorf("%s drops an error result; handle it or discard it with _ =", d)
	}
}

// TestDroppedErrorRule pins what TestNoDroppedErrors flags on throwaway
// modules: bare, go and defer calls that drop an error in internal/, but no
// explicit discard, no exempt callee, no test file and nothing outside
// internal/.
func TestDroppedErrorRule(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string // "file:line: call" of each flagged statement
	}{
		{
			name: "flags bare go and defer drops",
			files: map[string]string{"internal/secmem/a.go": `package secmem

import "errors"

type file struct{}

func (file) Close() error { return nil }

func verify() error { return errors.New("tampered") }

func Sweep(f file) {
	verify()
	go verify()
	defer f.Close()
}
`},
			want: []string{
				"internal/secmem/a.go:12: verify()",
				"internal/secmem/a.go:13: verify()",
				"internal/secmem/a.go:14: f.Close()",
			},
		},
		{
			name: "spares discards exempt callees tests and non-internal code",
			files: map[string]string{
				"internal/secmem/a.go": `package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"strings"
)

func verify() error { return errors.New("tampered") }

func Sweep(h hash.Hash) {
	_ = verify()
	fmt.Println("exempt")
	var b bytes.Buffer
	b.WriteString("exempt")
	var s strings.Builder
	s.WriteString("exempt")
	h.Write(nil)
}
`,
				"internal/secmem/a_test.go": "package secmem\n\nfunc dropInTest() { verify() }\n",
				"top.go":                    "package mod\n\nimport \"errors\"\n\nfunc Top() { errors.New(\"outside internal/\") }\n",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := droppedErrors(loadFiles(t, c.files)); !slices.Equal(got, c.want) {
				t.Errorf("dropped errors = %q, want %q", got, c.want)
			}
		})
	}
}

// droppedErrors lists the call, go and defer statements in m's non-test
// internal/ files that drop an error result, as "file:line: call".
func droppedErrors(m *Module) []string {
	var out []string
	for _, p := range m.Pkgs {
		if !strings.HasPrefix(p.Path, m.Path+"/internal/") {
			continue
		}
		eachSourceFile(p, func(_ *ast.File, n ast.Node, _ []ast.Node) {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(s.X).(*ast.CallExpr)
			case *ast.GoStmt:
				call = s.Call
			case *ast.DeferStmt:
				call = s.Call
			}
			if call != nil && dropsError(p, call) {
				pos := p.Fset.Position(call.Pos())
				out = append(out, fmt.Sprintf("%s:%d: %s", relIgnorePath(m, pos.Filename), pos.Line, m.nodeText(p, call)))
			}
		})
	}
	return out
}

// vacuousErrors lists receiver types whose error results never fire:
// hash.Hash.Write is documented never to fail, and the in-memory writers
// grow instead of failing.
var vacuousErrors = []string{"bytes.Buffer", "strings.Builder", "hash.Hash"}

// dropsError reports whether a call returns an error that matters: the fmt
// printing family and the vacuousErrors receivers are exempt. The receiver
// check uses the static type of the receiver expression, not the method's
// declared receiver, so hash.Hash (whose Write comes from io.Writer) is
// recognized.
func dropsError(p *Package, call *ast.CallExpr) bool {
	results := []types.Type{p.Info.TypeOf(call)}
	if tup, ok := results[0].(*types.Tuple); ok {
		results = results[:0]
		for i := 0; i < tup.Len(); i++ {
			results = append(results, tup.At(i).Type())
		}
	}
	errType := types.Universe.Lookup("error").Type()
	if !slices.ContainsFunc(results, func(t types.Type) bool { return t != nil && types.Identical(t, errType) }) {
		return false
	}
	if f := calleeFunc(p, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv := strings.TrimPrefix(types.TypeString(p.Info.TypeOf(sel.X), nil), "*")
		return !slices.Contains(vacuousErrors, recv)
	}
	return true
}
