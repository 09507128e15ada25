package mutate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NegateCond negates `if` conditions. The classic strongest generic
// operator: a surviving negated branch means no test distinguishes the
// branch taken from the branch skipped.
type NegateCond struct{}

// Name implements Operator.
func (*NegateCond) Name() string { return "negate-cond" }

// Tier implements Operator.
func (*NegateCond) Tier() string { return "generic" }

// Doc implements Operator.
func (*NegateCond) Doc() string { return "negate if-statement conditions" }

// Sites implements Operator.
func (op *NegateCond) Sites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || isColdGuard(ifs.Cond) {
			return
		}
		orig := m.nodeText(p, ifs.Cond)
		out = append(out, m.site(p, op, ifs.Cond, "!("+orig+")",
			"condition negated: both branches must be distinguishable by a test"))
	})
	return out
}

// isColdGuard reports conditions that only arm debug invariants
// (`check.Enabled` build-tag gates): negating one turns assertions on, a
// configuration change rather than a defect, so no mutant is derived.
func isColdGuard(cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.Ident:
		return e.Name == "Enabled"
	case *ast.SelectorExpr:
		return e.Sel.Name == "Enabled"
	}
	return false
}

// SwapIneq swaps strict and non-strict comparisons (`<` ↔ `<=`,
// `>` ↔ `>=`), the boundary-inclusion defect class.
type SwapIneq struct{}

// Name implements Operator.
func (*SwapIneq) Name() string { return "swap-ineq" }

// Tier implements Operator.
func (*SwapIneq) Tier() string { return "generic" }

// Doc implements Operator.
func (*SwapIneq) Doc() string { return "swap strict and non-strict comparisons (< vs <=, > vs >=)" }

// swapIneqRepl maps each comparison operator to its boundary twin.
var swapIneqRepl = map[token.Token]string{
	token.LSS: "<=",
	token.LEQ: "<",
	token.GTR: ">=",
	token.GEQ: ">",
}

// Sites implements Operator.
func (op *SwapIneq) Sites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return
		}
		repl, ok := swapIneqRepl[be.Op]
		if !ok {
			return
		}
		file, _, _, _ := span(p, be)
		opPos := p.Fset.Position(be.OpPos)
		out = append(out, Site{
			Op: op.Name(), Tier: op.Tier(), Pkg: p.Path, File: file,
			Start: opPos.Offset, End: opPos.Offset + len(be.Op.String()),
			Orig: be.Op.String(), Repl: repl, Pos: opPos,
			Desc: "comparison boundary flipped: the equality case changes sides",
		})
	})
	return out
}

// OffByOne shifts the right-hand bound of a comparison by one, the
// fencepost defect class on loop bounds and limit checks.
type OffByOne struct{}

// Name implements Operator.
func (*OffByOne) Name() string { return "off-by-one" }

// Tier implements Operator.
func (*OffByOne) Tier() string { return "generic" }

// Doc implements Operator.
func (*OffByOne) Doc() string { return "shift comparison bounds by one (x < n becomes x < n+1)" }

// Sites implements Operator.
func (op *OffByOne) Sites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return
		}
		if !isIntegerExpr(p, be.Y) {
			return
		}
		orig := m.nodeText(p, be.Y)
		out = append(out, m.site(p, op, be.Y, "("+orig+" + 1)",
			"bound shifted by one: the last element changes sides"))
	})
	return out
}

// isIntegerExpr reports whether the expression has an integer type (named
// integer types included), so `+ 1` type-checks in place.
func isIntegerExpr(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// EarlyReturn inserts a zero-value return at the top of a function body,
// making the rest of the function dead: a survivor means nothing asserts
// the function's effect at all. The return is wrapped in `if true { ... }`
// so declarations below stay compilable (unreachable code is legal Go;
// unused variables are not).
type EarlyReturn struct{}

// Name implements Operator.
func (*EarlyReturn) Name() string { return "early-return" }

// Tier implements Operator.
func (*EarlyReturn) Tier() string { return "generic" }

// Doc implements Operator.
func (*EarlyReturn) Doc() string { return "return zero values at function entry, skipping the body" }

// Sites implements Operator.
func (op *EarlyReturn) Sites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil || len(fd.Body.List) < 2 {
			return
		}
		ret, ok := zeroReturn(p, f, fd)
		if !ok {
			return
		}
		file, _, _, _ := span(p, fd)
		insert := p.Fset.Position(fd.Body.Lbrace).Offset + 1
		pos := p.Fset.Position(fd.Body.Lbrace)
		out = append(out, Site{
			Op: op.Name(), Tier: op.Tier(), Pkg: p.Path, File: file,
			Start: insert, End: insert,
			Orig: "", Repl: "\n\tif true {\n\t\t" + ret + "\n\t}",
			Pos:  pos,
			Desc: fmt.Sprintf("%s returns at entry: its entire effect is skipped", fd.Name.Name),
		})
	})
	return out
}

// zeroReturn builds the return statement of an early-return mutant: bare
// for no results or fully named results, otherwise a zero value per result
// type. Types that have no spellable zero in this file (anonymous structs,
// named types from packages the file does not import) yield ok=false and
// the function is skipped.
func zeroReturn(p *Package, f *ast.File, fd *ast.FuncDecl) (string, bool) {
	res := fd.Type.Results
	if res == nil || len(res.List) == 0 {
		return "return", true
	}
	named := true
	for _, field := range res.List {
		if len(field.Names) == 0 {
			named = false
			break
		}
	}
	if named {
		return "return", true
	}
	sig, ok := p.Info.Defs[fd.Name].Type().(*types.Signature)
	if !ok {
		return "", false
	}
	var zeros []string
	for i := 0; i < sig.Results().Len(); i++ {
		z, ok := zeroExpr(p, f, sig.Results().At(i).Type())
		if !ok {
			return "", false
		}
		zeros = append(zeros, z)
	}
	out := "return "
	for i, z := range zeros {
		if i > 0 {
			out += ", "
		}
		out += z
	}
	return out, true
}

// zeroExpr spells the zero value of a type as it can appear in the given
// file (respecting its imports).
func zeroExpr(p *Package, f *ast.File, t types.Type) (string, bool) {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false", true
		case u.Info()&types.IsString != 0:
			return `""`, true
		case u.Info()&(types.IsInteger|types.IsFloat|types.IsComplex) != 0:
			return "0", true
		case u.Kind() == types.UnsafePointer:
			return "nil", true
		}
		return "", false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil", true
	case *types.Struct, *types.Array:
		named, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		obj := named.Obj()
		if obj.Pkg() == nil {
			return "", false
		}
		if obj.Pkg() == p.Types {
			return obj.Name() + "{}", true
		}
		if q, ok := importedAs(f, obj.Pkg().Path()); ok {
			return q + "." + obj.Name() + "{}", true
		}
		return "", false
	}
	return "", false
}

// importedAs returns the name the file refers to an imported package by.
func importedAs(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		got := imp.Path.Value
		if got != `"`+path+`"` {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "", false
			}
			return imp.Name.Name, true
		}
		if i := lastSlash(path); i >= 0 {
			return path[i+1:], true
		}
		return path, true
	}
	return "", false
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
