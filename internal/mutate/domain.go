package mutate

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The domain tier encodes the defect classes the paper's multi-granular
// MAC + integrity tree must catch, stated from two authorities: the unit
// domains of the geometry helpers (the unit-swap partner tables below) and
// the protection engine's policy surface (verify/seal/commit/promote names
// in secmem, core and meta).
// These are exactly the failure modes the related work documents — the
// MGX version-elision and the SecDDR MAC-only-path gaps — plus the TOCTOU
// laundering class PR 7's attack harness found for real.

// metaPathSuffix locates the geometry package inside any module under
// analysis (fixture modules mirror the internal/ layout).
const metaPathSuffix = "/internal/meta"

// funcPartner is the unit-swap table of the geometry helpers: each helper
// is redirected to a twin with the identical Go signature whose argument
// or result lives in a different unit domain (byte address, 64B block
// index, 512B partition index, 32KB chunk index, Eq. 1-4) — exactly the
// mixups the type checker cannot catch and the suite must. Both sides name
// members of the geometry package, methods as "Type.Method".
var funcPartner = map[string]string{
	"AlignBlock":   "BlockIndex",
	"BlockIndex":   "AlignBlock",
	"ChunkBase":    "BlockIndex",
	"ChunkIndex":   "AlignBlock",
	"BlockInChunk": "PartIndex",
	"PartIndex":    "BlockInChunk",

	"Geometry.Blocks":            "Geometry.Chunks",
	"Geometry.Chunks":            "Geometry.Blocks",
	"Geometry.CounterEntryIndex": "Geometry.CounterLineAddr",
	"Geometry.CounterLineAddr":   "Geometry.CounterEntryIndex",
}

// resolvePartners resolves funcPartner against the geometry package; a
// module without one (the test fixtures) has no partners.
func resolvePartners(meta *types.Package) map[*types.Func]*types.Func {
	out := map[*types.Func]*types.Func{}
	if meta == nil {
		return out
	}
	for from, to := range funcPartner {
		f, g := lookupFunc(meta, from), lookupFunc(meta, to)
		if f != nil && g != nil {
			out[f] = g
		}
	}
	return out
}

// lookupFunc resolves "Func" or "Type.Method" in pkg.
func lookupFunc(pkg *types.Package, name string) *types.Func {
	typ, method, isMethod := strings.Cut(name, ".")
	if !isMethod {
		fn, _ := pkg.Scope().Lookup(name).(*types.Func)
		return fn
	}
	tn, ok := pkg.Scope().Lookup(typ).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	return nil
}

// constPartner swaps a geometry constant for one from a different unit
// domain with a different value (equal-valued swaps like Arity vs
// MACsPerLine, both 8, would be equivalent mutants). The pairs follow the
// Eq. 1-4 conversion factors: sizes against sizes one level off, per-X
// counts against the neighbouring domain's count.
var constPartner = map[string]string{
	"BlockSize":          "PartitionSize",
	"PartitionSize":      "ChunkSize",
	"ChunkSize":          "PartitionSize",
	"BlocksPerChunk":     "PartsPerChunk",
	"PartsPerChunk":      "BlocksPerChunk",
	"BlocksPerPartition": "BlocksPerChunk",
	"MACsPerLine":        "PartsPerChunk",
	"MACSize":            "BlockSize",
	"GTEntrySize":        "MACSize",
}

// unitSwapSites swaps byte/block/partition/chunk index domains: calls to
// geometry helpers are redirected to their funcPartner twin, and geometry
// constants are replaced by a different-domain constant (an Eq. 1-4
// conversion-factor mixup).
func unitSwapSites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		switch e := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(p, e)
			partner := m.partners[fn]
			if partner == nil {
				return
			}
			ident := calleeNameIdent(e)
			if ident == nil {
				return
			}
			out = append(out, identSwapSite(p, ident, partner.Name(),
				fmt.Sprintf("%s resolved as %s: a different unit domain with the same Go type", fn.Name(), partner.Name())))
		case *ast.Ident:
			obj := p.Info.Uses[e]
			if obj == nil || !isMetaConst(obj) {
				return
			}
			partner, ok := constPartner[e.Name]
			if !ok || inConstDeclOrArrayLen(stack) {
				return
			}
			out = append(out, identSwapSite(p, e, partner,
				fmt.Sprintf("geometry constant %s replaced by %s: Eq. 1-4 conversion factor mixup", e.Name, partner)))
		}
	})
	return out
}

// identSwapSite replaces one identifier in place.
func identSwapSite(p *Package, ident *ast.Ident, repl, desc string) Site {
	file, start, end, pos := span(p, ident)
	return Site{
		Pkg: p.Path, File: file,
		Start: start, End: end, Orig: ident.Name, Repl: repl,
		Pos: pos, Desc: desc,
	}
}

// isMetaConst reports whether the object is a constant of the geometry
// package.
func isMetaConst(obj types.Object) bool {
	if _, ok := obj.(*types.Const); !ok {
		return false
	}
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), metaPathSuffix)
}

// inConstDeclOrArrayLen reports sites that must not be mutated: inside a
// const declaration (meta's own definitions — a swap there is a different
// geometry, not a defect) or anywhere under an array type (the size is
// part of the type; a swap breaks compilation against unmutated files).
func inConstDeclOrArrayLen(stack []ast.Node) bool {
	for _, a := range stack {
		switch d := a.(type) {
		case *ast.GenDecl:
			if d.Tok == token.CONST {
				return true
			}
		case *ast.ArrayType:
			return true
		}
	}
	return false
}

// dropVerifySites deletes integrity verification: a verify* call returning
// an error is replaced by a nil error, and MAC equality checks are forced
// true. This is the PR-7 TOCTOU laundering class — data flows on without
// its authenticity being established.
func dropVerifySites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(p, call)
		if fn == nil {
			return
		}
		switch {
		case strings.HasPrefix(strings.ToLower(fn.Name()), "verify") && returnsOnlyError(fn):
			repl, node := "error(nil)", ast.Node(call)
			if len(stack) > 0 {
				if es, ok := stack[len(stack)-1].(*ast.ExprStmt); ok {
					repl, node = "_ = error(nil)", es
				}
			}
			out = append(out, m.site(p, node, repl,
				fmt.Sprintf("%s deleted: unverified state flows on as authentic", fn.Name())))
		case fn.Name() == "Equal" && fromCryptoPkg(fn) && len(stack) > 0:
			if _, isStmt := stack[len(stack)-1].(*ast.ExprStmt); isStmt {
				return
			}
			out = append(out, m.site(p, call, "true",
				"MAC comparison forced true: any tag is accepted"))
		}
	})
	return out
}

// returnsOnlyError reports a single-result error signature.
func returnsOnlyError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return typeString(sig.Results().At(0).Type()) == "error"
}

// fromCryptoPkg reports whether the function lives in the module's crypto
// package.
func fromCryptoPkg(fn *types.Func) bool {
	return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "/internal/crypto")
}

// skipLevelSites makes integrity-tree walks ascend two levels at a time,
// leaving every other level unverified/unversioned — the partial-walk
// defect a multi-granular tree is particularly exposed to (the promoted
// start level must still chain to the root).
func skipLevelSites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Post == nil {
			return
		}
		inc, ok := fs.Post.(*ast.IncDecStmt)
		if !ok || inc.Tok != token.INC {
			return
		}
		ident, ok := inc.X.(*ast.Ident)
		if !ok || !strings.Contains(strings.ToLower(ident.Name), "level") {
			return
		}
		out = append(out, m.site(p, fs.Post, ident.Name+" += 2",
			"tree walk skips every other level: the chain to the root has holes"))
	})
	return out
}

// counterish matches the engine's counter vocabulary: split-counter
// minors/majors, epochs, and the ctr/counter spellings used across secmem
// and core. "level" is deliberately absent (that is skip-level's class)
// and Stats fields are excluded by the caller.
func counterish(name string) bool {
	l := strings.ToLower(name)
	for _, w := range []string{"ctr", "counter", "major", "minor", "epoch"} {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// mentionsCounter reports whether the expression mentions a counter-ish
// identifier (including method names like readCounter) and no Stats
// accounting field.
func mentionsCounter(e ast.Expr) bool {
	found, stats := false, false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if counterish(id.Name) {
				found = true
			}
			if strings.Contains(strings.ToLower(id.Name), "stats") {
				stats = true
			}
		}
		return true
	})
	return found && !stats
}

// dropBumpSites elides counter advancement: `x + 1` loses its increment
// and counter increments are deleted wherever the value involved is a
// major/minor/version counter. A survivor means counter freshness (the
// anti-replay property) is untested on that path — the MGX
// version-elision class.
func dropBumpSites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if e.Op != token.ADD || !isLiteralOne(e.Y) || !mentionsCounter(e.X) {
				return
			}
			file, _, _, _ := span(p, e)
			xEnd := p.Fset.Position(e.X.End())
			eEnd := p.Fset.Position(e.End())
			out = append(out, Site{
				Pkg: p.Path, File: file,
				Start: xEnd.Offset, End: eEnd.Offset,
				Orig: m.nodeText(p, e)[xEnd.Offset-p.Fset.Position(e.Pos()).Offset:],
				Repl: "", Pos: p.Fset.Position(e.Pos()),
				Desc: "counter bump dropped: the version never advances (replay window)",
			})
		case *ast.IncDecStmt:
			if e.Tok != token.INC || !mentionsCounter(e.X) {
				return
			}
			if len(stack) > 0 {
				if _, isFor := stack[len(stack)-1].(*ast.ForStmt); isFor {
					return // loop post statements are not counter state
				}
			}
			out = append(out, m.site(p, e, "", "counter increment deleted: the version never advances"))
		}
	})
	return out
}

// isLiteralOne matches the literal 1.
func isLiteralOne(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "1"
}

// invertPairs are the promote/demote twins (identical signatures, opposite
// direction) the operator exchanges, keyed by method name with the
// required receiver-type suffix.
var invertPairs = map[string]struct{ partner, recvSuffix string }{
	"PromoteMask": {"DemoteMask", "meta.StreamPart"},
	"DemoteMask":  {"PromoteMask", "meta.StreamPart"},
	"Promote":     {"Demote", "secmem.Memory"},
	"Demote":      {"Promote", "secmem.Memory"},
}

// invertSwitchSites inverts the fine↔coarse direction of granularity
// switching: comparisons between two granularities have their operands
// swapped (scale-up classified as scale-down and vice versa), and
// promote/demote entry points trade places.
func invertSwitchSites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
			default:
				return
			}
			if !isGran(p, e.X) || !isGran(p, e.Y) {
				return
			}
			lhs, rhs := m.nodeText(p, e.X), m.nodeText(p, e.Y)
			out = append(out, m.site(p, e, rhs+" "+e.Op.String()+" "+lhs,
				"granularity comparison operands swapped: scale-up and scale-down trade places"))
		case *ast.CallExpr:
			fn := calleeFunc(p, e)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			pair, ok := invertPairs[fn.Name()]
			if !ok {
				return
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !strings.HasSuffix(typeString(sig.Recv().Type()), pair.recvSuffix) {
				return
			}
			ident := calleeNameIdent(e)
			if ident == nil {
				return
			}
			out = append(out, identSwapSite(p, ident, pair.partner,
				fmt.Sprintf("%s becomes %s: the switch runs in the opposite direction", fn.Name(), pair.partner)))
		}
	})
	return out
}

// isGran reports a meta.Gran-typed expression.
func isGran(p *Package, e ast.Expr) bool {
	return strings.HasSuffix(typeString(p.Info.TypeOf(e)), metaPathSuffix+".Gran")
}

// dropWindowSites elides the lazy-switch window: pending-switch commits
// are deleted or collapsed, reads resolve against the not-yet-committed
// encoding, and the switch-window probe event disappears. (A reseal from
// off-chip ciphertext, the TOCTOU hole the attack harness found, has no
// site: no sealer reads stored ciphertext. Its owners are drop-verify on
// stage's verify calls and the xgran-splice row of the detection matrix.)
func dropWindowSites(m *Module, p *Package) []Site {
	var out []Site
	eachSourceFile(p, func(f *ast.File, n ast.Node, stack []ast.Node) {
		switch e := n.(type) {
		case *ast.ExprStmt:
			call, ok := e.X.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := calleeFunc(p, call)
			if fn == nil || !onTable(fn) {
				return
			}
			if fn.Name() == "CommitAll" || fn.Name() == "SetNext" {
				out = append(out, m.site(p, e, "",
					fmt.Sprintf("%s deleted: the lazy switch never lands", fn.Name())))
			}
		case *ast.CallExpr:
			fn := calleeFunc(p, e)
			if fn == nil {
				return
			}
			sel, _ := ast.Unparen(e.Fun).(*ast.SelectorExpr)
			switch {
			case fn.Name() == "CommitUnit" && onTable(fn) && sel != nil && len(e.Args) == 2:
				if !inTwoValueAssign(stack, e) {
					return
				}
				recv := m.nodeText(p, sel.X)
				a, b := m.nodeText(p, e.Args[0]), m.nodeText(p, e.Args[1])
				cur := fmt.Sprintf("%s.Current(%s).GranOfBlock(%s)", recv, a, b)
				out = append(out, m.site(p, e, cur+", "+cur,
					"CommitUnit collapsed to a read: pending switches never commit"))
			case fn.Name() == "Current" && onTable(fn) && sel != nil:
				out = append(out, identSwapSite(p, sel.Sel, "Next",
					"Current reads the uncommitted Next encoding: the window collapses to zero"))
			}
		case *ast.IfStmt:
			if site, ok := m.probeWindowSite(p, e); ok {
				out = append(out, site)
			}
		}
	})
	return out
}

// onTable reports a method of the geometry package's Table type.
func onTable(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return strings.HasSuffix(typeString(sig.Recv().Type()), metaPathSuffix+".Table")
}

// inTwoValueAssign reports whether the call is the sole RHS of a
// two-value assignment (`from, to := table.CommitUnit(...)`), the only
// shape the CommitUnit collapse rewrite is valid in.
func inTwoValueAssign(stack []ast.Node, call *ast.CallExpr) bool {
	if len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	return ok && len(as.Lhs) == 2 && len(as.Rhs) == 1 && as.Rhs[0] == call
}

// probeWindowSite matches the switch-window emission idiom — `if p != nil
// { p.Event(...) }` where p is a probe — and deletes the whole guard,
// eliding the observable window.
func (m *Module) probeWindowSite(p *Package, ifs *ast.IfStmt) (Site, bool) {
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ || ifs.Else != nil || ifs.Init != nil {
		return Site{}, false
	}
	if id, isIdent := ast.Unparen(cond.Y).(*ast.Ident); !isIdent || id.Name != "nil" {
		return Site{}, false
	}
	if !strings.HasSuffix(typeString(p.Info.TypeOf(cond.X)), "/internal/probe.Probe") {
		return Site{}, false
	}
	if len(ifs.Body.List) != 1 {
		return Site{}, false
	}
	es, ok := ifs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return Site{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return Site{}, false
	}
	ident := calleeNameIdent(call)
	if ident == nil || ident.Name != "Event" {
		return Site{}, false
	}
	// Only the switch-window event class is this operator's business;
	// deleting unrelated emissions (memory traffic, detection events) is a
	// different defect with different observers.
	if !strings.Contains(m.nodeText(p, call), "EvSwitchWindow") {
		return Site{}, false
	}
	return m.site(p, ifs, "",
		"switch-window probe emission deleted: the window is no longer observable"), true
}
