package mutate

import (
	"context"
	"encoding/json"
	"fmt"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// loadFixture loads the testdata module once per test that needs it.
func loadFixture(t *testing.T) *Module {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "mutmod"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	return m
}

// fixtureOps is the operator subset the end-to-end fixture run uses: wide
// enough to produce killed, survived and ignored mutants, small enough to
// keep the go-test fan-out cheap.
func fixtureOps(t *testing.T) []Operator {
	t.Helper()
	var ops []Operator
	for _, name := range []string{"negate-cond", "swap-ineq", "off-by-one"} {
		op, ok := OperatorByName(name)
		if !ok {
			t.Fatalf("operator %q missing", name)
		}
		ops = append(ops, op)
	}
	return ops
}

func fixtureTargets(t *testing.T, m *Module) []*Package {
	t.Helper()
	p, err := m.PackageByPath("mutmod")
	if err != nil {
		t.Fatal(err)
	}
	return []*Package{p}
}

func TestCollectSitesCanonicalOrder(t *testing.T) {
	m := loadFixture(t)
	sites := m.CollectSites(fixtureTargets(t, m), fixtureOps(t))
	if len(sites) == 0 {
		t.Fatal("no sites collected from fixture")
	}
	for i := 1; i < len(sites); i++ {
		if sites[i].less(sites[i-1]) {
			t.Fatalf("sites out of canonical order at %d: %+v after %+v", i, sites[i], sites[i-1])
		}
	}
	byOp := map[string]int{}
	for _, s := range sites {
		byOp[s.Op]++
	}
	for _, op := range []string{"negate-cond", "swap-ineq", "off-by-one"} {
		if byOp[op] == 0 {
			t.Errorf("operator %s produced no fixture sites", op)
		}
	}
}

func TestApplySplice(t *testing.T) {
	m := loadFixture(t)
	sites := m.CollectSites(fixtureTargets(t, m), fixtureOps(t))
	s := sites[0]
	mutated, err := m.Apply(s)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := m.Source(s.File)
	if err != nil {
		t.Fatal(err)
	}
	if len(mutated) != len(orig)-(s.End-s.Start)+len(s.Repl) {
		t.Fatalf("splice length mismatch: %d vs %d", len(mutated), len(orig))
	}
	if string(mutated[s.Start:s.Start+len(s.Repl)]) != s.Repl {
		t.Fatalf("replacement not at site offset")
	}
}

// loadFiles writes a module "throwaway" holding the given files
// (slash-relative paths) and loads it.
func loadFiles(t *testing.T, files map[string]string) *Module {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module throwaway\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	return m
}

// TestIgnoreDirectives pins directive placement and the staleness audit:
// an end-of-line directive covers only its own line and a standalone one
// only the next line; a directive naming one operator covers only that
// operator's sites; a duplicate and a directive over no site are stale;
// a malformed one covers nothing; a file excluded by build tags is neither
// scanned nor mutated.
func TestIgnoreDirectives(t *testing.T) {
	cases := []struct {
		name      string
		files     map[string]string // nil: the mutmod fixture
		covered   []string          // "file:line op" of each covered site
		stale     []string          // "file:line" of each stale directive
		malformed int
	}{
		{
			name:    "fixture",
			covered: []string{"clamp.go:32 off-by-one"},
			stale:   []string{"clamp.go:38"},
		},
		{
			name: "end-of-line covers only its own line",
			files: map[string]string{"p.go": `package p

func F(v int) bool { return v < 1 } //mutate:ignore swap-ineq boundary is equivalent here
func G(v int) bool { return v < 1 }
`},
			covered: []string{"p.go:3 swap-ineq"},
		},
		{
			name: "standalone covers only the next line",
			files: map[string]string{"p.go": `package p

//mutate:ignore all boundary is equivalent here
func F(v int) bool { return v < 1 }
func G(v int) bool { return v < 1 }
`},
			covered: []string{"p.go:4 off-by-one", "p.go:4 swap-ineq"},
		},
		{
			name: "standalone naming one operator covers only its site",
			files: map[string]string{"p.go": `package p

//mutate:ignore swap-ineq boundary is equivalent here
func F(v int) bool { return v < 1 }
`},
			covered: []string{"p.go:4 swap-ineq"},
		},
		{
			name: "duplicate is stale",
			files: map[string]string{"p.go": `package p

//mutate:ignore swap-ineq boundary is equivalent here
func F(v int) bool { return v < 1 } //mutate:ignore swap-ineq duplicate of the line above
`},
			covered: []string{"p.go:4 swap-ineq"},
			stale:   []string{"p.go:4"},
		},
		{
			name: "malformed covers nothing",
			files: map[string]string{"p.go": `package p

//mutate:ignore swap-ineq
func F(v int) bool { return v < 1 }
`},
			malformed: 1,
		},
		{
			name: "build-tag-excluded file is skipped",
			files: map[string]string{
				"p.go": "package p\n\nfunc ID(v int) int { return v }\n",
				"gated.go": `//go:build someimplausibletag

package p

//mutate:ignore swap-ineq would cover F if this file were loaded
func F(v int) bool { return v < 1 }
`,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var m *Module
			var targets []*Package
			if c.files == nil {
				m = loadFixture(t)
				targets = fixtureTargets(t, m)
			} else {
				m = loadFiles(t, c.files)
				targets = m.Pkgs
			}
			ignores := ParseIgnores(m, targets)
			if len(ignores.Malformed) != c.malformed {
				t.Errorf("malformed = %v, want %d", ignores.Malformed, c.malformed)
			}
			var covered []string
			for _, s := range m.CollectSites(targets, Operators) {
				if _, ok := ignores.Covers(s); ok {
					covered = append(covered, fmt.Sprintf("%s:%d %s", filepath.Base(s.File), s.Pos.Line, s.Op))
				}
			}
			slices.Sort(covered)
			if covered = slices.Compact(covered); !slices.Equal(covered, c.covered) {
				t.Errorf("covered sites = %v, want %v", covered, c.covered)
			}
			var stale []string
			for _, msg := range ignores.Stale(m) {
				stale = append(stale, msg[:strings.Index(msg, ": ")])
			}
			if !slices.Equal(stale, c.stale) {
				t.Errorf("stale directives = %v, want %v", stale, c.stale)
			}
		})
	}
}

func TestParseDirectiveErrors(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		reason string
	}{
		{"//mutate:ignore off-by-one boundary is equivalent", true, "boundary is equivalent"},
		{"//mutate:ignore all generated code", true, "generated code"},
		{"//mutate:ignore\tswap-ineq  tab-separated   reason ", true, "tab-separated   reason"},
		{"//mutate:ignore off-by-one", false, ""},     // no reason
		{"//mutate:ignore all", false, ""},            // no reason
		{"//mutate:ignore", false, ""},                // no operator
		{"//mutate:ignore no-such-op why", false, ""}, // unknown operator
		{"//mutate:ignoreall smashed", false, ""},     // no separator
	}
	for _, c := range cases {
		op, reason, err := parseIgnore(c.text)
		if c.ok && (err != nil || reason != c.reason) {
			t.Errorf("%q: got reason %q, error %v; want reason %q", c.text, reason, err, c.reason)
		}
		if !c.ok && err == nil {
			t.Errorf("%q: want error, parsed op %q reason %q", c.text, op, reason)
		}
	}
}

func TestSampleDeterministicAndPerPackage(t *testing.T) {
	var sites []Site
	var pending []int
	for i := 0; i < 40; i++ {
		pkg := "a"
		if i >= 20 {
			pkg = "b"
		}
		sites = append(sites, Site{Pkg: pkg})
		pending = append(pending, i)
	}
	s1 := samplePerPackage(sites, append([]int{}, pending...), 5)
	s2 := samplePerPackage(sites, append([]int{}, pending...), 5)
	if len(s1) != 10 {
		t.Fatalf("want 5 per package, got %d total", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("identical inputs produced different samples: %v vs %v", s1, s2)
		}
	}
	// Adding sites to package b must not reshuffle package a's sample.
	for i := 0; i < 10; i++ {
		sites = append(sites, Site{Pkg: "b"})
		pending = append(pending, 40+i)
	}
	s4 := samplePerPackage(sites, append([]int{}, pending...), 5)
	aOf := func(idx []int) []int {
		var out []int
		for _, i := range idx {
			if sites[i].Pkg == "a" {
				out = append(out, i)
			}
		}
		return out
	}
	a1, a4 := aOf(s1), aOf(s4)
	if len(a1) != len(a4) {
		t.Fatalf("package a sample size changed: %v vs %v", a1, a4)
	}
	for i := range a1 {
		if a1[i] != a4[i] {
			t.Fatalf("package a sample reshuffled by b's growth: %v vs %v", a1, a4)
		}
	}
}

func TestScoreAndFloor(t *testing.T) {
	if got := score(17, 0, 3); got != 85.0 {
		t.Errorf("score(17,0,3) = %v, want 85.0", got)
	}
	if got := score(0, 0, 0); got != 100 {
		t.Errorf("empty denominator score = %v, want 100", got)
	}
	if got := score(1, 1, 1); got != 66.7 {
		t.Errorf("score(1,1,1) = %v, want 66.7", got)
	}
	rep := &Report{
		Packages: []PackageScore{{Path: "throwaway/internal/x", Score: 80}},
		Total:    PackageScore{Path: "total", Score: 80},
	}
	dir := t.TempDir()
	floorPath := filepath.Join(dir, "floor.txt")
	if err := os.WriteFile(floorPath, []byte("# comment\ninternal/x 85\ntotal 75\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	floor, err := ReadFloor(floorPath)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.GateFloor(floor)
	if len(got) != 1 {
		t.Fatalf("want exactly the internal/x violation, got %v", got)
	}
}

func TestRunFixtureEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go test per mutant")
	}
	ops := fixtureOps(t)

	runOnce := func() (*Report, []Result) {
		mm := loadFixture(t)
		tg := fixtureTargets(t, mm)
		ig := ParseIgnores(mm, tg)
		sites := mm.CollectSites(tg, ops)
		results, err := mm.Run(context.Background(), sites, ig, 0, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, s := range sites {
			counts[s.Pkg]++
		}
		return BuildReport(mm, results, counts, 0), results
	}

	rep, results := runOnce()
	byStatus := map[string]int{}
	for _, r := range results {
		byStatus[r.Status]++
	}
	if byStatus[StatusKilled] == 0 || byStatus[StatusSurvived] == 0 || byStatus[StatusIgnored] != 1 {
		t.Fatalf("fixture status mix off: %v", byStatus)
	}
	if byStatus[StatusBuildFailed] != 0 {
		t.Fatalf("fixture mutants must all compile: %v", byStatus)
	}

	// Phase-2 routing: the Abs negate-cond mutant is invisible to mutmod's
	// own tests and must be killed by mutmod/sub. The Clamp upper-bound
	// swap is seen by no test of the module; the nested module's failing
	// test must not count as its kill.
	phase2, clampSurvives := false, false
	for _, r := range results {
		if r.Status == StatusKilled && slices.Contains(r.KilledBy, "mutmod/sub") {
			phase2 = true
		}
		if r.Status == StatusSurvived && r.Op == "swap-ineq" && r.Orig == ">" {
			clampSurvives = true
		}
	}
	if !phase2 {
		t.Error("no mutant killed via phase-2 routing (mutmod/sub)")
	}
	if !clampSurvives {
		t.Error("the Clamp upper-bound swap-ineq mutant did not survive")
	}

	// Determinism: a second full load+run produces a byte-identical report.
	rep2, _ := runOnce()
	b1, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.MarshalIndent(rep2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("reports differ across identical runs:\n%s\n---\n%s", b1, b2)
	}

	// mutmod's own tests run first; the nested module under mutmod is not
	// one of its packages.
	if cand := loadFixture(t).candidates("mutmod"); !slices.Equal(cand, []string{"mutmod", "mutmod/sub"}) {
		t.Errorf("candidates(mutmod) = %v, want [mutmod mutmod/sub]", cand)
	}
}

// realModule loads this repository's module once for the tests that
// inspect it.
var realModule = sync.OnceValues(func() (*Module, error) { return LoadModule(".") })

// TestSeedRegistryResolvesAgainstModule guards the stated unit-swap
// tables against silent drift: if a geometry helper or constant is renamed
// or re-typed, its entry must fail loudly here instead of quietly dropping
// unit-swap sites or producing mutants that do not compile.
func TestSeedRegistryResolvesAgainstModule(t *testing.T) {
	m, err := realModule()
	if err != nil {
		t.Fatal(err)
	}
	metaPkg := m.metaPackage()
	if metaPkg == nil {
		t.Fatal("module has no geometry package")
	}
	for from, to := range funcPartner {
		f, g := lookupFunc(metaPkg, from), lookupFunc(metaPkg, to)
		if f == nil || g == nil {
			t.Errorf("unit-swap pair %s -> %s does not resolve in meta", from, to)
			continue
		}
		if !types.Identical(f.Type(), g.Type()) {
			t.Errorf("unit-swap pair %s -> %s: signatures differ (%s vs %s)", from, to, f.Type(), g.Type())
		}
	}
	if len(m.partners) != len(funcPartner) {
		t.Errorf("%d unit-swap partners resolved, want %d", len(m.partners), len(funcPartner))
	}
	for from, to := range constPartner {
		for _, name := range []string{from, to} {
			if obj := metaPkg.Scope().Lookup(name); obj == nil || !isMetaConst(obj) {
				t.Errorf("constant partner %s -> %s: meta.%s is not a constant", from, to, name)
			}
		}
	}
}

func TestRealModuleDomainSites(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m, err := realModule()
	if err != nil {
		t.Fatal(err)
	}
	var targets []*Package
	for _, pkg := range []string{"internal/secmem", "internal/core", "internal/tree", "internal/meta", "internal/crypto"} {
		p, err := m.PackageByPath(pkg)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, p)
	}
	sites := m.CollectSites(targets, Operators)
	byOp := map[string]int{}
	for _, s := range sites {
		byOp[s.Op]++
	}
	// Every operator must bite on the real module: an operator with zero
	// sites silently stops guarding its defect class.
	for _, op := range Operators {
		if byOp[op.Name] == 0 {
			t.Errorf("operator %s has no sites in the target packages", op.Name)
		}
	}
	// The stated partner swaps must bite on the real call sites.
	wantSwap := map[string]bool{}
	for _, s := range sites {
		if s.Op == "unit-swap" {
			wantSwap[s.Orig+"->"+s.Repl] = true
		}
	}
	for _, pair := range []string{"BlockSize->PartitionSize", "PartIndex->BlockInChunk"} {
		if !wantSwap[pair] {
			t.Errorf("expected unit-swap pair %s missing", pair)
		}
	}
}
