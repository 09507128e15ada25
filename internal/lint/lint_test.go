package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lintFiles writes a throwaway module holding the given files and lints it
// with the given rule subset (empty = all rules).
func lintFiles(t *testing.T, files map[string]string, rules ...string) []Finding {
	t.Helper()
	fs, err := Run(writeModule(t, files), Options{Rules: rules})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	return fs
}

// writeModule writes a throwaway module named unimem holding the given
// files (paths are slash-relative to the module root; go.mod is added
// automatically) and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module unimem\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// wantFinding asserts exactly one finding carries the rule and that its
// message mentions every given fragment.
func wantFinding(t *testing.T, fs []Finding, rule string, fragments ...string) {
	t.Helper()
	var hits []Finding
	for _, f := range fs {
		if f.Rule == rule {
			hits = append(hits, f)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("rule %s: got %d findings %v, want 1", rule, len(hits), fs)
	}
	for _, frag := range fragments {
		if !strings.Contains(hits[0].Msg, frag) {
			t.Errorf("rule %s: message %q missing %q", rule, hits[0].Msg, frag)
		}
	}
}

const fakeSim = "package sim\n\n// Time is picoseconds.\ntype Time int64\n"

func TestMagicGranularityFlagsRawLiteral(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

func Mask(addr uint64) uint64 { return addr &^ 63 }
`,
	}, "magic-granularity")
	wantFinding(t, fs, "magic-granularity", "63", "meta.BlockSize")
}

func TestMagicGranularityFlagsShiftSpelling(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

func Chunk(addr uint64) uint64 { return addr / (1 << 15) }
`,
	}, "magic-granularity")
	wantFinding(t, fs, "magic-granularity", "32768", "meta.ChunkSize")
}

func TestMagicGranularitySparesConstantsAndIntMath(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

const blockSize = 64 // definitions are allowed to spell the value

func Words(bits int) int     { return bits / 64 } // int math is out of scope
func Mask(addr uint64) uint64 { return addr &^ (blockSize - 1) }
`,
	}, "magic-granularity")
	if len(fs) != 0 {
		t.Fatalf("clean snippet flagged: %v", fs)
	}
}

func TestUnitMixingFlagsBareLiteralAndRawConversion(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/sim/sim.go": fakeSim,
		"internal/core/a.go": `package core

import "unimem/internal/sim"

func Deadline(t sim.Time) sim.Time { return t + 100 }
`,
	}, "unit-mixing")
	wantFinding(t, fs, "unit-mixing", "bare literal 100")

	fs = lintFiles(t, map[string]string{
		"internal/sim/sim.go": fakeSim,
		"internal/core/b.go": `package core

import "unimem/internal/sim"

func Stamp(beats uint64) sim.Time { return sim.Time(beats) }
`,
	}, "unit-mixing")
	wantFinding(t, fs, "unit-mixing", "raw count")
}

func TestUnitMixingSparesTimeFlavouredCode(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/sim/sim.go": fakeSim,
		"internal/core/a.go": `package core

import "unimem/internal/sim"

const psPerCycle sim.Time = 455

func Convert(cycles int64) sim.Time { return sim.Time(cycles) * psPerCycle }
func Halve(t sim.Time) sim.Time     { return t / 2 } // dimensionless scaling
func Guard(t sim.Time) bool         { return t > 0 }
`,
	}, "unit-mixing")
	if len(fs) != 0 {
		t.Fatalf("clean snippet flagged: %v", fs)
	}
}

func TestAlignmentFlagsEscapingSum(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

func Span(addr uint64, size int) uint64 { return addr + uint64(size) }
`,
	}, "alignment")
	wantFinding(t, fs, "alignment", "addr+size")
}

func TestAlignmentFlagsRawModGuard(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

func NaturallyAligned(addr, n uint64) bool {
	if addr%n == 0 {
		return true
	}
	return false
}
`,
	}, "alignment")
	wantFinding(t, fs, "alignment", "meta.Aligned")
}

func TestAlignmentSparesNamedBoundsAndComparisons(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

func Covers(addr uint64, size int, unitEnd uint64) bool {
	end := addr + uint64(size) // named as a bound: fine
	return end <= unitEnd && addr+uint64(size) > 0
}

type span struct{ lo, hi uint64 }

func fill(s *span, addr uint64, size int) {
	s.lo, s.hi = addr, addr+uint64(size) // bound-named field: fine
}
`,
	}, "alignment")
	if len(fs) != 0 {
		t.Fatalf("clean snippet flagged: %v", fs)
	}
}

func TestUncheckedReturnFlagsDroppedErrors(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/secmem/a.go": `package secmem

import "errors"

func verify() error { return errors.New("tampered") }

func Sweep() {
	verify()
}
`,
	}, "unchecked-return")
	wantFinding(t, fs, "unchecked-return", "drops an error")
}

func TestUncheckedReturnSparesExplicitDiscardAndOutsideInternal(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/secmem/a.go": `package secmem

import "errors"

func verify() error { return errors.New("tampered") }

func Sweep() {
	_ = verify() // visible decision
}
`,
		"toplevel.go": `package unimem

import "errors"

func leak() error { return errors.New("x") }

// Outside internal/ the rule does not apply.
func Top() { leak() }
`,
	}, "unchecked-return")
	if len(fs) != 0 {
		t.Fatalf("clean snippet flagged: %v", fs)
	}
}

func TestSuppressionDirectiveCoversFinding(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

//lint:ignore mglint/magic-granularity documented raw relationship
func Mask(addr uint64) uint64 { return addr &^ 63 }
`,
	}, "magic-granularity")
	if len(fs) != 0 {
		t.Fatalf("suppressed finding still reported: %v", fs)
	}
}

func TestMalformedSuppressionIsReported(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

//lint:ignore mglint/magic-granularity
func Mask(addr uint64) uint64 { return addr &^ 63 }
`,
	}, "magic-granularity")
	// The reason-less directive does not suppress, and is itself a finding.
	var rules []string
	for _, f := range fs {
		rules = append(rules, f.Rule)
	}
	want := []string{"ignore-directive", "magic-granularity"}
	if strings.Join(rules, ",") != strings.Join(want, ",") {
		t.Fatalf("got rules %v, want %v", rules, want)
	}
}

func TestBuildTagFilteredFilesAreSkipped(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/gated.go": `//go:build someimplausibletag

package core

func Mask(addr uint64) uint64 { return addr &^ 63 }
`,
		"internal/core/a.go": `package core

// Kept file is clean.
func ID(addr uint64) uint64 { return addr }
`,
	}, "magic-granularity")
	if len(fs) != 0 {
		t.Fatalf("build-tag-excluded file was linted: %v", fs)
	}
}

// multiRuleModule writes a throwaway module with findings of all four rules
// spread over three files, for the output-contract tests.
func multiRuleModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"internal/sim/sim.go": fakeSim,
		"internal/core/b.go": `package core

import "unimem/internal/sim"

func Deadline(t sim.Time) sim.Time { return t + 100 }

func Mask(addr uint64) uint64 { return addr &^ 63 }
`,
		"internal/core/a.go": `package core

func Span(addr uint64, size int) uint64 { return addr + uint64(size) }
`,
		"internal/secmem/a.go": `package secmem

import "errors"

func verify() error { return errors.New("tampered") }

func Sweep() {
	verify()
}
`,
	})
}

// runJSON lints root with the full rule set and returns the findings and
// their JSON encoding.
func runJSON(t *testing.T, root string) ([]Finding, []byte) {
	t.Helper()
	fs, err := Run(root, Options{})
	if err != nil {
		t.Fatalf("run over %s: %v", root, err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	return fs, buf.Bytes()
}

// TestJSONByteIdentical pins the deterministic output contract that
// baseline diffing relies on: two runs of the full rule set over one module
// with findings in several files and from several rules serialize to
// byte-identical JSON.
func TestJSONByteIdentical(t *testing.T) {
	root := multiRuleModule(t)
	fs, first := runJSON(t, root)
	_, second := runJSON(t, root)
	if !bytes.Equal(first, second) {
		t.Errorf("JSON output differs between runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	files, rules := map[string]bool{}, map[string]bool{}
	for _, f := range fs {
		files[f.Pos.Filename], rules[f.Rule] = true, true
	}
	if len(files) < 3 || len(rules) < 4 {
		t.Fatalf("want findings of four rules in three files, got %v", fs)
	}
}

// TestJSONOutputByteIdentical runs the full rule set twice over a module
// whose findings also come from the directive audit (malformed and stale
// directives in several files) and asserts the JSON bytes match exactly.
func TestJSONOutputByteIdentical(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/core/a.go": `package core

//lint:ignore mglint/magic-granularity obsolete: the literal is long gone
func ID(addr uint64) uint64 { return addr }

func Mask(addr uint64) uint64 { return addr &^ 63 } //lint:ignore mglint/magic-granularity
`,
		"internal/secmem/b.go": `package secmem

//lint:ignore mglint/alignment obsolete: the sum is long gone
func Zero() uint64 { return 0 }

//lint:ignore mglint/magic-granularity documented raw relationship
func Line(addr uint64) uint64 { return addr &^ 63 }
`,
	})
	fs, first := runJSON(t, root)
	_, second := runJSON(t, root)
	if !bytes.Equal(first, second) {
		t.Errorf("JSON output differs between runs:\n%s\n---\n%s", first, second)
	}
	rules := map[string]int{}
	for _, f := range fs {
		rules[f.Rule]++
	}
	if rules["stale-suppression"] != 2 || rules["ignore-directive"] != 1 || rules["magic-granularity"] != 1 {
		t.Fatalf("want two stale directives, one malformed directive and the finding it fails to cover, got %v", fs)
	}
}

// TestFixtureFindingsSorted asserts the deterministic-ordering contract on
// a module with findings of several rules in several files.
func TestFixtureFindingsSorted(t *testing.T) {
	fs, _ := runJSON(t, multiRuleModule(t))
	if len(fs) < 2 {
		t.Fatalf("want several findings, got %v", fs)
	}
	sorted := sort.SliceIsSorted(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	if !sorted {
		t.Errorf("findings not sorted by (file, line, col, rule): %v", fs)
	}
}
