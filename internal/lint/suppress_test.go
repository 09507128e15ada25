package lint

import "testing"

// staleOf lints a throwaway module with the full rule set, which audits
// the suppression directives, and returns its stale-suppression findings.
func staleOf(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	var stale []Finding
	for _, f := range lintFiles(t, files) {
		if f.Rule == "stale-suppression" {
			stale = append(stale, f)
		}
	}
	return stale
}

// TestEOLSuppressionCoversOnlyItsOwnLine is the regression test for the
// multi-finding-line bug: an end-of-line directive used to leak onto the
// following line and silently swallow its neighbour's finding.
func TestEOLSuppressionCoversOnlyItsOwnLine(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

func Mask(addr uint64) uint64  { return addr &^ 63 } //lint:ignore mglint/magic-granularity documented raw relationship
func Mask2(addr uint64) uint64 { return addr &^ 63 }
`,
	}, "magic-granularity")
	if len(fs) != 1 {
		t.Fatalf("got %d findings %v, want exactly the unsuppressed neighbour", len(fs), fs)
	}
	if fs[0].Pos.Line != 4 {
		t.Errorf("surviving finding on line %d, want the neighbour line 4", fs[0].Pos.Line)
	}
}

// TestStandaloneSuppressionCoversOnlyNextLine: a directive alone on its
// line covers the next line and nothing further down.
func TestStandaloneSuppressionCoversOnlyNextLine(t *testing.T) {
	fs := lintFiles(t, map[string]string{
		"internal/core/a.go": `package core

//lint:ignore mglint/magic-granularity documented raw relationship
func Mask(addr uint64) uint64  { return addr &^ 63 }
func Mask2(addr uint64) uint64 { return addr &^ 63 }
`,
	}, "magic-granularity")
	if len(fs) != 1 || fs[0].Pos.Line != 5 {
		t.Fatalf("got %v, want exactly one finding on line 5", fs)
	}
}

// TestStaleSuppressionAudit: a directive that suppresses nothing is stale;
// one that fires is not.
func TestStaleSuppressionAudit(t *testing.T) {
	stale := staleOf(t, map[string]string{
		"internal/core/a.go": `package core

//lint:ignore mglint/magic-granularity obsolete: the literal is long gone
func ID(addr uint64) uint64 { return addr }

//lint:ignore mglint/magic-granularity documented raw relationship
func Mask(addr uint64) uint64 { return addr &^ 63 }
`,
	})
	if len(stale) != 1 {
		t.Fatalf("got %d stale directives %v, want 1", len(stale), stale)
	}
	if stale[0].Rule != "stale-suppression" || stale[0].Pos.Line != 3 {
		t.Errorf("stale = %v, want stale-suppression at line 3", stale[0])
	}
}

// TestDuplicateSuppressionIsStale: when a standalone directive and an
// end-of-line directive both cover one finding, only the first fires; the
// duplicate must surface in the audit.
func TestDuplicateSuppressionIsStale(t *testing.T) {
	stale := staleOf(t, map[string]string{
		"internal/core/a.go": `package core

//lint:ignore mglint/magic-granularity documented raw relationship
func Mask(addr uint64) uint64 { return addr &^ 63 } //lint:ignore mglint/magic-granularity duplicate of the line above
`,
	})
	if len(stale) != 1 {
		t.Fatalf("got %d stale directives %v, want the duplicate only", len(stale), stale)
	}
	if stale[0].Pos.Line != 4 {
		t.Errorf("stale duplicate at line %d, want the end-of-line one at 4", stale[0].Pos.Line)
	}
}
