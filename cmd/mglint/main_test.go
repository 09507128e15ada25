package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule writes a throwaway module named unimem holding one file,
// internal/core/a.go, and returns its root.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module unimem\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "core")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// badModule holds one magic-granularity finding.
func badModule(t *testing.T) string {
	return writeModule(t, "package core\n\nfunc Mask(addr uint64) uint64 { return addr &^ 63 }\n")
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunTextFormatExitsNonZeroOnFindings(t *testing.T) {
	code, stdout, _ := runCLI(t, "-rules", "magic-granularity", badModule(t)+"/...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, "mglint/magic-granularity") {
		t.Errorf("text output missing findings:\n%s", stdout)
	}
}

func TestRunJSONFormat(t *testing.T) {
	code, stdout, _ := runCLI(t, "-format", "json", "-rules", "magic-granularity", badModule(t))
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.HasPrefix(stdout, "[\n") || !strings.Contains(stdout, `"rule": "magic-granularity"`) {
		t.Errorf("unexpected JSON output:\n%s", stdout)
	}
}

func TestRunUnknownFormatErrors(t *testing.T) {
	code, _, stderr := runCLI(t, "-format", "sarif", badModule(t))
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown -format") {
		t.Errorf("stderr missing format error: %s", stderr)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	bl := filepath.Join(t.TempDir(), "baseline.json")
	root := badModule(t)

	// Regenerate the baseline from the module's findings...
	code, _, stderr := runCLI(t, "-rules", "magic-granularity", "-baseline", bl, "-write-baseline", root)
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(bl); err != nil {
		t.Fatal(err)
	}

	// ...after which the same run gates clean.
	code, stdout, _ := runCLI(t, "-rules", "magic-granularity", "-baseline", bl, root)
	if code != 0 {
		t.Fatalf("baselined run exit = %d, stdout:\n%s", code, stdout)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("baselined run still printed findings:\n%s", stdout)
	}
}

func TestSuppressionsAuditMode(t *testing.T) {
	root := writeModule(t, `package core

//lint:ignore mglint/magic-granularity obsolete: nothing left to suppress
func ID(addr uint64) uint64 { return addr }
`)
	// A plain run of the full rule set audits the directives.
	code, stdout, _ := runCLI(t, root)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for a stale directive", code)
	}
	if !strings.Contains(stdout, "stale-suppression") {
		t.Errorf("output missing stale-suppression:\n%s", stdout)
	}

	// A rule subset cannot judge staleness, so it reports nothing.
	code, stdout, _ = runCLI(t, "-rules", "alignment", root)
	if code != 0 || strings.Contains(stdout, "stale-suppression") {
		t.Errorf("-rules alignment: exit %d, stdout %q; want 0 and no stale directive", code, stdout)
	}
}

func TestListRules(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var rules []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		rules = append(rules, strings.Fields(line)[0])
	}
	want := "magic-granularity,unit-mixing,alignment,unchecked-return"
	if got := strings.Join(rules, ","); got != want {
		t.Errorf("-list rules = %s, want %s", got, want)
	}
}
