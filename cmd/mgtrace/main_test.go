package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/mgtrace -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// runCmd drives run() and returns (stdout, stderr, exit code).
func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// golden compares got against testdata/name, rewriting under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenAll(t *testing.T) {
	out, _, code := runCmd(t, "-all", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	golden(t, "all.golden", out)
}

func TestGoldenDump(t *testing.T) {
	out, _, code := runCmd(t, "-workload", "alex", "-dump", "5", "-scale", "0.05")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	golden(t, "dump.golden", out)
}

func TestGoldenExportReplay(t *testing.T) {
	// Export then replay through the real flag surface. The exported file
	// lands in a temp dir (its path is run-dependent), so only the replay
	// analysis line — with the path stripped — is golden-checked.
	trc := filepath.Join(t.TempDir(), "alex.trc")
	out, errs, code := runCmd(t, "-workload", "alex", "-scale", "0.05", "-export", trc)
	if code != 0 {
		t.Fatalf("export exit %d, stderr: %s", code, errs)
	}
	if !strings.Contains(out, "wrote ") {
		t.Fatalf("unexpected export output: %q", out)
	}
	out, errs, code = runCmd(t, "-replay", trc)
	if code != 0 {
		t.Fatalf("replay exit %d, stderr: %s", code, errs)
	}
	if !strings.HasPrefix(out, trc+": ") {
		t.Fatalf("replay output does not lead with the trace path: %q", out)
	}
	golden(t, "replay.golden", strings.TrimPrefix(out, trc+": "))
}

func TestBadArgs(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.trc")
	cases := [][]string{
		{},                      // neither -workload nor -all
		{"-workload", "nosuch"}, // unknown workload
		{"-replay", missing},    // unreadable trace
		{"-bogusflag"},          // flag parse error
		{"-workload", "alex", "-scale", "0"},
		{"-workload", "alex", "-scale", "-1"},
		{"-workload", "alex", "-dump", "-1"},
	}
	for _, args := range cases {
		out, errs, code := runCmd(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out != "" {
			t.Errorf("%v: wrote to stdout on error: %q", args, out)
		}
		if errs == "" {
			t.Errorf("%v: no diagnostic on stderr", args)
		}
	}
}

func TestExportFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	_, errs, code := runCmd(t, "-workload", "alex", "-scale", "0.05", "-export", dir)
	if code != 2 || errs == "" {
		t.Fatalf("export to a directory: exit %d, stderr %q; want a failure", code, errs)
	}
}
