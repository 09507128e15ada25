package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unimem/internal/report"
)

// update rewrites the golden file instead of comparing against it:
//
//	go test ./cmd/mgbench -run TestGolden -update
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

// TestGolden pins the default run, all 15 experiments at the scaled
// defaults: the run EXPERIMENTS.md archives. It takes about 12 s on two
// CPUs, so -short skips it.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the default run is skipped in -short mode")
	}
	out, errs, code := runCmd(t, "-scale", "0.12", "-sample", "24", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	golden(t, "default.golden", out)
}

// TestBadArgs: bad flags exit 2 with a diagnostic only. -list rides along
// with the negative counts so that accepting one prints the list instead
// of starting a 250-scenario sweep.
func TestBadArgs(t *testing.T) {
	cases := [][]string{
		{"-scale", "0"},
		{"-scale", "NaN"},
		{"-sample", "-1", "-list"},
		{"-workers", "-1", "-list"},
		{"-exp", "nosuch"},
		{"-bogusflag"},
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

func TestList(t *testing.T) {
	out, errs, code := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	ids := strings.Fields(out)
	if len(ids) != 15 || strings.Join(ids, " ") != strings.Join(report.IDs(), " ") {
		t.Fatalf("-list printed %q, want the 15 experiment ids", out)
	}
}

// TestCPUProfile: -cpuprofile leaves a gzipped pprof profile, and a path
// that cannot be created is a usage error.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, errs, code := runCmd(t, "-list", "-cpuprofile", path); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	prof, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) < 2 || prof[0] != 0x1f || prof[1] != 0x8b {
		t.Fatalf("profile is not a gzip stream (%d bytes)", len(prof))
	}

	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	out, errs, code := runCmd(t, "-list", "-cpuprofile", bad)
	if code != 2 || out != "" || errs == "" {
		t.Fatalf("unwritable profile path: exit %d, stdout %q, stderr %q; want exit 2 and a diagnostic only", code, out, errs)
	}
}
