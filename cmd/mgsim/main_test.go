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
//	go test ./cmd/mgsim -run TestGolden -update
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

func TestGoldenList(t *testing.T) {
	out, _, code := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	golden(t, "list.golden", out)
}

func TestGoldenBreakdown(t *testing.T) {
	// The acceptance-criterion shape: -breakdown prints the walk-length
	// histogram and the data/MAC/counter/table traffic split. A tiny scale
	// keeps the simulated trace (and the test) short while still exercising
	// every probe event kind.
	out, errs, code := runCmd(t, "-scenario", "ff1", "-scheme", "Ours", "-breakdown", "-scale", "0.02")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	for _, want := range []string{"walk-length histogram", "traffic breakdown", "mac", "counter", "grantable"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown output lost %q", want)
		}
	}
	golden(t, "breakdown.golden", out)
}

func TestGoldenEvents(t *testing.T) {
	out, errs, code := runCmd(t, "-scenario", "ff1", "-scheme", "Conventional", "-events", "8", "-scale", "0.01")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	if !strings.Contains(out, "seq,at_ps,kind,dev,addr,size,write,class,val,aux") {
		t.Error("event dump lost its CSV header")
	}
	golden(t, "events.golden", out)
}

func TestGoldenAttack(t *testing.T) {
	out, errs, code := runCmd(t, "-attack", "all", "-scheme", "MAC-only", "-attack-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs)
	}
	for _, want := range []string{"mac-only", "replay", "undetectable", "SecDDR"} {
		if !strings.Contains(out, want) {
			t.Errorf("attack report lost %q", want)
		}
	}
	golden(t, "attack.golden", out)
}

func TestAttackMatrixMode(t *testing.T) {
	out, _, code := runCmd(t, "-attack", "matrix")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"scheme", "Gaps", "Ours", "xgran"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix output lost %q", want)
		}
	}
}

func TestBadArgs(t *testing.T) {
	cases := [][]string{
		{"-scheme", "NoSuchScheme"},
		{"-scenario", "zz9"},
		{"-bogusflag"},
		{"-attack", "no-such-class"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-events", "-1"},
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

// TestUnknownWorkload asserts a bad workload flag is reported as an error
// (non-zero exit, one diagnostic line) rather than a panic.
func TestUnknownWorkload(t *testing.T) {
	out, errs, code := runCmd(t, "-cpu", "nosuch", "-scale", "0.02")
	if code == 0 {
		t.Fatal("exit 0 for an unknown workload")
	}
	if out != "" {
		t.Errorf("wrote to stdout on error: %q", out)
	}
	if want := "hetero: workload: unknown workload \"nosuch\"\n"; errs != want {
		t.Errorf("stderr = %q, want %q", errs, want)
	}
}

// TestCPUProfile: -cpuprofile leaves a gzipped pprof profile of the run,
// and a path that cannot be created is a usage error.
func TestCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, errs, code := runCmd(t, "-scenario", "ff1", "-scale", "0.05", "-cpuprofile", path); code != 0 {
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
	out, errs, code := runCmd(t, "-scenario", "ff1", "-scale", "0.05", "-cpuprofile", bad)
	if code != 2 || out != "" || errs == "" {
		t.Fatalf("unwritable profile path: exit %d, stdout %q, stderr %q; want exit 2 and a diagnostic only", code, out, errs)
	}
}
