package main

import (
	"bytes"
	"strings"
	"testing"
)

const fixtureRoot = "../../internal/mutate/testdata/mutmod"

func TestListOperators(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	for _, op := range []string{"negate-cond", "unit-swap", "drop-verify", "drop-window"} {
		if !strings.Contains(out.String(), op) {
			t.Errorf("-list output missing %s", op)
		}
	}
}

func TestUnknownOperator(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-ops", "no-such-op", "-pkgs", "mutmod", fixtureRoot}, &out, &errBuf); code != 2 {
		t.Fatalf("want exit 2 for unknown operator, got %d", code)
	}
}

func TestUnknownPackage(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-pkgs", "nope/nothing", fixtureRoot}, &out, &errBuf); code != 2 {
		t.Fatalf("want exit 2 for unknown package, got %d", code)
	}
}

// TestSuppressionsAuditFindsStale: a plain run audits the directives and
// stops at the fixture's stale one before building any mutant.
func TestSuppressionsAuditFindsStale(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-pkgs", "mutmod", fixtureRoot}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("fixture has a stale directive; want exit 1, got %d (out=%s err=%s)", code, out.String(), errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "stale mutate:ignore") {
		t.Errorf("audit output missing stale message: %s", errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("run went on past the audit and printed:\n%s", out.String())
	}
}
