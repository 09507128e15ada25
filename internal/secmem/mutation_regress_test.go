package secmem

// Regression tests pinning defects an mgmutate campaign proved invisible
// to the suite (see DESIGN.md, "Mutation testing").

import (
	"bytes"
	"testing"

	"unimem/internal/meta"
)

// Kills the off-by-one mutant on the scale-up max scan (switch.go): the
// promoted unit's counter must strictly exceed every child counter —
// reusing a child's value re-encrypts new content under an already-used
// (address, counter) pad.
func TestScaleUpCounterExceedsAllChildren(t *testing.T) {
	m := newMem()
	want := block(0x17)
	mustWrite(t, m, 0, want)
	if c := m.unitCounter(0, meta.Gran64); c != 1 {
		t.Fatalf("child counter = %d before promotion, want 1", c)
	}
	if err := m.ApplyDetection(0, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	if c := m.unitCounter(0, meta.Gran32K); c != 2 {
		t.Fatalf("promoted counter = %d, want max(children)+1 = 2", c)
	}
	if got := mustRead(t, m, 0); !bytes.Equal(got, want) {
		t.Fatal("promotion lost data")
	}
}
