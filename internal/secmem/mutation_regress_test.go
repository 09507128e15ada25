package secmem

// Regression tests pinning defects an mgmutate campaign proved invisible
// to the suite (see DESIGN.md, "Mutation testing").

import (
	"bytes"
	"testing"

	"unimem/internal/meta"
)

// Kills the drop-window mutants on unitOf and Write (secmem.go): while a
// detected granularity switch is pending but uncommitted, reads and writes
// must resolve units through the *current* encoding — during the
// lazy-switch window "next" describes metadata that does not exist yet,
// and resolving through it reads counters and MAC slots that were never
// written.
func TestReadDuringPendingSwitchUsesCurrentEncoding(t *testing.T) {
	m := newMem()
	want := block(0x5a)
	mustWrite(t, m, 0, want)
	// Detection wants the chunk coarse; nothing has committed it.
	m.table.SetNext(0, meta.AllStream)
	got, err := m.Read(0)
	if err != nil {
		t.Fatalf("read inside the lazy-switch window: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read inside the lazy-switch window returned wrong data")
	}
	want = block(0xa5)
	if err := m.Write(meta.BlockSize, want); err != nil {
		t.Fatalf("write inside the lazy-switch window: %v", err)
	}
	if got := mustRead(t, m, meta.BlockSize); !bytes.Equal(got, want) {
		t.Fatal("write inside the lazy-switch window did not read back")
	}
	// Sanity: the window really was open for the whole read.
	if m.table.Current(0) == m.table.Next(0) {
		t.Fatal("test no longer exercises an open switch window")
	}
}

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
