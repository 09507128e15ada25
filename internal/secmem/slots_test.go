package secmem

import (
	"slices"
	"testing"
)

// TestSlotsPresenceIsState: a slot set to zero is present and an absent
// slot reads zero, so only the presence bits tell them apart: count, each,
// equal and del all go by them. Slots 63 and 64 straddle a bitset word.
func TestSlotsPresenceIsState(t *testing.T) {
	s := newSlots[uint64](130)
	if v, ok := s.get(64); v != 0 || ok {
		t.Fatalf("fresh slot reads (%d, %v), want (0, false)", v, ok)
	}
	empty := s.clone()
	s.set(64, 0)
	s.set(63, 7)
	s.set(129, 9)
	if v, ok := s.get(64); v != 0 || !ok {
		t.Fatalf("slot set to zero reads (%d, %v), want (0, true)", v, ok)
	}
	if s.equal(&empty) || s.count() != 3 {
		t.Fatalf("count %d, equal to the empty slots %v: a zero value must still be present", s.count(), s.equal(&empty))
	}
	var order []uint64
	s.each(func(i, v uint64) { order = append(order, i, v) })
	if want := []uint64{63, 7, 64, 0, 129, 9}; !slices.Equal(order, want) {
		t.Fatalf("each visited %v, want %v (slot, value) in slot order", order, want)
	}
	c := s.clone()
	s.del(63)
	if v, ok := s.get(63); v != 0 || ok || s.count() != 2 {
		t.Fatalf("deleted slot reads (%d, %v) with %d present, want (0, false) with 2", v, ok, s.count())
	}
	if v, ok := c.get(63); v != 7 || !ok || c.equal(&s) {
		t.Fatal("a clone shares state with its original")
	}
	s.del(64)
	s.del(129)
	if !s.equal(&empty) {
		t.Fatal("slots with every entry deleted differ from fresh ones")
	}
}
