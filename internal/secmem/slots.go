package secmem

import (
	"math/bits"
	"slices"
)

// slots is one off-chip region laid out by the slot the geometry computes
// for each entry, with a presence bit per slot. Presence is state: a
// never-written block has no ciphertext and no MAC, a demoted never-written
// unit stores a zero counter, and Save writes exactly the present entries.
// An absent slot always holds the zero value, so a read that ignores
// presence sees zero, as a fresh counter or pristine line must.
type slots[T comparable] struct {
	vals []T
	has  []uint64 // presence, one bit per slot
}

func newSlots[T comparable](n uint64) slots[T] {
	return slots[T]{vals: make([]T, n), has: make([]uint64, (n+63)/64)}
}

func (s *slots[T]) get(i uint64) (T, bool) {
	return s.vals[i], s.has[i/64]&(1<<(i%64)) != 0
}

func (s *slots[T]) set(i uint64, v T) {
	s.vals[i] = v
	s.has[i/64] |= 1 << (i % 64)
}

func (s *slots[T]) del(i uint64) {
	var zero T
	s.vals[i] = zero
	s.has[i/64] &^= 1 << (i % 64)
}

// count returns the number of present slots.
func (s *slots[T]) count() (n int) {
	for _, w := range s.has {
		n += bits.OnesCount64(w)
	}
	return n
}

// each calls f on every present slot in ascending slot order.
func (s *slots[T]) each(f func(i uint64, v T)) {
	for w, word := range s.has {
		for ; word != 0; word &= word - 1 {
			i := uint64(w)*64 + uint64(bits.TrailingZeros64(word))
			f(i, s.vals[i])
		}
	}
}

func (s *slots[T]) clone() slots[T] {
	return slots[T]{vals: slices.Clone(s.vals), has: slices.Clone(s.has)}
}

func (s *slots[T]) equal(o *slots[T]) bool {
	return slices.Equal(s.has, o.has) && slices.Equal(s.vals, o.vals)
}
