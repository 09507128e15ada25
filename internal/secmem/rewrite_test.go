package secmem

import (
	"testing"

	"unimem/internal/meta"
)

// TestFailedRewriteLeavesImageIntact crosses every rewriting operation with
// a data, MAC and counter tamper placed inside the state the operation
// verifies. Each cell must fail and leave the off-chip image exactly as it
// was before the operation: a rewrite verifies everything it will touch
// before it mutates anything.
func TestFailedRewriteLeavesImageIntact(t *testing.T) {
	const part1 = meta.PartitionSize
	fill := func(m *Memory, blocks int) {
		for b := 0; b < blocks; b++ {
			mustWrite(t, m, uint64(b)*meta.BlockSize, block(byte(b)))
		}
	}
	apply := func(m *Memory, sp meta.StreamPart) {
		if err := m.ApplyDetection(0, sp); err != nil {
			t.Fatal(err)
		}
	}
	mixedA := meta.StreamPart(0xff<<8 | 1<<2)
	mixedB := meta.StreamPart(0xff | 0x3<<8 | 1<<2 | 1<<20)
	ops := []struct {
		name   string
		setup  func(m *Memory)
		target uint64 // tampered address: inside what op verifies
		op     func(m *Memory) error
	}{
		{"write-64B", func(m *Memory) { fill(m, 4) }, 0x40,
			func(m *Memory) error { return m.Write(0x40, block(0xee)) }},
		{"write-512B", func(m *Memory) { fill(m, 8); apply(m, 1) }, 0x140,
			func(m *Memory) error { return m.Write(0, block(0xee)) }},
		{"promote", func(m *Memory) { fill(m, 16) }, part1 + 0x80,
			func(m *Memory) error { return m.Promote(0, 0, 2) }},
		{"demote", func(m *Memory) { fill(m, 64); apply(m, 0xff) }, 0x400,
			func(m *Memory) error { return m.Demote(0, 3, 1) }},
		{"mixed-switch", func(m *Memory) { fill(m, 160); apply(m, mixedA) }, 9 * part1,
			func(m *Memory) error { return m.ApplyDetection(0, mixedB) }},
	}
	tampers := []struct {
		name string
		do   func(m *Memory, addr uint64) bool
	}{
		{"data", (*Memory).TamperData},
		{"mac", (*Memory).TamperMAC},
		{"counter", (*Memory).TamperCounter},
	}
	for _, o := range ops {
		for _, tp := range tampers {
			t.Run(o.name+"/"+tp.name, func(t *testing.T) {
				m := newMem()
				o.setup(m)
				if !tp.do(m, o.target) {
					t.Fatalf("tamper at %#x did not land", o.target)
				}
				pre := m.Snapshot()
				if err := o.op(m); err == nil {
					t.Fatal("operation over tampered state succeeded")
				}
				if !m.Snapshot().Equal(pre) {
					t.Error("failed operation changed the off-chip image")
				}
			})
		}
	}
}
