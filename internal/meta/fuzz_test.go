package meta

import "testing"

// FuzzMACSlot fuzzes the Fig. 9 MAC-compaction mapping: for every encoding
// and block, the resolved slot must fall inside the compacted prefix, agree
// with the encoding's granularity view, be shared by every block of the
// unit, and pack units front-to-back in address order.
func FuzzMACSlot(f *testing.F) {
	f.Add(uint64(0), 0)           // all fine
	f.Add(uint64(AllStream), 511) // one 32KB unit
	f.Add(uint64(0xff)<<24, 200)  // one 4KB group
	f.Add(uint64(0x8001), 17)     // two stream partitions
	f.Add(uint64(0xfffe_0000_0000_00ff), 300)
	f.Fuzz(func(t *testing.T, spBits uint64, b int) {
		sp := StreamPart(spBits)
		b = ((b % BlocksPerChunk) + BlocksPerChunk) % BlocksPerChunk

		slot, g := sp.MACSlot(b)
		if want := sp.GranOfBlock(b); g != want {
			t.Fatalf("sp=%#x b=%d: slot granularity %v, encoding says %v", spBits, b, g, want)
		}
		used := sp.SlotsUsed()
		if used < 1 || used > BlocksPerChunk {
			t.Fatalf("sp=%#x: SlotsUsed %d outside [1,%d]", spBits, used, BlocksPerChunk)
		}
		if slot < 0 || slot >= used {
			t.Fatalf("sp=%#x b=%d: slot %d outside compacted prefix %d", spBits, b, slot, used)
		}

		// Every block of the unit shares the unit's single MAC slot.
		u := sp.UnitOf(b)
		for _, probe := range []int{u.Block, u.Block + u.Blocks() - 1} {
			ps, pg := sp.MACSlot(probe)
			if pg != g || (g != Gran64 && ps != slot) {
				t.Fatalf("sp=%#x: unit [%d,+%d) blocks disagree: (%d,%v) vs (%d,%v)",
					spBits, u.Block, u.Blocks(), slot, g, ps, pg)
			}
		}

		// Front-to-back packing: the next unit starts at a strictly greater
		// slot (fragmentation-free compaction, Fig. 9).
		if next := u.Block + u.Blocks(); next < BlocksPerChunk && sp != AllStream {
			us, _ := sp.MACSlot(u.Block)
			ns, _ := sp.MACSlot(next)
			if ns <= us {
				t.Fatalf("sp=%#x: unit at %d has slot %d, next unit at %d has slot %d (not ascending)",
					spBits, u.Block, us, next, ns)
			}
		}
	})
}

// counterSlot is the slot (0..7) of blockIdx's counter within its level-th
// line: the Eq. 3 entry index modulo the arity.
func counterSlot(g *Geometry, level int, blockIdx uint64) int {
	return int(g.CounterEntryIndex(level, blockIdx) % Arity)
}

// rootSlot is the on-chip root register guarding blockIdx's top-most
// stored line: that line's index, the top level's entry index divided by
// the arity.
func rootSlot(g *Geometry, blockIdx uint64) int {
	return int(blockIdx >> (3 * uint(g.Levels())))
}

// FuzzGeometryEqs fuzzes the Eq. 1-4 metadata address computation across
// region sizes: parent-index division (Eq. 3), counter lines confined to the
// counter region and ascending with level (Eq. 4), each counter's slot inside
// its line and the top line's root register inside the on-chip roots, and
// compacted MAC addresses confined to the MAC region (Eq. 1) with the
// granularity the encoding assigns the block. It states the tree walker's
// fetch order: a walk fetches these lines level by level, so its fetches
// ascend.
func FuzzGeometryEqs(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(uint64(128), uint64(511), uint64(AllStream))
	f.Add(uint64(7), uint64(3*512+200), uint64(0xff)<<24)
	f.Add(uint64(8), uint64(0), uint64(0)) // 9 chunks: one level more than 8 root entries
	f.Fuzz(func(t *testing.T, chunks, blockIdx, spBits uint64) {
		chunks = chunks%256 + 1
		g := NewGeometry(chunks * ChunkSize)
		blockIdx %= g.Blocks()
		sp := StreamPart(spBits)

		if r := g.RootEntries(); r < 1 || r > Arity {
			t.Fatalf("chunks=%d: %d on-chip root entries, want 1..%d", chunks, r, Arity)
		}

		for level := 0; level+1 < g.Levels(); level++ {
			parent := g.CounterEntryIndex(level+1, blockIdx)
			if parent != g.CounterEntryIndex(level, blockIdx)/Arity {
				t.Fatalf("chunks=%d block=%d: Eq.3 broken at level %d", chunks, blockIdx, level)
			}
		}

		var prev uint64
		for level := 0; level < g.Levels(); level++ {
			a := g.CounterLineAddr(level, blockIdx)
			if a < g.CounterBase || a >= g.GTBase {
				t.Fatalf("chunks=%d block=%d level=%d: counter line %#x outside [%#x,%#x)",
					chunks, blockIdx, level, a, g.CounterBase, g.GTBase)
			}
			if !Aligned(a, BlockSize) {
				t.Fatalf("counter line %#x not 64B aligned", a)
			}
			if level > 0 && a <= prev {
				t.Fatalf("chunks=%d block=%d: walk not ascending at level %d (%#x after %#x)",
					chunks, blockIdx, level, a, prev)
			}
			prev = a
			// The line Eq. 4 names and the slot within it recover the
			// entry: line*Arity + slot.
			slot := counterSlot(g, level, blockIdx)
			if slot < 0 || slot >= Arity {
				t.Fatalf("chunks=%d block=%d level=%d: counter slot %d outside [0,%d)", chunks, blockIdx, level, slot, Arity)
			}
			if line := (a - g.CounterLineAddr(level, 0)) / BlockSize; line*Arity+uint64(slot) != g.CounterEntryIndex(level, blockIdx) {
				t.Fatalf("chunks=%d block=%d level=%d: line %d slot %d is not entry %d",
					chunks, blockIdx, level, line, slot, g.CounterEntryIndex(level, blockIdx))
			}
		}
		if r := rootSlot(g, blockIdx); r < 0 || r >= g.RootEntries() {
			t.Fatalf("chunks=%d block=%d: root slot %d outside [0,%d)", chunks, blockIdx, r, g.RootEntries())
		}
		if top := g.Levels() - 1; uint64(rootSlot(g, blockIdx)) != g.CounterEntryIndex(top, blockIdx)/Arity {
			t.Fatalf("chunks=%d block=%d: root slot %d does not guard the top line", chunks, blockIdx, rootSlot(g, blockIdx))
		}

		dataAddr := blockIdx * BlockSize
		macAddr, gran := g.MACAddrFor(dataAddr, sp)
		if macAddr < g.MACBase || macAddr >= g.CounterBase {
			t.Fatalf("MAC addr %#x outside MAC region [%#x,%#x)", macAddr, g.MACBase, g.CounterBase)
		}
		if want := sp.GranOfBlock(BlockInChunk(dataAddr)); gran != want {
			t.Fatalf("MACAddrFor granularity %v, encoding says %v", gran, want)
		}
	})
}
