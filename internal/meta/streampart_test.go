package meta

import (
	"testing"
	"testing/quick"
)

func TestGranOfEncoding(t *testing.T) {
	// Paper example: 0b101 -> partitions 0 and 2 are 512B, others 64B.
	sp := StreamPart(0b101)
	if g := sp.GranOf(0); g != Gran512 {
		t.Errorf("part 0 = %v, want 512B", g)
	}
	if g := sp.GranOf(1); g != Gran64 {
		t.Errorf("part 1 = %v, want 64B", g)
	}
	if g := sp.GranOf(2); g != Gran512 {
		t.Errorf("part 2 = %v, want 512B", g)
	}
}

func TestGranOfAllStream(t *testing.T) {
	// 0b111...1 represents the 32KB granularity.
	for p := 0; p < PartsPerChunk; p++ {
		if g := AllStream.GranOf(p); g != Gran32K {
			t.Fatalf("part %d of full chunk = %v, want 32KB", p, g)
		}
	}
}

func TestGranOf4KGroup(t *testing.T) {
	// Group 1 (partitions 8..15) fully set -> 4KB; partition 20 alone -> 512B.
	sp := StreamPart(0xff00) | 1<<20
	if g := sp.GranOf(9); g != Gran4K {
		t.Errorf("part 9 = %v, want 4KB", g)
	}
	if g := sp.GranOf(20); g != Gran512 {
		t.Errorf("part 20 = %v, want 512B", g)
	}
	if g := sp.GranOf(21); g != Gran64 {
		t.Errorf("part 21 = %v, want 64B", g)
	}
}

func TestUnitOf(t *testing.T) {
	sp := StreamPart(0xff00) | 1<<20
	// Block 70 is in partition 8 (group 1, 4KB unit starting at block 64).
	u := sp.UnitOf(70)
	if u.Gran != Gran4K || u.Block != 64 {
		t.Errorf("UnitOf(70) = %+v, want {4KB 64}", u)
	}
	// Block 163 is in partition 20 (512B unit at block 160).
	u = sp.UnitOf(163)
	if u.Gran != Gran512 || u.Block != 160 {
		t.Errorf("UnitOf(163) = %+v, want {512B 160}", u)
	}
	// Block 0 is fine.
	u = sp.UnitOf(0)
	if u.Gran != Gran64 || u.Block != 0 {
		t.Errorf("UnitOf(0) = %+v, want {64B 0}", u)
	}
}

func TestUnitsTileChunkExactly(t *testing.T) {
	cases := []StreamPart{0, AllStream, 0b101, 0xff00 | 1<<20, 0xffffffff00000000}
	for _, sp := range cases {
		blocks := 0
		prevEnd := 0
		for _, u := range sp.Units() {
			if u.Block != prevEnd {
				t.Fatalf("sp=%#x: unit at %d but previous ended at %d", uint64(sp), u.Block, prevEnd)
			}
			prevEnd = u.Block + u.Blocks()
			blocks += u.Blocks()
		}
		if blocks != BlocksPerChunk {
			t.Fatalf("sp=%#x: units cover %d blocks, want %d", uint64(sp), blocks, BlocksPerChunk)
		}
	}
}

func TestSlotsUsed(t *testing.T) {
	cases := []struct {
		sp   StreamPart
		want int
	}{
		{0, 512},           // all fine: one slot per block
		{AllStream, 1},     // whole chunk: one coarse MAC
		{0b1, 1 + 63*8},    // one stream partition
		{0xff, 1 + 56*8},   // group 0 is a 4KB unit
		{0xffff, 2 + 48*8}, // two 4KB units
		{0b101, 2 + 62*8},  // paper example: two 512B units
	}
	for _, c := range cases {
		if got := c.sp.SlotsUsed(); got != c.want {
			t.Errorf("SlotsUsed(%#x) = %d, want %d", uint64(c.sp), got, c.want)
		}
	}
}

func TestMACSlotCompaction(t *testing.T) {
	// Fig. 9 scenario: blocks 0-7 and 8-15 merged into two coarse MACs at
	// slots 0 and 1 (not 0 and 8).
	sp := StreamPart(0b11)
	s0, g0 := sp.MACSlot(0)
	s1, g1 := sp.MACSlot(8)
	if s0 != 0 || g0 != Gran512 {
		t.Errorf("first coarse MAC at slot %d gran %v, want 0/512B", s0, g0)
	}
	if s1 != 1 || g1 != Gran512 {
		t.Errorf("second coarse MAC at slot %d gran %v, want 1/512B", s1, g1)
	}
	// The next fine partition starts right after the coarse slots.
	s2, g2 := sp.MACSlot(16)
	if s2 != 2 || g2 != Gran64 {
		t.Errorf("first fine MAC at slot %d gran %v, want 2/64B", s2, g2)
	}
}

func TestMACSlotSharedWithinUnit(t *testing.T) {
	sp := StreamPart(0xff) // group 0 = 4KB unit
	s0, g0 := sp.MACSlot(0)
	s63, g63 := sp.MACSlot(63)
	if s0 != s63 || g0 != Gran4K || g63 != Gran4K {
		t.Errorf("4KB unit blocks map to slots %d,%d grans %v,%v", s0, s63, g0, g63)
	}
	// Block 64 (partition 8, fine) gets the next slot.
	s, g := sp.MACSlot(64)
	if s != 1 || g != Gran64 {
		t.Errorf("block 64 slot %d gran %v, want 1/64B", s, g)
	}
}

func TestMACSlotAllStream(t *testing.T) {
	s, g := AllStream.MACSlot(511)
	if s != 0 || g != Gran32K {
		t.Errorf("full chunk MACSlot = %d,%v, want 0,32KB", s, g)
	}
}

// Property: under any encoding, the k-th protection unit in address order
// occupies slot k, and every block of a unit resolves to the unit's slot and
// granularity. So the units fill [0, SlotsUsed) densely and without
// collision, and a request's consecutive units hold consecutive slots,
// which the engine's MAC path relies on (it resolves only its first unit's
// slot).
func TestMACSlotBijectionProperty(t *testing.T) {
	f := func(raw uint64) bool {
		sp := StreamPart(raw)
		units := sp.Units()
		if len(units) != sp.SlotsUsed() {
			return false
		}
		for k, u := range units {
			for b := u.Block; b < u.Block+u.Blocks(); b++ {
				if s, g := sp.MACSlot(b); s != k || g != u.Gran {
					return false
				}
			}
		}
		return true
	}
	// Random bits rarely form whole 4KB groups; pin those shapes too.
	for _, raw := range []uint64{0, uint64(AllStream), 0xff, 0xff<<56 | 1, 0x00ff_0f00_ff00_80ff, ^uint64(1)} {
		if !f(raw) {
			t.Fatalf("encoding %#x: unit slots are not 0, 1, 2, ... in address order", raw)
		}
	}
	if err := quick.Check(f, quickCfg(200)); err != nil {
		t.Fatal(err)
	}
}

// Property: SlotsUsed is monotone non-increasing under promotion.
func TestSlotsMonotoneUnderPromotionProperty(t *testing.T) {
	f := func(raw uint64, first, count uint8) bool {
		sp := StreamPart(raw)
		promoted := sp.PromoteMask(int(first%64), int(count%64)+1)
		return promoted.SlotsUsed() <= sp.SlotsUsed()
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteDemoteMasks(t *testing.T) {
	sp := StreamPart(0)
	sp = sp.PromoteMask(8, 8)
	if sp != 0xff00 {
		t.Fatalf("PromoteMask = %#x, want 0xff00", uint64(sp))
	}
	sp = sp.DemoteMask(12, 2)
	if sp != 0xcf00 {
		t.Fatalf("DemoteMask = %#x, want 0xcf00", uint64(sp))
	}
	if AllStream.CountStream() != 64 || sp.CountStream() != 6 {
		t.Fatal("CountStream broken")
	}
	if StreamPart(0).PromoteMask(0, 64) != AllStream {
		t.Fatal("PromoteMask full range")
	}
}

// Property: GranOf is consistent with UnitOf — every block inside a unit
// reports the unit's granularity.
func TestGranUnitConsistencyProperty(t *testing.T) {
	f := func(raw uint64, b uint16) bool {
		sp := StreamPart(raw)
		blk := int(b) % BlocksPerChunk
		u := sp.UnitOf(blk)
		for x := u.Block; x < u.Block+u.Blocks(); x++ {
			if sp.GranOfBlock(x) != u.Gran {
				return false
			}
		}
		return blk >= u.Block && blk < u.Block+u.Blocks()
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}
