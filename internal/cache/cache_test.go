package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 8 lines of 64B, 2-way: 4 sets.
	return New(Config{SizeBytes: 512, LineBytes: 64, Ways: 2})
}

func TestGeometry(t *testing.T) {
	c := small()
	// Consecutive lines fill consecutive sets; the fifth wraps to set 0
	// with the next tag, and bytes inside a line share its set and tag.
	for i, want := range []struct {
		addr uint64
		base int
		key  uint64
	}{{0, 0, 1}, {64, 2, 1}, {128, 4, 1}, {192, 6, 1}, {256, 0, 2}, {0x13f, 0, 2}, {0x1000, 0, 17}} {
		base, key := c.index(want.addr)
		if base != want.base || key != want.key {
			t.Errorf("case %d: index(%#x) = (%d, %d), want (%d, %d)", i, want.addr, base, key, want.base, want.key)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 512, LineBytes: 0, Ways: 1},
		{SizeBytes: 512, LineBytes: 64, Ways: 3}, // 8 lines % 3 != 0
		{SizeBytes: 384, LineBytes: 64, Ways: 2}, // 3 sets
		{SizeBytes: 768, LineBytes: 96, Ways: 2}, // 96B lines
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("first access hit")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access missed")
	}
	// Same line, different byte offset.
	if hit, _ := c.Access(0x103f, false); !hit {
		t.Fatal("same-line offset access missed")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits 1 miss", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to set 0 (set stride = 4 lines * 64B = 256B).
	a, b, d := uint64(0), uint64(4*64), uint64(8*64)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent; b is LRU
	c.Access(d, false) // evicts b
	if hit, _ := c.Access(a, false); !hit {
		t.Fatal("a was evicted but should have been MRU")
	}
	if hit, _ := c.Access(b, false); hit {
		t.Fatal("b should have been evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, true) // dirty
	c.Access(b, false)
	_, wb := c.Access(d, false) // evicts dirty a
	if !wb {
		t.Fatal("eviction of dirty line did not report writeback")
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestHitUpgradesToDirty(t *testing.T) {
	c := small()
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false)
	c.Access(a, true) // store hit marks dirty
	c.Access(b, false)
	c.Access(b, false) // a is LRU now
	if _, wb := c.Access(d, false); !wb {
		t.Fatal("store-hit did not mark line dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Access(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if hit, _ := c.Access(0x40, false); hit {
		t.Fatal("line survived invalidation")
	}
	if p, _ := c.Invalidate(0x9999999); p {
		t.Fatal("invalidate of absent line reported present")
	}
}

func TestReset(t *testing.T) {
	c := small()
	c.Access(0x40, true)
	c.Reset()
	if c.Stats.Hits != 0 || c.Stats.Misses != 0 {
		t.Fatalf("stats not cleared: %+v", c.Stats)
	}
	if hit, _ := c.Access(0x40, false); hit {
		t.Fatal("line survived reset")
	}
}

// Property: working sets no larger than one set's associativity never
// conflict-miss after the first touch.
func TestNoThrashWithinAssociativityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		c := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
		// 4 lines all in the same set (set stride = 16 lines).
		addrs := make([]uint64, 4)
		for i := range addrs {
			addrs[i] = uint64(seed)%7*64 + uint64(i)*16*64 // same set index
		}
		for _, a := range addrs {
			c.Access(a, false)
		}
		for round := 0; round < 8; round++ {
			for _, a := range addrs {
				if hit, _ := c.Access(a, false); !hit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: hits+misses equals number of Access calls, and evictions never
// exceed misses.
func TestStatsConservationProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := small()
		for _, a := range addrs {
			c.Access(uint64(a)*64, a%3 == 0)
		}
		s := c.Stats
		return s.Hits+s.Misses == uint64(len(addrs)) && s.Evictions <= s.Misses && s.Writebacks <= s.Evictions
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// refCache is the array-of-structs cache the flat per-set arrays replaced,
// kept as the exactness reference: one struct per way, the set found by
// division, the victim the first invalid way, otherwise the least recently
// used one.
type refCache struct {
	ways, sets int
	lineBytes  uint64
	lines      []refLine
	tick       uint64
	stats      Stats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRef(cfg Config) *refCache {
	n := cfg.SizeBytes / cfg.LineBytes
	return &refCache{ways: cfg.Ways, sets: n / cfg.Ways, lineBytes: uint64(cfg.LineBytes), lines: make([]refLine, n)}
}

func (c *refCache) index(addr uint64) (int, uint64) {
	blk := addr / c.lineBytes
	return int(blk % uint64(c.sets)), blk / uint64(c.sets)
}

func (c *refCache) access(addr uint64, dirty bool) (hit, writeback bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	c.tick++
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			if dirty {
				l.dirty = true
			}
			c.stats.Hits++
			return true, false
		}
		if !l.valid {
			if victimLRU != 0 {
				victim = i
				victimLRU = 0
			}
		} else if l.lru < victimLRU {
			victim = i
			victimLRU = l.lru
		}
	}
	c.stats.Misses++
	l := &c.lines[base+victim]
	if l.valid {
		c.stats.Evictions++
		if l.dirty {
			c.stats.Writebacks++
			writeback = true
		}
	}
	*l = refLine{tag: tag, valid: true, dirty: dirty, lru: c.tick}
	return false, writeback
}

func (c *refCache) invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			d := l.dirty
			*l = refLine{}
			return true, d
		}
	}
	return false, false
}

// Random Access/Invalidate sequences on 1-, 4- and 64-set geometries give
// the same hit, writeback and presence answers and the same Stats as the
// reference after every call. Addresses come from a pool a few times the
// capacity, so sets fill, evict dirty lines and refill invalidated ways.
func TestMatchesArrayOfStructsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{
		{SizeBytes: 16 * 64, LineBytes: 64, Ways: 16}, // 1 set, the open-unit buffer's shape
		{SizeBytes: 512, LineBytes: 64, Ways: 2},      // 4 sets
		{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8}, // 64 sets, the GT cache's shape
		{SizeBytes: 8 << 10, LineBytes: 128, Ways: 1}, // 64 sets, direct-mapped, 128B lines
	} {
		c, ref := New(cfg), newRef(cfg)
		pool := 3 * cfg.SizeBytes / cfg.LineBytes
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(pool))*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
			if rng.Intn(8) == 0 {
				p, d := c.Invalidate(addr)
				rp, rd := ref.invalidate(addr)
				if p != rp || d != rd {
					t.Fatalf("%+v call %d: Invalidate(%#x) = (%v, %v), reference (%v, %v)", cfg, i, addr, p, d, rp, rd)
				}
			} else {
				dirty := rng.Intn(3) == 0
				h, wb := c.Access(addr, dirty)
				rh, rwb := ref.access(addr, dirty)
				if h != rh || wb != rwb {
					t.Fatalf("%+v call %d: Access(%#x, %v) = (%v, %v), reference (%v, %v)", cfg, i, addr, dirty, h, wb, rh, rwb)
				}
			}
			if c.Stats != ref.stats {
				t.Fatalf("%+v call %d: stats %+v, reference %+v", cfg, i, c.Stats, ref.stats)
			}
		}
	}
}

// The clock moves on every state change and never repeats, Reset included,
// so equal readings mean nothing changed in between.
func TestClockAdvancesOnEveryChange(t *testing.T) {
	c := small()
	seen := map[uint64]bool{c.Clock(): true}
	for i, change := range []func(){
		func() { c.Access(0x40, false) }, // miss
		func() { c.Access(0x40, true) },  // hit
		func() { c.Invalidate(0x40) },    // present
		func() { c.Invalidate(0x40) },    // absent
		func() { c.Reset() },
		func() { c.Rehit(1) },
		func() { c.Access(0x40, false) },
	} {
		change()
		if seen[c.Clock()] {
			t.Fatalf("change %d left the clock at a value it had before: %d", i, c.Clock())
		}
		seen[c.Clock()] = true
	}
}

// A Rehit that repeats the last accesses leaves the cache in the state the
// repeated accesses would: the same later hits, victims and writebacks,
// and the same Stats.
func TestRehitMatchesRepeatedAccesses(t *testing.T) {
	same := []uint64{0, 256, 64} // sets 0, 0 and 1 of the 4-set 2-way cache
	run := func(rehit bool) (Stats, []bool) {
		c := small()
		c.Access(768, true) // an older dirty line in set 0
		c.Access(128, false)
		for _, a := range same {
			c.Access(a, true)
		}
		for _, a := range same {
			if h, _ := c.Access(a, true); !h {
				t.Fatalf("setup access %#x missed", a)
			}
		}
		if rehit {
			c.Rehit(len(same))
		} else {
			for _, a := range same {
				c.Access(a, true)
			}
		}
		var out []bool
		for _, a := range []uint64{1024, 0, 256, 512, 64, 128} {
			h, wb := c.Access(a, false)
			out = append(out, h, wb)
		}
		return c.Stats, out
	}
	s1, o1 := run(false)
	s2, o2 := run(true)
	if s1 != s2 {
		t.Fatalf("stats after Rehit %+v, after repeated accesses %+v", s2, s1)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("later access results after Rehit %v, after repeated accesses %v", o2, o1)
		}
	}
}
