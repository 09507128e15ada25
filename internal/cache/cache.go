// Package cache implements the set-associative on-chip caches used across
// the simulator: the 8KB security-metadata cache and 4KB MAC cache of the
// memory-protection engine (paper section 5.1), the granularity-table
// cache, the engine's open-unit buffer, and the tree walker's subtree root
// registers.
//
// The cache is a timing/occupancy model: it tracks tags, dirty bits and LRU
// state, not payload bytes. The functional protection layer (internal/secmem)
// holds real bytes; it shares geometry with this model through internal/meta.
package cache

import "math/bits"

// Line addresses handed to the cache are byte addresses; the cache aligns
// them to its line size internally.

// Config describes one cache.
type Config struct {
	// SizeBytes is total capacity.
	SizeBytes int
	// LineBytes is the line size (64 for every cache in the paper); a power
	// of two.
	LineBytes int
	// Ways is the associativity. SizeBytes/LineBytes/Ways, the set count,
	// must be a power of two.
	Ways int
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// Cache is a set-associative write-back cache model with LRU replacement.
//
// The ways of a set sit side by side in three parallel arrays, so a probe
// scans one set's tags contiguously (an 8-way set of 8B tags is one 64B
// host cacheline) and touches the LRU stamps and dirty bits only on a hit
// or a fill.
type Cache struct {
	ways      int
	lineShift uint     // log2(LineBytes)
	setShift  uint     // log2(sets)
	setMask   uint64   // sets-1
	tags      []uint64 // tag+1 per way, row-major by set; 0 marks an invalid way
	lru       []uint64 // last-use stamp per way; larger = more recent
	dirty     []bool
	// tick is the cache's clock and the source of the LRU stamps. Every
	// state change advances it (Access, Invalidate, Reset, Rehit), and it is
	// never rewound, so a caller that reads the same Clock twice knows
	// nothing changed the cache in between.
	tick uint64
	// Stats is the running event account.
	Stats Stats
}

// New builds a cache. It panics on a non-positive or inconsistent geometry,
// and on a line size or set count that is not a power of two, because
// configuration is always programmer-supplied.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic("cache: non-positive geometry")
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	if nLines == 0 || nLines%cfg.Ways != 0 {
		panic("cache: size/line/ways inconsistent")
	}
	sets := nLines / cfg.Ways
	if !pow2(cfg.LineBytes) || !pow2(sets) {
		panic("cache: line size and set count must be powers of two")
	}
	return &Cache{
		ways:      cfg.Ways,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, nLines),
		lru:       make([]uint64, nLines),
		dirty:     make([]bool, nLines),
	}
}

func pow2(n int) bool { return n&(n-1) == 0 }

// index returns the first way of addr's set and the stored form of its tag
// (tag+1, never 0).
func (c *Cache) index(addr uint64) (base int, key uint64) {
	blk := addr >> c.lineShift
	return int(blk&c.setMask) * c.ways, blk>>c.setShift + 1
}

// Access probes the cache and fills on miss. It returns whether the probe
// hit, and whether the fill evicted a dirty line (a writeback the caller
// must charge to memory). dirty marks the accessed line dirty (a store).
// The victim is the set's first invalid way, otherwise its least recently
// used one.
func (c *Cache) Access(addr uint64, dirty bool) (hit, writeback bool) {
	base, key := c.index(addr)
	c.tick++
	tags := c.tags[base : base+c.ways]
	victim := -1
	for i, t := range tags {
		if t == key {
			c.lru[base+i] = c.tick
			if dirty {
				c.dirty[base+i] = true
			}
			c.Stats.Hits++
			return true, false
		}
		if t == 0 && victim < 0 {
			victim = i
		}
	}
	c.Stats.Misses++
	if victim < 0 {
		lru := c.lru[base : base+c.ways]
		victim = 0
		oldest := lru[0]
		for i, s := range lru {
			if s < oldest {
				victim, oldest = i, s
			}
		}
		c.Stats.Evictions++
		if c.dirty[base+victim] {
			c.Stats.Writebacks++
			writeback = true
		}
	}
	v := base + victim
	c.tags[v], c.lru[v], c.dirty[v] = key, c.tick, dirty
	return false, writeback
}

// Invalidate drops a line if present, returning whether it was dirty.
// Used when granularity switching relocates metadata, which changes the
// addresses metadata lives at.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	base, key := c.index(addr)
	c.tick++
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			v := base + i
			d := c.dirty[v]
			c.tags[v], c.lru[v], c.dirty[v] = 0, 0, false
			return true, d
		}
	}
	return false, false
}

// Reset clears all lines and statistics. The clock keeps running.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	clear(c.dirty)
	c.tick++
	c.Stats = Stats{}
}

// Clock returns the cache's clock. Every Access, Invalidate and Reset
// advances it, and so does a Rehit of n > 0 accesses; it never repeats a
// value.
func (c *Cache) Clock() uint64 { return c.tick }

// Rehit accounts for n accesses that repeat, in the same order, the n
// accesses that produced the last n state changes of the cache, all of
// which hit. The caller must know that: it read Clock right after those
// accesses, and reads the same Clock now. Under that precondition the
// repeat hits every line again, leaves the dirty bits (a hit only sets
// them) and the relative LRU order of all lines as they are (the repeated
// lines were already the most recent, in that order), so only the hit
// count and the clock move.
func (c *Cache) Rehit(n int) {
	c.tick += uint64(n)
	c.Stats.Hits += uint64(n)
}
