// Package tree implements the timing-side integrity-tree walker: given a
// block and the tree level its version counter lives at (level 0 for fine
// blocks, higher for promoted units — paper Fig. 10), it decides which
// counter lines must come from memory and which are already trusted
// on-chip, through the shared security-metadata cache.
//
// It also implements the two subtree optimizations the paper composes with
// (section 2.4, Fig. 3): Bonsai-Merkle-Forest-style caching of hot subtree
// roots in on-chip registers, and PENGLAI-style pruning of never-written
// (unused) regions.
package tree

import (
	"unimem/internal/cache"
	"unimem/internal/meta"
)

// Config describes one walker.
type Config struct {
	// Subtree enables BMF-style hot subtree-root caching.
	Subtree bool
	// SubtreeLevel is the tree level whose nodes the root registers hold;
	// level 3 nodes each cover one 32KB chunk.
	SubtreeLevel int
	// SubtreeEntries is the number of on-chip subtree-root registers
	// (positive when Subtree is set).
	SubtreeEntries int
	// PruneUnused skips verification for chunks never written since boot
	// (PENGLAI mountable trees).
	PruneUnused bool
}

// DefaultSubtree returns the subtree configuration used by the BMF&Unused
// schemes: 64 root registers at the 32KB level.
func DefaultSubtree() Config {
	return Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 64, PruneUnused: true}
}

// Walk is the outcome of one traversal.
type Walk struct {
	// Fetches lists counter-line addresses that must be read from memory,
	// in ascending level order. Read walks serialize them (each level
	// authenticates the one below); write walks only consume bandwidth.
	Fetches []uint64
	// Writebacks counts dirty lines evicted from the metadata cache by
	// this walk's fills; the caller charges them as memory writes.
	Writebacks int
	// Levels is the number of tree levels the walk touched.
	Levels int
	// Pruned reports the walk was skipped entirely (unused region).
	Pruned bool
	// SubtreeHit reports the walk ended at an on-chip subtree root.
	SubtreeHit bool
}

// Walker traverses the counter tree through a metadata cache.
type Walker struct {
	geom *meta.Geometry
	meta *cache.Cache
	cfg  Config

	rootCache *cache.Cache    // subtree root registers, modelled as 1-way-per-entry LRU
	touched   map[uint64]bool // chunks written since boot (kept under PruneUnused only)
	buf       []uint64        // reused Fetches backing store (see Read/Write)

	// rep describes the last write walk when a write walk on the same path
	// may re-hit it (see write).
	rep repeat
}

// repeat records a write walk that hit at every level it touched, and the
// clocks of both caches right after it. A later write walk on the same path
// touches the same lines in the same order; while neither clock has moved,
// each of those accesses hits again and changes nothing but the hit counts
// and the clocks (cache.Rehit).
type repeat struct {
	ok         bool
	path       path
	levels     int  // metadata-cache lines the walk touched
	subtreeHit bool // the walk ended at a root register
	clocks     [2]uint64
}

// path identifies the lines a write walk touches: its start level, the
// counter line there (which fixes every line above it) and the subtree root
// it may stop at (0 without root registers). The root is not implied by the
// line when the walk starts at the subtree level.
type path struct {
	level         int
	line, subtree uint64
}

// New builds a walker over a geometry and a shared metadata cache.
func New(geom *meta.Geometry, metaCache *cache.Cache, cfg Config) *Walker {
	w := &Walker{geom: geom, meta: metaCache, cfg: cfg}
	if cfg.PruneUnused {
		w.touched = map[uint64]bool{}
	}
	if cfg.Subtree {
		// Fully associative register file keyed by subtree id.
		w.rootCache = cache.New(cache.Config{
			SizeBytes: cfg.SubtreeEntries * 64,
			LineBytes: 64,
			Ways:      cfg.SubtreeEntries,
		})
	}
	return w
}

func (w *Walker) subtreeID(blockIdx uint64) uint64 {
	//mutate:ignore unit-swap the root cache has a single set, so any injective per-subtree multiplier yields identical hit/miss behavior; the scale constant is cosmetic
	return blockIdx >> (3 * uint(w.cfg.SubtreeLevel)) * meta.BlockSize // one pseudo-line per subtree
}

// MarkTouched records that the chunk holding blockIdx now has live tree
// state (called on writes). Only PruneUnused reads the record, so other
// walkers keep none.
func (w *Walker) MarkTouched(blockIdx uint64) {
	if w.touched != nil {
		w.touched[blockIdx/meta.BlocksPerChunk] = true
	}
}

// Read walks the tree for a read of a unit whose counter lives at
// startLevel, ascending until a trusted point: a metadata-cache hit, an
// on-chip subtree root, or the tree root.
//
// The returned Walk's Fetches slice is backed by walker-owned scratch and
// is valid only until the walker's next Read or Write; callers consume it
// before walking again (the engine does), keeping the hot path free of
// per-walk allocations.
func (w *Walker) Read(blockIdx uint64, startLevel int) Walk {
	walk := w.read(blockIdx, startLevel)
	w.buf = walk.Fetches
	return walk
}

func (w *Walker) read(blockIdx uint64, startLevel int) Walk {
	walk := Walk{Fetches: w.buf[:0]}
	if w.cfg.PruneUnused && !w.touched[blockIdx/meta.BlocksPerChunk] {
		walk.Pruned = true
		return walk
	}
	for level := startLevel; level < w.geom.Levels(); level++ {
		if w.subtreeStop(blockIdx, level, &walk) {
			return walk
		}
		walk.Levels++
		addr := w.geom.CounterLineAddr(level, blockIdx)
		hit, wb := w.meta.Access(addr, false)
		if wb {
			walk.Writebacks++
		}
		if hit {
			return walk // cached node is trusted; verification stops
		}
		walk.Fetches = append(walk.Fetches, addr)
	}
	return walk
}

// Write walks the tree for a dirty-eviction write: every level from the
// unit's counter up to the root (or a trusted on-chip subtree root) is
// updated (paper Fig. 14). Cached levels update in place; missing levels
// are fetched (read traffic) and dirtied. Fetches aliases walker scratch
// exactly as for Read.
func (w *Walker) Write(blockIdx uint64, startLevel int) Walk {
	walk := w.write(blockIdx, startLevel)
	w.buf = walk.Fetches
	return walk
}

// write walks every level, unless the walk repeats the previous write walk
// on an unchanged cache (see repeat): then it re-hits that walk's lines in
// one step. Only a walk that hit everywhere is recorded. A walk that
// fetched filled lines (and may have evicted), and a walk that missed the
// subtree root and went on above it installed that root, so its repeat
// would stop at the root instead.
func (w *Walker) write(blockIdx uint64, startLevel int) Walk {
	w.MarkTouched(blockIdx)
	p := path{level: startLevel, line: blockIdx >> (3 * uint(startLevel+1))}
	if w.rootCache != nil {
		p.subtree = w.subtreeID(blockIdx)
	}
	if rp := &w.rep; rp.ok && rp.path == p && rp.clocks == w.clocks() {
		w.meta.Rehit(rp.levels)
		if rp.subtreeHit {
			w.rootCache.Rehit(1)
		}
		rp.clocks = w.clocks()
		return Walk{Fetches: w.buf[:0], Levels: rp.levels, SubtreeHit: rp.subtreeHit}
	}

	walk := Walk{Fetches: w.buf[:0]}
	rootMissed := false
	for level := startLevel; level < w.geom.Levels(); level++ {
		if w.subtreeStop(blockIdx, level, &walk) {
			break
		}
		if w.cfg.Subtree && level == w.cfg.SubtreeLevel {
			rootMissed = true
		}
		walk.Levels++
		addr := w.geom.CounterLineAddr(level, blockIdx)
		hit, wb := w.meta.Access(addr, true)
		if wb {
			walk.Writebacks++
		}
		if !hit {
			walk.Fetches = append(walk.Fetches, addr)
		}
	}
	w.rep = repeat{
		ok:         len(walk.Fetches) == 0 && !rootMissed,
		path:       p,
		levels:     walk.Levels,
		subtreeHit: walk.SubtreeHit,
		clocks:     w.clocks(),
	}
	return walk
}

// clocks reads the metadata cache's and the root registers' clocks.
func (w *Walker) clocks() [2]uint64 {
	c := [2]uint64{w.meta.Clock()}
	if w.rootCache != nil {
		c[1] = w.rootCache.Clock()
	}
	return c
}

// subtreeStop consults the root registers when the walk reaches the
// subtree level; a hit terminates the walk at an on-chip trusted root, a
// miss installs the root (hotness-by-LRU) and lets the walk continue.
func (w *Walker) subtreeStop(blockIdx uint64, level int, walk *Walk) bool {
	if !w.cfg.Subtree || level != w.cfg.SubtreeLevel {
		return false
	}
	hit, _ := w.rootCache.Access(w.subtreeID(blockIdx), false)
	if hit {
		walk.SubtreeHit = true
	}
	return hit
}
