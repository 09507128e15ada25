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

	// rep describes the last walk when a later walk of the same kind on the
	// same path may re-hit it (see Repeat).
	rep repeat
}

// repeat records a walk that a later walk of the same kind on the same path
// re-hits exactly, and the clocks of both caches right after it. Two walks
// qualify: a write walk that hit at every level it touched, and a read walk
// that hit at its first level without consulting the root registers. While
// neither clock has moved, the later walk touches the same lines in the same
// order, so each of those accesses hits again and changes nothing but the
// hit counts and the clocks (cache.Rehit).
type repeat struct {
	ok         bool
	write      bool
	path       path
	levels     int  // metadata-cache lines the walk touched
	subtreeHit bool // the walk ended at a root register
	clocks     [2]uint64
}

// path identifies the lines a walk touches: its start level, the counter
// line there (which fixes every line above it) and the subtree root it may
// stop at (0 without root registers). The root is not implied by the line
// when the walk starts at the subtree level.
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
// on-chip subtree root, or the tree root. Read never repeats a walk itself,
// but it records one that hit at its first level for Repeat.
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
	w.rep.ok = false
	if w.pruned(blockIdx) {
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
			// A hit at the first level repeats, unless the walk consulted the
			// root registers first: its repeat would hit the root it
			// installed.
			if level == startLevel && (!w.cfg.Subtree || level != w.cfg.SubtreeLevel) {
				w.rep = repeat{ok: true, path: w.pathOf(blockIdx, level), levels: 1, clocks: w.clocks()}
			}
			return walk // cached node is trusted; verification stops
		}
		walk.Fetches = append(walk.Fetches, addr)
	}
	return walk
}

// pruned reports whether a read of blockIdx skips verification: its chunk
// was never written (PruneUnused only).
func (w *Walker) pruned(blockIdx uint64) bool {
	return w.cfg.PruneUnused && !w.touched[blockIdx/meta.BlocksPerChunk]
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
// on an unchanged cache (see Repeat). Only a walk that hit everywhere is
// recorded. A walk that fetched filled lines (and may have evicted), and a
// walk that missed the subtree root and went on above it installed that
// root, so its repeat would stop at the root instead.
func (w *Walker) write(blockIdx uint64, startLevel int) Walk {
	if walk, ok := w.Repeat(blockIdx, startLevel, true, 1); ok {
		return walk
	}
	w.MarkTouched(blockIdx)
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
		write:      true,
		path:       w.pathOf(blockIdx, startLevel),
		levels:     walk.Levels,
		subtreeHit: walk.SubtreeHit,
		clocks:     w.clocks(),
	}
	return walk
}

// Repeat accounts for n more walks (reads, or writes when write is set) of
// blocks in blockIdx's chunk on blockIdx's path at level, such as the other
// units of its counter line, when it can prove that each would re-hit the
// last walk: that walk was recorded (see repeat), was of the same kind on
// the same path, and neither cache's clock has moved since. It then re-hits
// the walk's lines n times with one Rehit per cache (n repeats of a walk's
// accesses are n successive re-hits), and returns the outcome of each
// repeated walk, which fetches nothing. Otherwise, and for n < 1, it
// changes nothing and returns false; the caller walks for real.
func (w *Walker) Repeat(blockIdx uint64, level int, write bool, n int) (Walk, bool) {
	rp := &w.rep
	if n < 1 || !rp.ok || rp.write != write || rp.path != w.pathOf(blockIdx, level) || rp.clocks != w.clocks() {
		return Walk{}, false
	}
	if write {
		w.MarkTouched(blockIdx)
	} else if w.pruned(blockIdx) {
		// The path can span chunks, and this one was never written.
		return Walk{}, false
	}
	w.meta.Rehit(n * rp.levels)
	if rp.subtreeHit {
		w.rootCache.Rehit(n)
	}
	rp.clocks = w.clocks()
	return Walk{Fetches: w.buf[:0], Levels: rp.levels, SubtreeHit: rp.subtreeHit}, true
}

// pathOf returns the path of a walk of blockIdx from level.
func (w *Walker) pathOf(blockIdx uint64, level int) path {
	p := path{level: level, line: blockIdx >> (3 * uint(level+1))}
	if w.rootCache != nil {
		p.subtree = w.subtreeID(blockIdx)
	}
	return p
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
