package tree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"unimem/internal/cache"
	"unimem/internal/meta"
)

func newWalker(cfg Config) (*Walker, *cache.Cache) {
	geom := meta.NewGeometry(1 << 20) // 4 stored levels
	mc := cache.New(cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 8})
	return New(geom, mc, cfg), mc
}

func TestColdReadWalksAllLevels(t *testing.T) {
	w, _ := newWalker(Config{})
	const blk = 12345
	walk := w.Read(blk, 0)
	if walk.Levels != 4 || len(walk.Fetches) != 4 {
		t.Fatalf("walk = %+v, want 4 levels / 4 fetches", walk)
	}
	// The fetches are the block's counter line at each level, bottom up
	// (FuzzGeometryEqs shows those lie in the counter region and ascend).
	for level, a := range walk.Fetches {
		if want := w.geom.CounterLineAddr(level, blk); a != want {
			t.Fatalf("level %d fetched %#x, want %#x", level, a, want)
		}
	}
	if walk.Pruned || walk.SubtreeHit {
		t.Fatalf("unexpected flags: %+v", walk)
	}
}

func TestWarmReadStopsAtCacheHit(t *testing.T) {
	w, _ := newWalker(Config{})
	w.Read(0, 0)
	walk := w.Read(0, 0)
	if walk.Levels != 1 || len(walk.Fetches) != 0 {
		t.Fatalf("warm walk = %+v, want 1 level / 0 fetches", walk)
	}
}

func TestPromotedStartLevelShortensWalk(t *testing.T) {
	w, _ := newWalker(Config{})
	walk := w.Read(0, 3) // 32KB-promoted unit
	if walk.Levels != 1 || len(walk.Fetches) != 1 {
		t.Fatalf("promoted walk = %+v, want 1 level", walk)
	}
}

func TestSiblingSharesUpperLevels(t *testing.T) {
	w, _ := newWalker(Config{})
	w.Read(0, 0)
	// Block 8 is in the next leaf line but shares all upper levels.
	walk := w.Read(8, 0)
	if walk.Levels != 2 || len(walk.Fetches) != 1 {
		t.Fatalf("sibling walk = %+v, want 2 levels / 1 fetch", walk)
	}
}

func TestWriteWalksToRoot(t *testing.T) {
	w, _ := newWalker(Config{})
	walk := w.Write(0, 0)
	if walk.Levels != 4 || len(walk.Fetches) != 4 {
		t.Fatalf("cold write walk = %+v", walk)
	}
	// Second write: everything cached, still touches all levels but no
	// fetches (Fig. 14: writes extend to root).
	walk = w.Write(0, 0)
	if walk.Levels != 4 || len(walk.Fetches) != 0 {
		t.Fatalf("warm write walk = %+v, want 4 levels / 0 fetches", walk)
	}
}

func TestPruneUnusedSkipsReads(t *testing.T) {
	w, _ := newWalker(Config{PruneUnused: true})
	walk := w.Read(0, 0)
	if !walk.Pruned || walk.Levels != 0 || len(walk.Fetches) != 0 {
		t.Fatalf("unused read = %+v, want pruned", walk)
	}
	// A write instantiates the chunk's tree...
	w.Write(0, 0)
	walk = w.Read(0, 0)
	if walk.Pruned {
		t.Fatal("read after write still pruned")
	}
	// ...but other chunks stay pruned.
	walk = w.Read(meta.BlocksPerChunk*3, 0)
	if !walk.Pruned {
		t.Fatal("untouched chunk not pruned")
	}
}

func TestSubtreeRootHitStopsWalk(t *testing.T) {
	w, mc := newWalker(Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 4})
	w.Read(0, 0) // installs the subtree root register for chunk 0
	mc.Reset()   // force metadata misses so only the register can stop us
	walk := w.Read(1, 0)
	if !walk.SubtreeHit {
		t.Fatalf("walk = %+v, want subtree hit", walk)
	}
	if walk.Levels != 3 { // levels 0,1,2 walked; stopped at level 3
		t.Fatalf("levels = %d, want 3", walk.Levels)
	}
}

func TestSubtreeRootLRUCapacity(t *testing.T) {
	w, mc := newWalker(Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 2})
	// Touch chunks 0,1,2: chunk 0's register is evicted.
	for c := uint64(0); c < 3; c++ {
		w.Read(c*meta.BlocksPerChunk, 0)
	}
	mc.Reset()
	walk := w.Read(0, 0)
	if walk.SubtreeHit {
		t.Fatal("evicted subtree root still hit")
	}
	if walk2 := w.Read(2*meta.BlocksPerChunk, 0); !walk2.SubtreeHit {
		t.Fatal("hot subtree root missing")
	}
}

func TestSubtreeDisabledForPromotedAboveRootLevel(t *testing.T) {
	// A 32KB-promoted walk starts at level 3 == subtree level: a cached
	// root satisfies it immediately.
	w, mc := newWalker(Config{Subtree: true, SubtreeLevel: 3, SubtreeEntries: 4})
	w.Read(0, 3)
	mc.Reset()
	walk := w.Read(0, 3)
	if !walk.SubtreeHit || walk.Levels != 0 {
		t.Fatalf("walk = %+v, want immediate subtree hit", walk)
	}
}

func TestWritebackPropagation(t *testing.T) {
	// A tiny metadata cache forces dirty evictions.
	geom := meta.NewGeometry(1 << 20)
	mc := cache.New(cache.Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	w := New(geom, mc, Config{})
	w.Write(0, 0)
	total := 0
	for blk := uint64(0); blk < 64*8; blk += 8 {
		walk := w.Write(blk, 0)
		total += walk.Writebacks
	}
	if total == 0 {
		t.Fatal("no writebacks despite thrashing a dirty 2-line cache")
	}
}

func TestDefaultSubtreeConfig(t *testing.T) {
	cfg := DefaultSubtree()
	if !cfg.Subtree || !cfg.PruneUnused || cfg.SubtreeLevel != 3 || cfg.SubtreeEntries != 64 {
		t.Fatalf("default subtree config = %+v", cfg)
	}
}

// refWalker is the walker before write walks could re-hit: every walk
// probes every level. It is the exactness reference for Walker.
type refWalker struct {
	geom      *meta.Geometry
	meta      *cache.Cache
	rootCache *cache.Cache
	cfg       Config
	touched   map[uint64]bool
}

func newRef(geom *meta.Geometry, mc *cache.Cache, cfg Config) *refWalker {
	w := &refWalker{geom: geom, meta: mc, cfg: cfg, touched: map[uint64]bool{}}
	if cfg.Subtree {
		w.rootCache = cache.New(cache.Config{SizeBytes: cfg.SubtreeEntries * 64, LineBytes: 64, Ways: cfg.SubtreeEntries})
	}
	return w
}

func (w *refWalker) markTouched(blockIdx uint64) { w.touched[blockIdx/meta.BlocksPerChunk] = true }

func (w *refWalker) subtreeStop(blockIdx uint64, level int, walk *Walk) bool {
	if !w.cfg.Subtree || level != w.cfg.SubtreeLevel {
		return false
	}
	hit, _ := w.rootCache.Access(blockIdx>>(3*uint(w.cfg.SubtreeLevel))*meta.BlockSize, false)
	if hit {
		walk.SubtreeHit = true
	}
	return hit
}

func (w *refWalker) read(blockIdx uint64, startLevel int) Walk {
	var walk Walk
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
			return walk
		}
		walk.Fetches = append(walk.Fetches, addr)
	}
	return walk
}

func (w *refWalker) write(blockIdx uint64, startLevel int) Walk {
	var walk Walk
	w.markTouched(blockIdx)
	for level := startLevel; level < w.geom.Levels(); level++ {
		if w.subtreeStop(blockIdx, level, &walk) {
			return walk
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
	return walk
}

// A seeded random mix of reads, multi-unit writes (the engine's per-unit
// write walks, where repeats happen), MarkTouched calls and foreign
// Access, Invalidate and Reset calls on the metadata cache and the root
// registers gives the same Walk and the same Stats of both caches as the
// reference after every step. It covers start levels 0-3, the plain and
// the BMF&Unused configurations, and 2-way and 8-way metadata caches; an
// 8MB region has 256 chunks, so 64 root registers thrash.
func TestWalkerMatchesReference(t *testing.T) {
	geom := meta.NewGeometry(8 << 20) // 5 stored levels
	for _, cfg := range []Config{{}, DefaultSubtree()} {
		for _, ways := range []int{2, 8} {
			t.Run(fmt.Sprintf("subtree=%v/ways=%d", cfg.Subtree, ways), func(t *testing.T) {
				cc := cache.Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: ways}
				w := New(geom, cache.New(cc), cfg)
				ref := newRef(geom, cache.New(cc), cfg)
				rng := rand.New(rand.NewSource(int64(ways)))
				hot := uint64(0)
				var lines []uint64 // recent counter lines, for foreign calls
				check := func(step int, what string, got, want Walk) {
					t.Helper()
					if got.Levels != want.Levels || got.Writebacks != want.Writebacks || got.Pruned != want.Pruned ||
						got.SubtreeHit != want.SubtreeHit || !slices.Equal(got.Fetches, want.Fetches) {
						t.Fatalf("step %d %s: walk %+v, reference %+v", step, what, got, want)
					}
					if w.meta.Stats != ref.meta.Stats {
						t.Fatalf("step %d %s: metadata cache %+v, reference %+v", step, what, w.meta.Stats, ref.meta.Stats)
					}
					if cfg.Subtree && w.rootCache.Stats != ref.rootCache.Stats {
						t.Fatalf("step %d %s: root registers %+v, reference %+v", step, what, w.rootCache.Stats, ref.rootCache.Stats)
					}
				}
				for step := 0; step < 20000; step++ {
					if rng.Intn(16) == 0 {
						hot = uint64(rng.Int63n(int64(geom.Blocks())))
					}
					level := rng.Intn(4)
					stride := uint64(1) << (3 * uint(level))
					base := (hot + uint64(rng.Intn(4096))) &^ (stride - 1) % geom.Blocks()
					switch op := rng.Intn(20); {
					case op < 9: // one request's units, each walked in turn
						for u := uint64(0); u < uint64(1+rng.Intn(8)); u++ {
							b := (base + u*stride) % geom.Blocks()
							check(step, fmt.Sprintf("Write(%d, %d)", b, level), w.Write(b, level), ref.write(b, level))
							lines = append(lines, geom.CounterLineAddr(level, b))
						}
					case op < 14:
						check(step, fmt.Sprintf("Read(%d, %d)", base, level), w.Read(base, level), ref.read(base, level))
					case op < 15:
						w.MarkTouched(base)
						ref.markTouched(base)
					default:
						// A foreign call on one of the caches, on a recently
						// walked line or a random address.
						addr := uint64(rng.Int63n(1 << 30))
						if len(lines) > 0 && rng.Intn(2) == 0 {
							addr = lines[len(lines)-1-rng.Intn(min(len(lines), 16))]
						}
						caches := [][2]*cache.Cache{{w.meta, ref.meta}}
						if cfg.Subtree {
							caches = append(caches, [2]*cache.Cache{w.rootCache, ref.rootCache})
						}
						for _, c := range caches[rng.Intn(len(caches))] {
							switch op {
							case 15, 16:
								c.Access(addr, op == 16)
							case 17, 18:
								c.Invalidate(addr)
							default:
								c.Reset()
							}
						}
					}
					if len(lines) > 64 {
						lines = lines[len(lines)-16:]
					}
				}
			})
		}
	}
}

// The repeat fires on a write walk that follows a same-path write walk on
// unchanged caches, and on nothing else. A fired repeat reports the
// recorded walk, so the test tampers with the record's level count: only a
// fired repeat returns the tampered count.
func TestWriteRepeatFiresOnlyOnUnchangedPath(t *testing.T) {
	const tampered = 99
	type walkAt struct {
		block uint64
		level int
	}
	for _, tc := range []struct {
		name          string
		cfg           Config
		first, second walkAt
		// cold skips walking both paths before the recorded walk, so the
		// recorded walk fetches; rootReset empties the root registers
		// after that warm-up, so the recorded walk misses its root.
		cold, rootReset bool
		between         func(w *Walker, mc *cache.Cache) // after the recorded walk
		fires           bool
	}{
		{name: "same line", first: walkAt{0, 0}, second: walkAt{1, 0}, fires: true},
		{name: "same 512B line", first: walkAt{64, 1}, second: walkAt{72, 1}, fires: true},
		{name: "next line", first: walkAt{0, 0}, second: walkAt{8, 0}},
		{name: "other level", first: walkAt{0, 0}, second: walkAt{0, 1}},
		{name: "metadata reset", first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(_ *Walker, mc *cache.Cache) { mc.Reset() }},
		{name: "foreign access", first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(_ *Walker, mc *cache.Cache) { mc.Access(1<<30, false) }},
		{name: "absent invalidate", first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(_ *Walker, mc *cache.Cache) { mc.Invalidate(1 << 30) }},
		{name: "read walk", first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(w *Walker, _ *cache.Cache) { w.Read(0, 0) }},
		{name: "first walk fetched", first: walkAt{0, 0}, second: walkAt{0, 0}, cold: true},
		{name: "root hit", cfg: DefaultSubtree(), first: walkAt{0, 0}, second: walkAt{1, 0}, fires: true},
		{name: "root hit at the root level", cfg: DefaultSubtree(), first: walkAt{0, 3}, second: walkAt{1, 3}, fires: true},
		{name: "other root at the root level", cfg: DefaultSubtree(), first: walkAt{0, 3}, second: walkAt{meta.BlocksPerChunk, 3}},
		{name: "root reset", cfg: DefaultSubtree(), first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(w *Walker, _ *cache.Cache) { w.rootCache.Reset() }},
		{name: "root missed", cfg: DefaultSubtree(), first: walkAt{0, 0}, second: walkAt{0, 0}, rootReset: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, mc := newWalker(tc.cfg)
			if !tc.cold {
				w.Write(tc.first.block, tc.first.level)
				w.Write(tc.second.block, tc.second.level)
			}
			if tc.rootReset {
				w.rootCache.Reset()
			}
			w.Write(tc.first.block, tc.first.level)
			w.rep.levels = tampered
			if tc.between != nil {
				tc.between(w, mc)
			}
			got := w.Write(tc.second.block, tc.second.level)
			if fired := got.Levels == tampered; fired != tc.fires {
				t.Fatalf("repeat fired = %v, want %v (walk %+v)", fired, tc.fires, got)
			}
		})
	}
}
