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

// cacheState is what a declined Repeat must leave as it was: both caches'
// Stats and clocks.
type cacheState struct {
	meta, root           cache.Stats
	metaClock, rootClock uint64
}

func stateOf(w *Walker) cacheState {
	s := cacheState{meta: w.meta.Stats, metaClock: w.meta.Clock()}
	if w.rootCache != nil {
		s.root, s.rootClock = w.rootCache.Stats, w.rootCache.Clock()
	}
	return s
}

// A seeded random mix of multi-unit reads and writes (the engine's per-unit
// walks), Repeat calls, MarkTouched calls and foreign Access, Invalidate and
// Reset calls on the metadata cache and the root registers gives the same
// Walk and the same Stats of both caches as the reference after every step.
// After a unit's walk, the request's next units on its counter line (in the
// chunk of the first of them) may repeat it in one Repeat, as the engine
// does, which must match that many reference walks of those units. A
// Repeat of the last walked block, or of a random one, must match as many
// reference walks of that block. A Repeat that declines must leave both
// caches' Stats and clocks as they were. It covers start levels 0-3, the
// plain, the BMF&Unused and a pruning-only configuration (whose level-3
// lines span eight chunks, touched or not), and 2-way and 8-way metadata
// caches; an 8MB region has 256 chunks, so 64 root registers thrash.
func TestWalkerMatchesReference(t *testing.T) {
	geom := meta.NewGeometry(8 << 20) // 5 stored levels
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"subtree=false", Config{}}, {"subtree=true", DefaultSubtree()}, {"prune=true", Config{PruneUnused: true}}} {
		for _, ways := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/ways=%d", c.name, ways), func(t *testing.T) {
				cfg := c.cfg
				cc := cache.Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: ways}
				w := New(geom, cache.New(cc), cfg)
				ref := newRef(geom, cache.New(cc), cfg)
				rng := rand.New(rand.NewSource(int64(ways)))
				hot := uint64(0)
				var lines []uint64 // recent counter lines, for foreign calls
				type walkAt struct {
					block uint64
					level int
					write bool
				}
				var last walkAt // the last walked or repeated block
				sameWalk := func(step int, what string, got, want Walk) {
					t.Helper()
					if got.Levels != want.Levels || got.Writebacks != want.Writebacks || got.Pruned != want.Pruned ||
						got.SubtreeHit != want.SubtreeHit || !slices.Equal(got.Fetches, want.Fetches) {
						t.Fatalf("step %d %s: walk %+v, reference %+v", step, what, got, want)
					}
				}
				sameStats := func(step int, what string) {
					t.Helper()
					if w.meta.Stats != ref.meta.Stats {
						t.Fatalf("step %d %s: metadata cache %+v, reference %+v", step, what, w.meta.Stats, ref.meta.Stats)
					}
					if cfg.Subtree && w.rootCache.Stats != ref.rootCache.Stats {
						t.Fatalf("step %d %s: root registers %+v, reference %+v", step, what, w.rootCache.Stats, ref.rootCache.Stats)
					}
				}
				walk := func(step int, at walkAt) {
					t.Helper()
					what := fmt.Sprintf("walk %+v", at)
					if at.write {
						sameWalk(step, what, w.Write(at.block, at.level), ref.write(at.block, at.level))
					} else {
						sameWalk(step, what, w.Read(at.block, at.level), ref.read(at.block, at.level))
					}
					sameStats(step, what)
					lines = append(lines, geom.CounterLineAddr(at.level, at.block))
					last = at
				}
				// repeat asks for one walk per block of bs, all in the chunk of
				// bs[0] and on its path, and reports whether Repeat fired.
				repeat := func(step int, bs []uint64, level int, write bool) bool {
					t.Helper()
					what := fmt.Sprintf("Repeat(%d, %d, %v, %d)", bs[0], level, write, len(bs))
					before := stateOf(w)
					got, ok := w.Repeat(bs[0], level, write, len(bs))
					if !ok {
						if after := stateOf(w); after != before {
							t.Fatalf("step %d %s declined but changed the caches: %+v, before %+v", step, what, after, before)
						}
						return false
					}
					for _, b := range bs {
						if write {
							sameWalk(step, what, got, ref.write(b, level))
						} else {
							sameWalk(step, what, got, ref.read(b, level))
						}
					}
					sameStats(step, what)
					last = walkAt{bs[len(bs)-1], level, write}
					return true
				}
				for step := 0; step < 20000; step++ {
					if rng.Intn(16) == 0 {
						hot = uint64(rng.Int63n(int64(geom.Blocks())))
					}
					level := rng.Intn(4)
					stride := uint64(1) << (3 * uint(level))
					base := (hot + uint64(rng.Intn(4096))) &^ (stride - 1) % geom.Blocks()
					lineOf := func(b uint64) uint64 { return b >> (3 * uint(level+1)) }
					switch op := rng.Intn(22); {
					case op < 14: // one request's units, writes on 9 of 14
						write := op < 9
						n := 1 + rng.Intn(8)
						unit := func(u int) uint64 { return (base + uint64(u)*stride) % geom.Blocks() }
						for u := 0; u < n; {
							b := unit(u)
							walk(step, walkAt{b, level, write})
							u++
							var rest []uint64
							for k := u; k < n && lineOf(unit(k)) == lineOf(b) &&
								unit(k)/meta.BlocksPerChunk == unit(u)/meta.BlocksPerChunk; k++ {
								rest = append(rest, unit(k))
							}
							if len(rest) > 0 && rng.Intn(4) != 0 {
								rest = rest[:1+rng.Intn(len(rest))]
								if repeat(step, rest, level, write) {
									u += len(rest)
								}
							}
						}
					case op < 16: // the last walk again, or a random one
						at := last
						if rng.Intn(4) == 0 {
							at = walkAt{base, level, rng.Intn(2) == 0}
						}
						bs := make([]uint64, 1+rng.Intn(4))
						for i := range bs {
							bs[i] = at.block
						}
						repeat(step, bs, at.level, at.write)
					case op < 17:
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
							case 17, 18:
								c.Access(addr, op == 18)
							case 19, 20:
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

// The read repeat fires after a read walk that hit at its first level, on
// the same path and unchanged caches, and on nothing else. A Repeat that
// declines must leave both caches' Stats and clocks as they were; one that
// fires re-hits the walk's one line once per repeated walk.
func TestReadRepeatFiresOnlyAfterFirstLevelHit(t *testing.T) {
	type walkAt struct {
		block uint64
		level int
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		// warm lists the write walks before the recorded walk; nil warms
		// both paths, so the recorded read hits at its first level.
		warm          []walkAt
		cold          bool // no warm-up: the recorded read fetches, or is pruned
		rootReset     bool // empty the root registers after the warm-up
		record        func(w *Walker, at walkAt)
		first, second walkAt
		between       func(w *Walker, mc *cache.Cache) // after the recorded walk
		write         bool                             // ask for write repeats
		none          bool                             // ask for no walks, not 3
		fires         bool
	}{
		{name: "same line", first: walkAt{0, 0}, second: walkAt{1, 0}, fires: true},
		{name: "same 512B line", first: walkAt{64, 1}, second: walkAt{72, 1}, fires: true},
		{name: "below the subtree level", cfg: DefaultSubtree(), first: walkAt{0, 0}, second: walkAt{7, 0}, fires: true},
		{name: "touched chunk on the line", cfg: Config{PruneUnused: true},
			first: walkAt{0, 3}, second: walkAt{meta.BlocksPerChunk, 3}, fires: true},
		{name: "untouched chunk on the line", cfg: Config{PruneUnused: true}, warm: []walkAt{{0, 3}},
			first: walkAt{0, 3}, second: walkAt{meta.BlocksPerChunk, 3}},
		{name: "next line", first: walkAt{0, 0}, second: walkAt{8, 0}},
		{name: "other level", first: walkAt{0, 0}, second: walkAt{0, 1}},
		{name: "no walks", first: walkAt{0, 0}, second: walkAt{1, 0}, none: true},
		{name: "fetching read", first: walkAt{0, 0}, second: walkAt{0, 0}, cold: true},
		{name: "pruned read", cfg: DefaultSubtree(), first: walkAt{0, 0}, second: walkAt{0, 0}, cold: true},
		{name: "read at the subtree level", cfg: DefaultSubtree(), first: walkAt{0, 3}, second: walkAt{0, 3}, rootReset: true},
		{name: "write walk", first: walkAt{0, 0}, second: walkAt{1, 0},
			record: func(w *Walker, at walkAt) { w.Write(at.block, at.level) }},
		{name: "write repeat", first: walkAt{0, 0}, second: walkAt{1, 0}, write: true},
		{name: "foreign access", first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(_ *Walker, mc *cache.Cache) { mc.Access(1<<30, false) }},
		{name: "absent invalidate", first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(_ *Walker, mc *cache.Cache) { mc.Invalidate(1 << 30) }},
		{name: "metadata reset", first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(_ *Walker, mc *cache.Cache) { mc.Reset() }},
		{name: "root reset", cfg: DefaultSubtree(), first: walkAt{0, 0}, second: walkAt{0, 0},
			between: func(w *Walker, _ *cache.Cache) { w.rootCache.Reset() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, mc := newWalker(tc.cfg)
			warm := tc.warm
			if warm == nil && !tc.cold {
				warm = []walkAt{tc.first, tc.second}
			}
			for _, at := range warm {
				w.Write(at.block, at.level)
			}
			if tc.rootReset {
				w.rootCache.Reset()
			}
			if tc.record != nil {
				tc.record(w, tc.first)
			} else {
				w.Read(tc.first.block, tc.first.level)
			}
			if tc.between != nil {
				tc.between(w, mc)
			}
			n := 3
			if tc.none {
				n = 0
			}
			before := stateOf(w)
			got, fired := w.Repeat(tc.second.block, tc.second.level, tc.write, n)
			if fired != tc.fires {
				t.Fatalf("repeat fired = %v, want %v (walk %+v)", fired, tc.fires, got)
			}
			after := stateOf(w)
			if !fired {
				if after != before {
					t.Fatalf("declined repeat changed the caches: %+v, before %+v", after, before)
				}
				return
			}
			if got.Levels != 1 || got.Pruned || got.SubtreeHit || len(got.Fetches) != 0 || got.Writebacks != 0 {
				t.Fatalf("repeated walk %+v, want one level hit", got)
			}
			if d := after.meta.Hits - before.meta.Hits; d != uint64(n) || after.meta.Misses != before.meta.Misses {
				t.Fatalf("repeat of %d walks re-hit %d lines (%+v, before %+v)", n, d, after.meta, before.meta)
			}
		})
	}
}
