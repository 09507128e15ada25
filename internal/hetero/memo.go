package hetero

import (
	"fmt"
	"sync"
)

// memo is a key-addressed compute-once cache with singleflight semantics:
// concurrent callers of the same key block on one shared computation
// instead of racing to duplicate it. The warmup passes behind
// Static-device-best and Per-partition-best (exhaustive granularity search,
// oracle profiling run) are orders of magnitude more expensive than a map
// lookup, so the parallel sweep engine must never run one twice.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
}

// do returns the memoized value for key, computing it exactly once across
// all concurrent callers.
func (c *memo[V]) do(key string, compute func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[string]*memoEntry[V]{}
	}
	e := c.m[key]
	if e == nil {
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// reset drops every entry (test hook).
func (c *memo[V]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// fingerprint returns a deterministic key covering every Config field that
// can change a simulation outcome: Scale, Seed, the full memory
// configuration, and the engine options. Two Configs with the same
// fingerprint produce identical runs; anything less (the old
// name+Scale-only cache key) silently reuses stale warmup results across
// differing Seed / Mem / Engine settings.
func (c Config) fingerprint() string {
	c = c.filled()
	o := c.Engine
	return fmt.Sprintf("scale=%g seed=%d mem=%+v eng={dev=%d static=%v tbl=%t meta=%d open=%d trk=%+v}",
		c.Scale, c.Seed, *c.Mem,
		o.Devices, o.StaticGran, o.FixedTable != nil,
		o.MetaCacheBytes, o.OpenUnits, o.Tracker)
}
