package core

import (
	"unimem/internal/cache"
	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/sim"
	"unimem/internal/tracker"
	"unimem/internal/tree"
)

// Request is one LLC-miss memory transaction from a processing unit.
type Request struct {
	// Device indexes the issuing processing unit (for per-device unit
	// rules, counter sourcing and statistics).
	Device int
	// Addr is the starting byte address (64B aligned).
	Addr uint64
	// Size is the transaction size in bytes (64B for a cacheline miss,
	// up to 32KB for a DMA tile; Submit reads a non-positive size as 64B).
	Size int
	// Write marks a dirty-eviction / DMA store.
	Write bool
}

// Options tunes the engine. Zero values select the paper's configuration
// (section 5.1).
type Options struct {
	// Devices is the number of processing units (default 4).
	Devices int
	// StaticGran is the per-device fixed granularity of schemes with
	// Spec.StaticGran (devices past its end use 64B).
	StaticGran []meta.Gran
	// FixedTable preloads the granularity table of schemes with
	// Spec.Oracle.
	FixedTable *meta.Table
	// MetaCacheBytes is the security-metadata cache size (default 8KB).
	MetaCacheBytes int
	// OpenUnits is the size of the in-flight coarse-unit buffer that
	// coalesces the member beats of one bulk verification (default 16).
	OpenUnits int
	// Tracker configures the access tracker (default: paper's 12 entries,
	// 16K-cycle lifetime).
	Tracker tracker.Config
	// Probe, when non-nil, receives engine events (request issue/retire,
	// tree walks, cache accesses, MAC fetches, granularity switches, DRAM
	// beats — see internal/probe). The nil default is the production
	// setting: every emission site is guarded by one nil check, so the
	// disabled hot path carries only a dead branch (BenchmarkProbeOff).
	// Probes observe without influencing timing, so attaching one never
	// changes simulation results.
	Probe probe.Probe
}

// Fixed engine parameters (section 5.1).
const (
	// macCacheBytes is the MAC cache size.
	macCacheBytes = 4 << 10
	// gtCacheBytes is the granularity-table cache size: one 64B line
	// covers four chunks = 128KB of data, giving the high locality
	// section 4.4 relies on.
	gtCacheBytes = 32 << 10
	// cryptoPs is the crypto latency after the last fetch: a 10-cycle OTP
	// and a 1-cycle XOR at 1 GHz.
	cryptoPs = (10 + 1) * sim.PsPerGPUCycle
)

func (o *Options) fill() {
	if o.Devices <= 0 {
		o.Devices = 4
	}
	if o.MetaCacheBytes <= 0 {
		o.MetaCacheBytes = 8 << 10
	}
	if o.OpenUnits <= 0 {
		o.OpenUnits = 16
	}
}

// SwitchStats counts granularity-switch events by the Table 2 taxonomy.
type SwitchStats struct {
	// Counter/tree side.
	DownAll uint64 // coarse->fine, all types: zero cost (lazy switching)
	UpWAR   uint64 // fine->coarse, write-after-read: zero cost
	UpWAW   uint64 // fine->coarse, write-after-write: zero cost
	UpRAR   uint64 // fine->coarse, read-after-read: fetch parent to root
	UpRAW   uint64 // fine->coarse, read-after-write: mostly metadata-cache hits
	// MAC side.
	MACDownRO uint64 // coarse->fine on read-only data: fetch fine MACs
	MACDownRW uint64 // coarse->fine on written data: fetch whole data chunk
	MACUpLazy uint64 // fine->coarse: zero cost (lazy)
	// Correct counts requests that needed no switch.
	Correct uint64
}

// Total returns all classified requests (switching + correct).
func (s *SwitchStats) Total() uint64 {
	return s.DownAll + s.UpWAR + s.UpWAW + s.UpRAR + s.UpRAW + s.Correct
}

// Stats aggregates engine activity.
type Stats struct {
	Requests   uint64
	Reads      uint64
	Writes     uint64
	Switches   SwitchStats
	Detections uint64
	// OverfetchBeats counts extra 64B data beats fetched because an access
	// was finer than its protection unit.
	OverfetchBeats uint64
	// WalkLevels accumulates traversed tree levels (divide by Reads+Writes
	// for the mean validation path).
	WalkLevels    uint64
	PrunedWalks   uint64
	SubtreeHits   uint64
	SharedCTRHits uint64 // CommonCTR treeless hits
}

// Engine is the timing model of the unified memory-protection engine.
type Engine struct {
	se   *sim.Engine
	mm   *mem.Memory
	geom *meta.Geometry
	spec Spec     // the registry row's traits
	ctr  granRule // the row's counter-side unit rule
	mac  granRule // the row's MAC-side unit rule
	opts Options

	table     *meta.Table
	trk       *tracker.Tracker
	walker    *tree.Walker
	metaCache *cache.Cache
	macCache  *cache.Cache
	gtCache   *cache.Cache
	openUnits *cache.Cache

	prb probe.Probe // nil = observability off (the hot-path default)

	lastWrite    map[uint64]bool // last access type per chunk
	writtenParts map[uint64]uint64
	demoteVotes  map[uint64]meta.StreamPart // demotion hysteresis per chunk
	shared       map[uint64]bool            // CountersShared: chunks holding a shared counter

	// Free lists and scratch buffers keep the probe-off steady state
	// allocation-free (the simulation is single-threaded, so plain linked
	// lists and [:0] reuse suffice; see TestSubmitSteadyStateZeroAlloc).
	freeOps    *chunkOp
	freeSplits *splitOp
	ctrRuns    []unitRun
	macRuns    []unitRun
	macLines   []uint64

	perDev []DeviceStats
	lat    LatencyHistogram

	// Stats is the running account.
	Stats Stats
}

// New builds an engine for one scheme over a protected region of
// regionBytes, sharing the simulation engine and memory system with the
// device models. The scheme's behaviour comes entirely from its registry
// row; New wires the scheme-independent machinery around it. Out-of-range
// schemes panic.
func New(se *sim.Engine, mm *mem.Memory, regionBytes uint64, scheme Scheme, opts Options) *Engine {
	opts.fill()
	row := registry[scheme]
	spec := row.spec
	e := &Engine{
		se:           se,
		mm:           mm,
		geom:         meta.NewGeometry(regionBytes),
		spec:         spec,
		ctr:          row.ctr,
		mac:          row.mac,
		opts:         opts,
		prb:          opts.Probe,
		lastWrite:    map[uint64]bool{},
		writtenParts: map[uint64]uint64{},
		demoteVotes:  map[uint64]meta.StreamPart{},
		perDev:       make([]DeviceStats, opts.Devices),
	}
	if !spec.Protect {
		return e
	}
	e.metaCache = cache.New(cache.Config{SizeBytes: opts.MetaCacheBytes, LineBytes: 64, Ways: 8})
	e.macCache = cache.New(cache.Config{SizeBytes: macCacheBytes, LineBytes: 64, Ways: 8})
	var treeCfg tree.Config
	if spec.Subtree {
		treeCfg = tree.DefaultSubtree()
	}
	e.walker = tree.New(e.geom, e.metaCache, treeCfg)
	if spec.Counters == CountersShared {
		e.shared = map[uint64]bool{}
	}
	if spec.UseTable {
		e.gtCache = cache.New(cache.Config{SizeBytes: gtCacheBytes, LineBytes: 64, Ways: 8})
		if spec.Oracle && opts.FixedTable != nil {
			e.table = opts.FixedTable
		} else {
			e.table = meta.NewTable()
		}
	}
	if spec.Detect {
		e.trk = tracker.New(opts.Tracker)
	}
	e.openUnits = cache.New(cache.Config{
		SizeBytes: opts.OpenUnits * 64,
		LineBytes: 64,
		Ways:      opts.OpenUnits,
	})
	return e
}

// Geometry returns the metadata layout.
func (e *Engine) Geometry() *meta.Geometry { return e.geom }

// Table returns the granularity table (nil for schemes without one).
func (e *Engine) Table() *meta.Table { return e.table }

// SecurityCacheMisses returns combined metadata + MAC (+ granularity
// table) cache misses — the quantity Fig. 16 / Fig. 18 report.
func (e *Engine) SecurityCacheMisses() uint64 {
	var n uint64
	if e.metaCache != nil {
		n += e.metaCache.Stats.Misses
	}
	if e.macCache != nil {
		n += e.macCache.Stats.Misses
	}
	if e.gtCache != nil {
		n += e.gtCache.Stats.Misses
	}
	return n
}

// MeanWalkLevels returns the average integrity-tree validation path length.
func (e *Engine) MeanWalkLevels() float64 {
	n := e.Stats.Reads + e.Stats.Writes
	if n == 0 {
		return 0
	}
	return float64(e.Stats.WalkLevels) / float64(n)
}

// Finish flushes the tracker so trailing detections land in the table
// (mirrors the end-of-kernel behaviour of the baselines).
func (e *Engine) Finish() {
	if e.trk == nil {
		return
	}
	for _, det := range e.trk.Flush() {
		e.applyDetection(det)
	}
}

// unitRun is n consecutive protection units of one granularity covering
// part of a request, the first at base.
type unitRun struct {
	base uint64
	gran meta.Gran
	n    int
}
