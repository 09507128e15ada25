package main

import (
	"fmt"

	"unimem/internal/cache"
	"unimem/internal/core"
	"unimem/internal/cpu"
	"unimem/internal/device"
	"unimem/internal/gpu"
	"unimem/internal/hetero"
	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/npu"
	"unimem/internal/probe"
	"unimem/internal/sim"
	"unimem/internal/tracker"
	"unimem/internal/tree"
	wl "unimem/internal/workload"
)

// The traced timing run rebuilds hetero.Run from the public constructors so
// it can time the layers from outside. These mirror hetero's defaults
// (Config.filled, buildDevices, core.Options.fill); the digest check on every
// traced run fails if they drift.
const (
	regionBytes  = 4 << 30 // hetero's default protected region
	deviceStride = 1 << 30 // hetero's per-device address quadrant
	seedStride   = 7919    // hetero's per-device trace-seed offset
	metaCacheB   = 8 << 10 // core's default metadata cache
	macCacheB    = 4 << 10 // core's default MAC cache
	gtCacheB     = 32 << 10
)

// timedSubmitter is the devices' device.Submitter: it times each Submit
// into the protection engine.
type timedSubmitter struct {
	en *core.Engine
	t  *tracer
}

func (s *timedSubmitter) Submit(r core.Request, done func(sim.Time)) {
	start := s.t.begin(lSubmit)
	s.en.Submit(r, done)
	s.t.end(lSubmit, start)
}

// timedGen times each Next of a workload generator.
type timedGen struct {
	wl.Generator
	t *tracer
}

func (g timedGen) Next() (wl.Request, bool) {
	start := g.t.begin(lNext)
	r, ok := g.Generator.Next()
	g.t.end(lNext, start)
	return r, ok
}

// Replay inputs captured from the probe stream.
type (
	cacheIn struct {
		addr  uint64
		gt    bool // granularity-table cache, else MAC cache
		dirty bool
	}
	walkIn struct {
		block uint64
		level int
		kind  uint8 // walkRead, walkWrite or walkTouch
	}
	memIn struct {
		addr  uint64
		size  int
		kind  mem.Kind
		write bool
	}
	issueIn struct {
		addr uint64
		size int
		at   sim.Time
	}
)

const (
	walkRead uint8 = iota
	walkWrite
	walkTouch // the pipeline marks a written block's chunk live after its walks
)

// timingTrace is the per-layer account of a traced timing workload.
type timingTrace struct {
	t   *tracer
	sum probe.Summary // merged collector summaries of all traced runs
	// Simulated memory-system occupancy: busy channel time over
	// channel-time available until the run's makespan.
	busyPs, availPs float64
	pending         int64     // queue depth summed at every Step
	runNs           []float64 // traced hetero.Run time per op, for the overhead
	errs            []string  // replay-exactness and digest failures

	// Capture state of the run in progress.
	en      *core.Engine
	fixed   bool // the scheme protects at a fixed 64B granularity
	req     probe.Event
	next    uint64 // address of req's next counter unit
	caches  []cacheIn
	walks   []walkIn
	mems    []memIn
	issues  []issueIn
	geom    *meta.Geometry
	metaOut uint64 // sink keeping the replayed address math live
}

func newTimingTrace(t *tracer) *timingTrace {
	return &timingTrace{t: t, geom: meta.NewGeometry(regionBytes)}
}

func newDevice(c wl.Class, eng *sim.Engine, sub device.Submitter, gen wl.Generator, i int) *device.Issuer {
	base := uint64(i) * deviceStride
	switch c {
	case wl.CPU:
		return cpu.New(eng, sub, gen, i, base).Issuer
	case wl.GPU:
		return gpu.New(eng, sub, gen, i, base).Issuer
	default:
		return npu.New(eng, sub, gen, i, base).Issuer
	}
}

// run assembles and runs one scenario under one scheme like hetero.Run,
// with the engine wrapped as the devices' Submitter, every generator
// wrapped, the event loop stepped here, and a capturing probe plus a
// Collector attached. It then replays the captured streams through fresh
// layer instances and checks the replays against the Collector.
func (tt *timingTrace) run(sc hetero.Scenario, scheme core.Scheme, cfg hetero.Config) (hetero.RunResult, error) {
	t := tt.t
	specs := sc.Devices()
	col := probe.NewCollector(len(specs))
	tt.caches, tt.walks, tt.mems, tt.issues = tt.caches[:0], tt.walks[:0], tt.mems[:0], tt.issues[:0]
	tt.fixed = !core.SchemeSpec(scheme).UseTable

	start := t.begin(lRun)
	eng := sim.NewEngine()
	mm := mem.New(eng, mem.OrinConfig())
	en := core.New(eng, mm, regionBytes, scheme, core.Options{
		Devices: len(specs),
		Probe:   probe.Multi(col, probe.Func(tt.capture)),
	})
	tt.en = en
	sub := &timedSubmitter{en: en, t: t}
	devs := make([]*device.Issuer, len(specs))
	for i, s := range specs {
		gen, err := wl.ByName(s.Workload, cfg.Scale, cfg.Seed+uint64(i)*seedStride)
		if err != nil {
			return hetero.RunResult{}, err
		}
		devs[i] = newDevice(s.Class, eng, sub, timedGen{gen, t}, i)
	}
	for _, d := range devs {
		d.Start()
	}
	for eng.Pending() > 0 {
		tt.pending += int64(eng.Pending())
		s := t.begin(lStep)
		eng.Step()
		t.end(lStep, s)
	}
	en.Finish()
	tt.flushTouch()
	t.end(lRun, start)

	res := hetero.RunResult{
		Scenario: sc, Scheme: scheme,
		Devices:   make([]hetero.DeviceResult, len(devs)),
		EngineDev: make([]core.DeviceStats, len(devs)),
	}
	var err error
	for i, d := range devs {
		if !d.Done() && err == nil {
			err = fmt.Errorf("traced run: device %s never drained (%s, %v)", d.Name(), sc.ID, scheme)
		}
		res.Devices[i] = hetero.DeviceResult{Name: d.Name(), Class: specs[i].Class, FinishPs: d.FinishTime(), Issued: d.Stats.Issued}
		res.EngineDev[i] = en.DeviceStats(i)
	}
	res.TotalBytes = mm.Stats.Bytes()
	res.DataBytes = mm.Stats.BytesKind(mem.Data)
	res.MetaBytes = mm.Stats.MetadataBytes()
	res.SecCacheMisses = en.SecurityCacheMisses()
	res.Switches = en.Stats.Switches
	res.MeanWalk = en.MeanWalkLevels()
	res.Detections = en.Stats.Detections
	res.Latency = *en.Latencies()
	s := col.Summary
	res.Probe = &s

	tt.sum.Merge(&col.Summary)
	tt.busyPs += float64(mm.Stats.BusyPs)
	tt.availPs += float64(mem.OrinConfig().Channels) * float64(res.MaxFinish())
	tt.replay(scheme, &res)
	return res, err
}

// capture records, for each event, the inputs a replay needs. Events of
// one request arrive synchronously after its EvIssue, so the last issue
// identifies the request a walk or cache access belongs to.
func (tt *timingTrace) capture(ev probe.Event) {
	switch ev.Kind {
	case probe.EvIssue:
		tt.flushTouch()
		tt.req, tt.next = ev, ev.Addr
		tt.issues = append(tt.issues, issueIn{ev.Addr, ev.Size, ev.At})
	case probe.EvWalk:
		block, level := tt.walkUnit()
		kind := walkRead
		if tt.req.Write {
			kind = walkWrite
		}
		tt.walks = append(tt.walks, walkIn{block, level, kind})
	case probe.EvCache:
		switch probe.CacheKind(ev.Class) {
		case probe.CacheMAC:
			tt.caches = append(tt.caches, cacheIn{addr: ev.Addr, dirty: tt.req.Write})
		case probe.CacheGT:
			tt.caches = append(tt.caches, cacheIn{addr: ev.Addr, gt: true})
		}
	case probe.EvMemRead, probe.EvMemWrite:
		tt.mems = append(tt.mems, memIn{ev.Addr, ev.Size, mem.Kind(ev.Class), ev.Kind == probe.EvMemWrite})
	}
}

// flushTouch records the chunk-liveness mark the pipeline sets after a
// write request's walks.
func (tt *timingTrace) flushTouch() {
	if tt.req.Kind == probe.EvIssue && tt.req.Write {
		tt.walks = append(tt.walks, walkIn{block: tt.req.Addr / meta.BlockSize, kind: walkTouch})
	}
	tt.req = probe.Event{}
}

// walkUnit returns the counter unit of the current request's next walk and
// moves past it. Fixed-granularity schemes walk one 64B unit per block,
// which is exact. Table schemes resolve units from the table as it stands
// at the walk; a unit demoted earlier in the same request resolves finer
// than the engine saw, so their replay is an estimate.
func (tt *timingTrace) walkUnit() (uint64, int) {
	addr := tt.next
	if tt.fixed {
		tt.next += meta.BlockSize
		return addr / meta.BlockSize, 0
	}
	u := tt.en.Table().Current(meta.ChunkIndex(addr)).UnitOf(meta.BlockInChunk(addr))
	base := meta.ChunkBase(addr) + uint64(u.Block)*meta.BlockSize
	tt.next = base + u.Gran.Bytes()
	return base / meta.BlockSize, u.Gran.Level()
}

// treeConfig is the walker configuration of the schemes the benchmark runs
// (the subtree-root and pruning options of the BMF schemes).
func treeConfig(s core.Scheme) tree.Config {
	if s == core.BMFUnused || s == core.BMFUnusedOurs || s == core.BMFUnusedOursNoSwitch {
		return tree.DefaultSubtree()
	}
	return tree.Config{}
}

// replay drives the captured streams through fresh cache, tree, meta, mem
// and tracker instances, timing each, and checks every count a replay
// reproduces exactly against the run's Collector and result.
func (tt *timingTrace) replay(scheme core.Scheme, res *hetero.RunResult) {
	t, sum := tt.t, res.Probe
	fail := func(format string, args ...any) {
		tt.errs = append(tt.errs, fmt.Sprintf("%s/%v: ", res.Scenario.ID, scheme)+fmt.Sprintf(format, args...))
	}

	macC := cache.New(cache.Config{SizeBytes: macCacheB, LineBytes: 64, Ways: 8})
	gtC := cache.New(cache.Config{SizeBytes: gtCacheB, LineBytes: 64, Ways: 8})
	start := t.begin(lCache)
	for _, c := range tt.caches {
		if c.gt {
			gtC.Access(c.addr, false)
		} else {
			macC.Access(c.addr, c.dirty)
		}
	}
	t.endN(lCache, start, int64(len(tt.caches)))
	for _, k := range []struct {
		name string
		got  cache.Stats
		want probe.CacheCounts
	}{{"MAC", macC.Stats, sum.Caches[probe.CacheMAC]}, {"GT", gtC.Stats, sum.Caches[probe.CacheGT]}} {
		if k.got.Hits != k.want.Hits || k.got.Misses != k.want.Misses {
			fail("%s cache replay %d hits/%d misses, run %d/%d", k.name, k.got.Hits, k.got.Misses, k.want.Hits, k.want.Misses)
		}
	}

	w := tree.New(tt.geom, cache.New(cache.Config{SizeBytes: metaCacheB, LineBytes: 64, Ways: 8}), treeConfig(scheme))
	var walks, levels, fetches uint64
	start = t.begin(lTree)
	for _, in := range tt.walks {
		var wk tree.Walk
		switch in.kind {
		case walkTouch:
			w.MarkTouched(in.block)
			continue
		case walkWrite:
			wk = w.Write(in.block, in.level)
		default:
			wk = w.Read(in.block, in.level)
		}
		walks++
		levels += uint64(wk.Levels)
		fetches += uint64(len(wk.Fetches))
	}
	t.endN(lTree, start, int64(levels))
	if tt.fixed && (walks != sum.Walks || levels != sum.WalkLevels || fetches != sum.WalkMisses) {
		fail("tree replay %d walks/%d levels/%d fetches, run %d/%d/%d", walks, levels, fetches, sum.Walks, sum.WalkLevels, sum.WalkMisses)
	}

	var calls int64
	start = t.begin(lMeta)
	for _, c := range tt.caches {
		if c.gt {
			tt.metaOut += tt.geom.GTEntryAddr((c.addr - tt.geom.GTBase) / meta.GTEntrySize)
			calls++
		}
	}
	for _, in := range tt.walks {
		if in.kind == walkTouch {
			continue
		}
		for l := in.level; l < tt.geom.Levels(); l++ {
			tt.metaOut += tt.geom.CounterLineAddr(l, in.block)
			calls++
		}
	}
	t.endN(lMeta, start, calls)

	mm := mem.New(sim.NewEngine(), mem.OrinConfig())
	start = t.begin(lMem)
	for _, m := range tt.mems {
		if m.write {
			mm.Write(m.addr, m.size, m.kind, nil)
		} else {
			mm.Read(m.addr, m.size, m.kind, nil)
		}
	}
	t.endN(lMem, start, int64(mm.Stats.Bytes()/mem.BlockSize))
	if mm.Stats.Bytes() != res.TotalBytes {
		fail("mem replay moved %d bytes, run %d", mm.Stats.Bytes(), res.TotalBytes)
	}

	if !core.SchemeSpec(scheme).Detect {
		return
	}
	trk := tracker.New(tracker.Config{})
	start = t.begin(lTracker)
	for _, in := range tt.issues {
		trk.AccessRange(in.addr, in.size, in.at)
	}
	trk.Flush()
	t.endN(lTracker, start, int64(len(tt.issues)))
	if trk.Stats.Detections != sum.Detections {
		fail("tracker replay %d detections, run %d", trk.Stats.Detections, sum.Detections)
	}
}

// layerMetrics reduces the traced runs into the per-layer metrics of the
// simulator layers; ops is the number of workload ops they made up.
func (tt *timingTrace) layerMetrics(m map[string]float64, ops float64) {
	t, s := tt.t, &tt.sum
	self := float64(t.ns[lStep] - t.ns[lSubmit] - t.ns[lNext])
	run := float64(t.ns[lRun])
	m["sim.events"] = ratio(float64(t.n[lStep]), ops)
	m["sim.step_self_ns"] = ratio(self, float64(t.n[lStep]))
	m["sim.queue_depth_mean"] = ratio(float64(tt.pending), float64(t.n[lStep]))
	m["sim.self_frac"] = ratio(self, run)
	m["core.submits"] = ratio(float64(t.n[lSubmit]), ops)
	m["core.submit_ns"] = t.perItem(lSubmit)
	m["core.submit_frac"] = ratio(float64(t.ns[lSubmit]), run)
	m["core.switches"] = ratio(float64(s.SwitchTotal()), ops)
	m["core.detections"] = ratio(float64(s.Detections), ops)
	m["core.overfetch_beats"] = ratio(float64(s.OverfetchBeats), ops)
	var latPs int64
	var reads uint64
	for _, d := range s.PerDevice {
		latPs += d.ReadLatencyPs
		reads += d.Reads
	}
	m["core.sim_read_lat_ns_mean"] = ratio(float64(latPs)/1e3, float64(reads))
	m["tree.walks"] = ratio(float64(s.Walks), ops)
	m["tree.levels_per_walk"] = s.MeanWalkLevels()
	m["tree.fetch_per_level"] = ratio(float64(s.WalkMisses), float64(s.WalkLevels))
	m["tree.ns_per_level"] = t.perItem(lTree)
	var accesses uint64
	for _, c := range s.Caches {
		accesses += c.Hits + c.Misses
	}
	hit := func(k probe.CacheKind) float64 {
		c := s.Caches[k]
		return ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	}
	m["cache.accesses"] = ratio(float64(accesses), ops)
	m["cache.meta_hit_ratio"] = hit(probe.CacheMeta)
	m["cache.mac_hit_ratio"] = hit(probe.CacheMAC)
	m["cache.gt_hit_ratio"] = hit(probe.CacheGT)
	m["cache.ns_per_access"] = t.perItem(lCache)
	m["meta.ns_per_call"] = t.perItem(lMeta)
	var beats, data uint64
	for k, tr := range s.Traffic {
		beats += tr.Beats()
		if mem.Kind(k) == mem.Data {
			data += tr.Beats()
		}
	}
	m["mem.beats"] = ratio(float64(beats), ops)
	m["mem.meta_beat_frac"] = ratio(float64(beats-data), float64(beats))
	m["mem.busy_frac"] = ratio(tt.busyPs, tt.availPs)
	m["mem.ns_per_beat"] = t.perItem(lMem)
	m["tracker.calls"] = ratio(float64(t.n[lTracker]), ops)
	m["tracker.detections"] = ratio(float64(s.Detections), ops)
	m["tracker.ns_per_call"] = t.perItem(lTracker)
	m["workload.next_ns"] = t.perItem(lNext)
}
