package hetero

import (
	"fmt"

	"unimem/internal/core"
	"unimem/internal/cpu"
	"unimem/internal/device"
	"unimem/internal/gpu"
	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/npu"
	"unimem/internal/probe"
	"unimem/internal/sim"
	"unimem/internal/workload"
)

// Config controls one simulation run.
type Config struct {
	// Scale multiplies trace lengths (1.0 = nominal; benches use less).
	Scale float64
	// Seed makes runs reproducible.
	Seed uint64
	// RegionBytes is the protected region size (default 4GB, Table 3's
	// memory system).
	RegionBytes uint64
	// Mem overrides the memory configuration (default Orin LPDDR4).
	Mem *mem.Config
	// Engine overrides protection-engine options.
	Engine core.Options
	// Collect attaches a fresh probe.Collector to every measured run and
	// stores its reduced Summary in the result (RunResult.Probe /
	// StandaloneResult.Probe). Each run owns its collector, so parallel
	// sweeps stay race-free and deterministic. Probes observe without
	// influencing timing, so Collect never changes simulation outcomes
	// (and stays out of the warmup-memo fingerprint).
	Collect bool
	// NewProbe, when set, builds an additional probe for each measured run
	// (warmup passes — static-best search, oracle profiling — never carry
	// probes); standalone and pipeline runs pass a Scenario holding only
	// the workload or pipeline name as ID. It is called from the goroutine
	// that executes the run; implementations handing out shared state must
	// synchronize.
	NewProbe func(sc Scenario, scheme core.Scheme) probe.Probe
	// truncatePs, when positive, stops the measured run's event loop at
	// that simulated time instead of draining it — a test hook for
	// exercising the truncated-trace error path without hand-crafting a
	// hanging device model. Warmup passes always drain fully.
	truncatePs sim.Time
}

func (c Config) filled() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.RegionBytes == 0 {
		c.RegionBytes = 4 << 30
	}
	if c.Mem == nil {
		m := mem.OrinConfig()
		c.Mem = &m
	}
	return c
}

// Device region bases: each device owns a 1GB quadrant of the 4GB space.
const deviceStride = 1 << 30

// DeviceResult is one processing unit's outcome.
type DeviceResult struct {
	Name     string
	Class    workload.Class
	FinishPs sim.Time
	Issued   uint64
}

// RunResult is one (scenario, scheme) simulation outcome.
type RunResult struct {
	Scenario Scenario
	Scheme   core.Scheme
	// Devices holds one entry per scenario device (scenario-shaped, not a
	// fixed width).
	Devices []DeviceResult
	// TotalBytes / DataBytes / MetaBytes are memory traffic.
	TotalBytes uint64
	DataBytes  uint64
	MetaBytes  uint64
	// SecCacheMisses combines metadata/MAC/granularity-table cache misses.
	SecCacheMisses uint64
	Switches       core.SwitchStats
	MeanWalk       float64
	Detections     uint64
	// Latency is the engine-wide read-latency histogram.
	Latency core.LatencyHistogram
	// EngineDev is the per-device engine accounting, index-aligned with
	// Devices.
	EngineDev []core.DeviceStats
	// Probe is the run's reduced event stream (nil unless Config.Collect).
	Probe *probe.Summary
	// Err reports a run that could not complete — an unknown workload
	// name, or a device whose trace never drained (a truncated or
	// deadlocked event loop). The remaining fields hold whatever progress
	// was made; callers must treat them as partial when Err is non-nil.
	Err error
}

// MaxFinish returns the scenario's wall-clock end.
func (r *RunResult) MaxFinish() sim.Time {
	var m sim.Time
	for _, d := range r.Devices {
		if d.FinishPs > m {
			m = d.FinishPs
		}
	}
	return m
}

// placement is one processing unit of a run: the device slot it occupies
// (its engine device id and 1GB address quadrant), the device model placed
// there, and the workload trace it replays under which seed. Scenarios,
// standalone runs and pipelines differ only in the placements they build.
type placement struct {
	index    int
	class    workload.Class
	workload string
	seed     uint64
}

// place puts a workload in a device slot under the scenario and standalone
// seed rule: slot i replays its trace under Seed + i*7919.
func place(index int, class workload.Class, name string, seed uint64) placement {
	return placement{index: index, class: class, workload: name, seed: seed + uint64(index)*7919}
}

// placements lays the scenario's devices out in slot order.
func (s Scenario) placements(seed uint64) []placement {
	specs := s.Devices()
	ps := make([]placement, len(specs))
	for i, d := range specs {
		ps[i] = place(i, d.Class, d.Workload, seed)
	}
	return ps
}

// devices is the engine's device count for a set of placements.
func devices(ps []placement) int {
	n := 0
	for _, p := range ps {
		n = max(n, p.index+1)
	}
	return n
}

// Run simulates one scenario under one scheme. An unknown workload name
// or a device that fails to drain its trace (a truncated or deadlocked
// event loop) is reported through RunResult.Err rather than a panic; a
// drain failure still carries the partial accounting.
func Run(sc Scenario, scheme core.Scheme, cfg Config) RunResult {
	res, _ := run(sc, sc.placements(cfg.Seed), scheme, cfg)
	return res
}

// run is the measured-run path behind Run, RunStandalone and RunPipeline:
// it checks every workload name before any warmup runs, resolves the
// scheme's warmup, attaches the probes, then simulates and measures. It
// also returns the simulated time at which the event loop stopped.
func run(sc Scenario, ps []placement, scheme core.Scheme, cfg Config) (RunResult, sim.Time) {
	cfg = cfg.filled()
	for _, p := range ps {
		if _, err := workload.Lookup(p.workload); err != nil {
			return RunResult{Scenario: sc, Scheme: scheme, Err: fmt.Errorf("hetero: %w", err)}, 0
		}
	}
	cfg.Engine = warmup(ps, scheme, cfg)
	col, prb := cfg.buildProbe(sc, scheme, devices(ps))
	cfg.Engine.Probe = probe.Multi(cfg.Engine.Probe, prb)
	s := simulate(ps, scheme, cfg)
	return s.measure(sc, scheme, col), s.end
}

// buildProbe assembles a measured run's probe stack from the config: the
// built-in collector (Collect, sized to the run's device count) and the
// caller's custom probe (NewProbe).
func (c Config) buildProbe(sc Scenario, scheme core.Scheme, devices int) (*probe.Collector, probe.Probe) {
	var col *probe.Collector
	if c.Collect {
		col = probe.NewCollector(devices)
	}
	var custom probe.Probe
	if c.NewProbe != nil {
		custom = c.NewProbe(sc, scheme)
	}
	if col == nil {
		return nil, custom
	}
	return col, probe.Multi(col, custom)
}

// stack is one assembled and drained simulation.
type stack struct {
	ps   []placement
	mm   *mem.Memory
	en   *core.Engine
	devs []*device.Issuer // index-aligned with ps
	end  sim.Time         // simulated time the event loop stopped at
}

// simulate assembles the event engine, memory, protection engine (with
// cfg.Engine's options) and one device model per placement, then drains
// the event loop, or stops it at cfg.truncatePs. It is the one place a
// simulation stack is built; cfg must be filled.
func simulate(ps []placement, scheme core.Scheme, cfg Config) *stack {
	eng := sim.NewEngine()
	s := &stack{ps: ps, mm: mem.New(eng, *cfg.Mem), devs: make([]*device.Issuer, len(ps))}
	opts := cfg.Engine
	opts.Devices = devices(ps)
	s.en = core.New(eng, s.mm, cfg.RegionBytes, scheme, opts)
	for i, p := range ps {
		gen, err := workload.ByName(p.workload, cfg.Scale, p.seed)
		if err != nil {
			panic(err) // run checks names first; only direct warmup callers get here
		}
		base := uint64(p.index) * deviceStride
		switch p.class {
		case workload.CPU:
			s.devs[i] = cpu.New(eng, s.en, gen, p.index, base).Issuer
		case workload.GPU:
			s.devs[i] = gpu.New(eng, s.en, gen, p.index, base).Issuer
		default:
			s.devs[i] = npu.New(eng, s.en, gen, p.index, base).Issuer
		}
		s.devs[i].Start()
	}
	until := sim.MaxTime
	if cfg.truncatePs > 0 {
		until = cfg.truncatePs
	}
	s.end = eng.Run(until)
	s.en.Finish()
	return s
}

// measure reads a drained stack's outcome; col is the run's collector, if
// any. A device that did not drain its trace is reported through Err.
func (s *stack) measure(sc Scenario, scheme core.Scheme, col *probe.Collector) RunResult {
	res := RunResult{
		Scenario:       sc,
		Scheme:         scheme,
		Devices:        make([]DeviceResult, len(s.devs)),
		TotalBytes:     s.mm.Stats.Bytes(),
		DataBytes:      s.mm.Stats.BytesKind(mem.Data),
		MetaBytes:      s.mm.Stats.MetadataBytes(),
		SecCacheMisses: s.en.SecurityCacheMisses(),
		Switches:       s.en.Stats.Switches,
		MeanWalk:       s.en.MeanWalkLevels(),
		Detections:     s.en.Stats.Detections,
		Latency:        *s.en.Latencies(),
		EngineDev:      make([]core.DeviceStats, len(s.devs)),
	}
	if col != nil {
		sum := col.Summary
		res.Probe = &sum
	}
	for i, d := range s.devs {
		if !d.Done() && res.Err == nil {
			res.Err = fmt.Errorf("hetero: device %s never drained (%s, %v)", d.Name(), sc.ID, scheme)
		}
		res.Devices[i] = DeviceResult{Name: d.Name(), Class: s.ps[i].class, FinishPs: d.FinishTime(), Issued: d.Stats.Issued}
		res.EngineDev[i] = s.en.DeviceStats(s.ps[i].index)
	}
	return res
}

// --- memoized warmup passes ----------------------------------------------
//
// Static-device-best and Per-partition-best need an expensive warmup before
// the measured run: an exhaustive per-granularity standalone search, or a
// full oracle profiling pass. Both are pure functions of (placements,
// Config), so they are memoized under the full config fingerprint with
// singleflight semantics — the parallel sweep engine runs each warmup once
// no matter how many workers need it, and configs differing in Seed,
// RegionBytes, Mem or Engine never share entries.

var (
	staticBest memo[meta.Gran]
	profiled   memo[*meta.Table]
)

// resetWarmupCaches clears the memoized warmup passes (test hook).
func resetWarmupCaches() {
	staticBest.reset()
	profiled.reset()
}

// warmup returns the engine options of a scheme's measured run: the
// caller's, plus the warmup result the scheme is charged for unless the
// caller supplied one — the per-device static granularities of
// Static-device-best, or the profiled table of Per-partition-best.
func warmup(ps []placement, scheme core.Scheme, cfg Config) core.Options {
	o := cfg.Engine
	switch {
	case scheme == core.StaticDeviceBest && o.StaticGran == nil:
		o.StaticGran = staticGrans(ps, cfg)
	case scheme == core.PerPartitionOracle && o.FixedTable == nil:
		o.FixedTable = profileTable(ps, cfg)
	}
	return o
}

// bare derives a warmup pass's config from the caller's: the warmup
// simulates the same system and engine (cache sizes, crypto latencies,
// tracker) but owns its scheme-specific options, always drains, and never
// carries probes — its result is memoized and shared across runs, so an
// observer bound to one caller would see another's pass.
func (c Config) bare() Config {
	c.Engine.StaticGran, c.Engine.FixedTable, c.Engine.Probe = nil, nil, nil
	c.truncatePs = 0
	return c
}

// profileTable runs the placements once under Ours and returns the
// detected granularity table with all pending switches committed — the
// per-partition-best oracle of Fig. 6. The profiling pass is memoized per
// (placements, config); each caller gets its own copy so the engine owning
// it can never corrupt the shared profile.
func profileTable(ps []placement, cfg Config) *meta.Table {
	cfg = cfg.filled()
	key := fmt.Sprintf("%v|%s", ps, cfg.fingerprint())
	t := profiled.do(key, func() *meta.Table {
		return simulate(ps, core.Ours, cfg.bare()).en.Table()
	})
	return t.CloneCommitted()
}

// BestStaticGrans runs each of the scenario's workloads standalone under
// every static granularity and returns the per-device best (the
// exhaustive warmup search the paper charges against Static-device-best).
// It panics on an unknown workload name.
func BestStaticGrans(sc Scenario, cfg Config) []meta.Gran {
	return staticGrans(sc.placements(cfg.Seed), cfg)
}

// staticGrans returns the best static granularity per device slot.
func staticGrans(ps []placement, cfg Config) []meta.Gran {
	out := make([]meta.Gran, devices(ps))
	for _, p := range ps {
		out[p.index] = bestStaticFor(p, cfg)
	}
	return out
}

// bestStaticFor memoizes the exhaustive search for one placement: its
// workload runs standalone — on its own class's device model, in the
// placement's slot, under the standalone seed rule — once per static
// granularity. The slot is part of the key because it offsets the trace
// seed and the address quadrant.
func bestStaticFor(p placement, cfg Config) meta.Gran {
	cfg = cfg.filled()
	alone := []placement{place(p.index, workload.Profiles[p.workload].Class, p.workload, cfg.Seed)}
	key := fmt.Sprintf("%v|%s", alone[0], cfg.fingerprint())
	return staticBest.do(key, func() meta.Gran {
		best, bestT := meta.Gran64, sim.MaxTime
		w := cfg.bare()
		for _, g := range meta.Grans {
			w.Engine.StaticGran = make([]meta.Gran, p.index+1)
			for i := range w.Engine.StaticGran {
				w.Engine.StaticGran[i] = g
			}
			if t := simulate(alone, core.StaticDeviceBest, w).devs[0].FinishTime(); t < bestT {
				best, bestT = g, t
			}
		}
		return best
	})
}

// StandaloneResult is a single-workload, single-device run outcome.
type StandaloneResult struct {
	Workload   string
	Scheme     core.Scheme
	FinishPs   sim.Time
	TotalBytes uint64
	MetaBytes  uint64
	Misses     uint64
	// Probe is the run's reduced event stream (nil unless Config.Collect).
	Probe *probe.Summary
}

// RunStandalone runs one workload alone on its device class behind the
// protection engine — the single-processing-unit methodology of Fig. 4-6.
// The workload takes its class's scenario slot (CPU 0, GPU 1, NPU 2) under
// the scenario seed rule. It panics on an unknown workload name.
func RunStandalone(name string, scheme core.Scheme, cfg Config) StandaloneResult {
	class := workload.Profiles[name].Class
	r, _ := run(Scenario{ID: name}, []placement{place(deviceIndexFor(class), class, name, cfg.Seed)}, scheme, cfg)
	if r.Err != nil {
		panic(r.Err)
	}
	return StandaloneResult{
		Workload:   name,
		Scheme:     scheme,
		FinishPs:   r.Devices[0].FinishPs,
		TotalBytes: r.TotalBytes,
		MetaBytes:  r.MetaBytes,
		Misses:     r.SecCacheMisses,
		Probe:      r.Probe,
	}
}

// FilledMem returns the memory configuration a run would use (the Orin
// default unless overridden), for callers that want to tweak it.
func (c Config) FilledMem() mem.Config {
	return *c.filled().Mem
}
