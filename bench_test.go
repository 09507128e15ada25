package unimem

// Host-time benchmarks of the simulator itself: the parallel sweep
// scheduler, the timing engine with and without probes, and the
// functional layer's read and write paths. The paper's tables and figures
// are not benchmarks: cmd/mgbench regenerates them (internal/report), and
// its golden test pins the archived run EXPERIMENTS.md records.
//
//	go test -run '^$' -bench . -benchmem

import (
	"context"
	"runtime"
	"testing"

	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/probe"
)

func benchCfg() hetero.Config { return hetero.Config{Scale: 0.08, Seed: 1} }

// benchSweepWorkers runs the Fig. 15-style sweep on the parallel engine
// with a fixed worker count; comparing the Workers1 and WorkersMax
// variants measures the scheduler's wall-clock speedup (>=2x on a
// multi-core runner; the two coincide on one CPU). Results are asserted
// identical by TestSweepParallelMatchesSequential in internal/hetero.
func benchSweepWorkers(b *testing.B, workers int) {
	if testing.Short() {
		b.Skip("scenario sweeps are skipped in -short mode")
	}
	scs := hetero.SampleScenarios(8)
	schemes := []core.Scheme{core.Conventional, core.Ours}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hetero.SweepParallel(context.Background(), scs, schemes, cfg, hetero.SweepOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWorkers1 is the sequential-equivalent baseline.
func BenchmarkSweepWorkers1(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkSweepWorkersMax uses one worker per CPU.
func BenchmarkSweepWorkersMax(b *testing.B) { benchSweepWorkers(b, runtime.GOMAXPROCS(0)) }

// BenchmarkProtectedWrite measures the functional layer's write path
// (real AES-CTR + HMAC + tree reseal). The whole region is written once
// and the tracker flushed before timing, so every chunk is already
// promoted to 32KB and each timed write reseals one coarse unit; without
// that, iterations past the first pass would pay the promotions and the
// cost per op would depend on b.N.
func BenchmarkProtectedWrite(b *testing.B) {
	p := NewProtected(1<<20, 1)
	buf := make([]byte, BlockSize)
	for a := uint64(0); a < 1<<20; a += BlockSize {
		if err := p.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.FlushDetection(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(uint64(i%16384)*BlockSize, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtectedRead measures the functional verify+decrypt path.
func BenchmarkProtectedRead(b *testing.B) {
	p := NewProtected(1<<20, 1)
	buf := make([]byte, BlockSize)
	for a := uint64(0); a < 1<<20; a += BlockSize {
		if err := p.Write(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Read(uint64(i%16384) * BlockSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeOff measures the timing engine's simulation rate on the
// cc1/Ours run with no probe attached (benchCfg leaves Collect, NewProbe
// and Engine.Probe unset): the production setting, in which every
// emission site reduces to one predictable nil-check branch. It is the
// baseline BenchmarkProbeCollector and BenchmarkProbeTrace price the
// enabled paths against. It reports allocations on every run: a run's
// allocations are its setup, so allocs/op moving means a per-request
// allocation crept in.
func BenchmarkProbeOff(b *testing.B) {
	cfg := benchCfg()
	sc := hetero.SelectedScenarios()[8] // cc1
	b.ReportAllocs()
	b.ResetTimer()
	var reqs uint64
	for i := 0; i < b.N; i++ {
		r := hetero.Run(sc, core.Ours, cfg)
		reqs = r.Switches.Total()
	}
	b.ReportMetric(float64(reqs), "classified-requests")
}

// BenchmarkProbeCollector measures the same run with the histogram
// collector attached (the -breakdown path): the full event stream reduced
// into a Summary. The delta over BenchmarkProbeOff is the price of
// observability when it is actually on.
func BenchmarkProbeCollector(b *testing.B) {
	cfg := benchCfg()
	cfg.Collect = true
	sc := hetero.SelectedScenarios()[8] // cc1
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		r := hetero.Run(sc, core.Ours, cfg)
		events = r.Probe.Events
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkProbeTrace measures the run with a bounded ring trace attached
// (the -events path).
func BenchmarkProbeTrace(b *testing.B) {
	cfg := benchCfg()
	cfg.NewProbe = func(hetero.Scenario, core.Scheme) probe.Probe {
		return probe.NewTrace(4096)
	}
	sc := hetero.SelectedScenarios()[8] // cc1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hetero.Run(sc, core.Ours, cfg)
	}
}
