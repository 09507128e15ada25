package unimem

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (one benchmark per experiment, backed by internal/report, the
// same code cmd/mgbench prints). Each benchmark reports the experiment's
// headline quantity as custom testing.B metrics, so
//
//	go test -bench=. -benchmem
//
// produces the full paper-versus-measured record; EXPERIMENTS.md archives
// one run. Benchmarks use a scaled sweep — run cmd/mgbench -full for the
// complete 250-scenario space.

import (
	"context"
	"runtime"
	"testing"

	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/report"
	"unimem/internal/stats"
	"unimem/internal/workload"
)

// benchOpts keeps every benchmark at a tractable size; the report package
// defaults Scale to 0.12.
func benchOpts(b *testing.B) report.Options {
	if testing.Short() {
		b.Skip("scenario sweeps are skipped in -short mode")
	}
	return report.Options{Scale: 0.08, Seed: 1, SampleN: 10}
}

func benchCfg() hetero.Config { return hetero.Config{Scale: 0.08, Seed: 1} }

// BenchmarkFig04StreamChunks regenerates Figure 4: the stream-chunk ratio
// of each workload. Reported metric: the NPU-average 32KB-chunk ratio
// (paper: 64.5%).
func BenchmarkFig04StreamChunks(b *testing.B) {
	o := benchOpts(b)
	var npu []float64
	for i := 0; i < b.N; i++ {
		npu = npu[:0]
		for _, name := range workload.NPUNames {
			g, err := workload.ByName(name, o.Scale, o.Seed)
			if err != nil {
				b.Fatal(err)
			}
			m := workload.AnalyzeStreamChunks(g, 0)
			npu = append(npu, m.Frac[meta.Gran32K])
		}
	}
	b.ReportMetric(100*stats.Mean(npu), "npu-32KB-pct")
}

// BenchmarkFig05Breakdown regenerates Figure 5: the conventional-scheme
// overhead split into MAC and counter costs per device class. Reported
// metrics: per-class total overheads (paper: CPU 67.0%, GPU 9.8%,
// NPU 21.1%).
func BenchmarkFig05Breakdown(b *testing.B) {
	benchOpts(b)
	cfg := benchCfg()
	var cpuOv, gpuOv, npuOv float64
	for i := 0; i < b.N; i++ {
		over := func(name string) float64 {
			un := hetero.RunStandalone(name, core.Unsecure, cfg)
			cv := hetero.RunStandalone(name, core.Conventional, cfg)
			return float64(cv.FinishPs)/float64(un.FinishPs) - 1
		}
		cpuOv = over("mcf")
		gpuOv = over("sten")
		npuOv = over("alex")
	}
	b.ReportMetric(100*cpuOv, "cpu-overhead-pct")
	b.ReportMetric(100*gpuOv, "gpu-overhead-pct")
	b.ReportMetric(100*npuOv, "npu-overhead-pct")
}

// BenchmarkFig06PerDevice regenerates Figure 6: static per-device-best vs
// per-partition-best on alex. Reported metric: the per-partition
// advantage over per-device in percent (paper: alex 29.2 points).
func BenchmarkFig06PerDevice(b *testing.B) {
	benchOpts(b)
	cfg := benchCfg()
	var adv float64
	for i := 0; i < b.N; i++ {
		un := hetero.RunStandalone("alex", core.Unsecure, cfg)
		st := hetero.RunStandalone("alex", core.StaticDeviceBest, cfg)
		pp := hetero.RunStandalone("alex", core.PerPartitionOracle, cfg)
		adv = 100 * (float64(st.FinishPs) - float64(pp.FinishPs)) / float64(un.FinishPs)
	}
	b.ReportMetric(adv, "perpart-vs-perdev-pct")
}

// BenchmarkTable2SwitchTypes regenerates Table 2: the granularity-switch
// classification under Ours. Reported metric: correct-prediction ratio
// (paper: 73.5%).
func BenchmarkTable2SwitchTypes(b *testing.B) {
	o := benchOpts(b)
	cfg := benchCfg()
	var correct float64
	for i := 0; i < b.N; i++ {
		var agg core.SwitchStats
		for _, sc := range hetero.SampleScenarios(o.SampleN) {
			s := hetero.Run(sc, core.Ours, cfg).Switches
			agg.DownAll += s.DownAll
			agg.UpWAR += s.UpWAR
			agg.UpWAW += s.UpWAW
			agg.UpRAR += s.UpRAR
			agg.UpRAW += s.UpRAW
			agg.Correct += s.Correct
		}
		correct = 100 * float64(agg.Correct) / float64(agg.Total())
	}
	b.ReportMetric(correct, "correct-pct")
}

// sweepBench runs a scheme sweep once per iteration and reports the mean
// normalized execution time of the headline scheme.
func sweepBench(b *testing.B, schemes []core.Scheme, metrics func([]hetero.SweepResult)) {
	o := benchOpts(b)
	cfg := benchCfg()
	var rs []hetero.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = hetero.SweepParallel(context.Background(), hetero.SampleScenarios(o.SampleN), schemes, cfg, hetero.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	metrics(rs)
}

// BenchmarkFig15CDFPrior regenerates Figure 15: Ours against the prior
// dual-granularity studies. Reported metrics: mean normalized execution
// times (paper: Ours 8.5%/7.7% better than Adaptive/CommonCTR).
func BenchmarkFig15CDFPrior(b *testing.B) {
	sweepBench(b, []core.Scheme{core.Adaptive, core.CommonCTR, core.Ours}, func(rs []hetero.SweepResult) {
		b.ReportMetric(hetero.MeanAcross(rs, core.Ours), "ours-exec")
		b.ReportMetric(hetero.MeanAcross(rs, core.Adaptive), "adaptive-exec")
		b.ReportMetric(hetero.MeanAcross(rs, core.CommonCTR), "commonctr-exec")
	})
}

// BenchmarkFig16PriorBars regenerates Figure 16: traffic and security-
// cache misses against the prior studies, normalized to Ours.
func BenchmarkFig16PriorBars(b *testing.B) {
	schemes := []core.Scheme{core.Adaptive, core.CommonCTR, core.Ours, core.BMFUnused, core.BMFUnusedOurs}
	sweepBench(b, schemes, func(rs []hetero.SweepResult) {
		ours := hetero.TrafficRatioAcross(rs, core.Ours)
		b.ReportMetric(hetero.TrafficRatioAcross(rs, core.Adaptive)/ours, "adaptive-traffic-vs-ours")
		b.ReportMetric(hetero.TrafficRatioAcross(rs, core.BMFUnusedOurs)/ours, "bmf+ours-traffic-vs-ours")
		b.ReportMetric(hetero.MissRatioAcross(rs, core.BMFUnusedOurs, core.Ours), "bmf+ours-miss-vs-ours")
	})
}

// BenchmarkFig17CDFBreakdown regenerates Figure 17: the optimization
// breakdown CDF. Reported metrics: mean overheads of the three headline
// schemes (paper: 33.9% -> 19.6% -> 12.7%).
func BenchmarkFig17CDFBreakdown(b *testing.B) {
	schemes := []core.Scheme{core.Conventional, core.Ours, core.BMFUnusedOurs}
	sweepBench(b, schemes, func(rs []hetero.SweepResult) {
		b.ReportMetric(100*(hetero.MeanAcross(rs, core.Conventional)-1), "conv-overhead-pct")
		b.ReportMetric(100*(hetero.MeanAcross(rs, core.Ours)-1), "ours-overhead-pct")
		b.ReportMetric(100*(hetero.MeanAcross(rs, core.BMFUnusedOurs)-1), "bmf+ours-overhead-pct")
	})
}

// BenchmarkFig18BreakdownBars regenerates Figure 18: per-optimization
// execution, traffic, and miss reductions from the conventional scheme.
func BenchmarkFig18BreakdownBars(b *testing.B) {
	schemes := []core.Scheme{core.Conventional, core.StaticDeviceBest, core.MultiCTROnly, core.Ours}
	sweepBench(b, schemes, func(rs []hetero.SweepResult) {
		conv := hetero.MeanAcross(rs, core.Conventional)
		b.ReportMetric(100*(conv-hetero.MeanAcross(rs, core.MultiCTROnly))/conv, "multictr-gain-pct")
		b.ReportMetric(100*(conv-hetero.MeanAcross(rs, core.Ours))/conv, "ours-gain-pct")
		b.ReportMetric(hetero.MissRatioAcross(rs, core.Ours, core.Conventional), "ours-miss-vs-conv")
	})
}

// BenchmarkFig19Selected regenerates Figure 19: the selected-scenario
// analysis. Reported metrics: Ours' gain over conventional for the fine
// and coarse scenario groups (paper: 5.9% vs 24.1%).
func BenchmarkFig19Selected(b *testing.B) {
	benchOpts(b)
	cfg := benchCfg()
	var fine, coarse []float64
	for i := 0; i < b.N; i++ {
		fine, coarse = fine[:0], coarse[:0]
		for j, sc := range hetero.SelectedScenarios() {
			base := hetero.Run(sc, core.Unsecure, cfg)
			cv := hetero.Normalize(hetero.Run(sc, core.Conventional, cfg), base)
			ours := hetero.Normalize(hetero.Run(sc, core.Ours, cfg), base)
			gain := 100 * (cv.Mean - ours.Mean) / cv.Mean
			if j < 5 {
				fine = append(fine, gain)
			} else {
				coarse = append(coarse, gain)
			}
		}
	}
	b.ReportMetric(stats.Mean(fine), "fine-group-gain-pct")
	b.ReportMetric(stats.Mean(coarse), "coarse-group-gain-pct")
}

// BenchmarkFig20Ablation regenerates Figure 20: dual-granularity and
// switching-overhead ablations (paper: dual +3.3%, no-switch -4.4%).
func BenchmarkFig20Ablation(b *testing.B) {
	benchOpts(b)
	cfg := benchCfg()
	var dual, nosw float64
	for i := 0; i < b.N; i++ {
		var ours, duals, nosws []float64
		for _, sc := range hetero.SelectedScenarios()[:6] {
			base := hetero.Run(sc, core.Unsecure, cfg)
			ours = append(ours, hetero.Normalize(hetero.Run(sc, core.Ours, cfg), base).Mean)
			duals = append(duals, hetero.Normalize(hetero.Run(sc, core.OursDual, cfg), base).Mean)
			nosws = append(nosws, hetero.Normalize(hetero.Run(sc, core.OursNoSwitch, cfg), base).Mean)
		}
		o := stats.Mean(ours)
		dual = 100 * (stats.Mean(duals) - o) / o
		nosw = 100 * (stats.Mean(nosws) - o) / o
	}
	b.ReportMetric(dual, "dual-delta-pct")
	b.ReportMetric(nosw, "noswitch-delta-pct")
}

// BenchmarkFig21RealWorld regenerates Figure 21: the Finance and
// AutoDrive pipelines (paper: Finance 45.0/24.2/19.6%, AutoDrive
// 41.4/34.5/21.9% overhead for conventional/ours/+subtree).
func BenchmarkFig21RealWorld(b *testing.B) {
	benchOpts(b)
	cfg := benchCfg()
	var finConv, finOurs, finBMF float64
	for i := 0; i < b.N; i++ {
		p := hetero.Finance()
		finConv = 100 * (hetero.NormalizedPipeline(p, core.Conventional, cfg) - 1)
		finOurs = 100 * (hetero.NormalizedPipeline(p, core.Ours, cfg) - 1)
		finBMF = 100 * (hetero.NormalizedPipeline(p, core.BMFUnusedOurs, cfg) - 1)
	}
	b.ReportMetric(finConv, "finance-conv-pct")
	b.ReportMetric(finOurs, "finance-ours-pct")
	b.ReportMetric(finBMF, "finance-bmf+ours-pct")
}

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
// enabled paths against.
func BenchmarkProbeOff(b *testing.B) {
	cfg := benchCfg()
	sc := hetero.SelectedScenarios()[8] // cc1
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
