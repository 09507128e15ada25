package hetero

import (
	"context"
	"testing"

	"unimem/internal/core"
	"unimem/internal/meta"
)

// testCfg is small enough for unit tests but large enough for detection to
// engage.
var testCfg = Config{Scale: 0.05, Seed: 1}

// sweep runs SweepParallel at the default worker count and fails the test
// on error.
func sweep(t *testing.T, scs []Scenario, schemes []core.Scheme, cfg Config) []SweepResult {
	t.Helper()
	rs, err := SweepParallel(context.Background(), scs, schemes, cfg, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestAllScenariosCount(t *testing.T) {
	all := AllScenarios()
	if len(all) != 250 {
		t.Fatalf("scenarios = %d, want 250 (5x5x10)", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.ID] {
			t.Fatalf("duplicate scenario %s", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestSelectedScenarios(t *testing.T) {
	sel := SelectedScenarios()
	if len(sel) != 11 {
		t.Fatalf("selected = %d, want 11", len(sel))
	}
	// Spot-check against Table 4: cc1 = xal + mm + alex + dlrm.
	var cc1 Scenario
	for _, s := range sel {
		if s.ID == "cc1" {
			cc1 = s
		}
	}
	if cc1.CPU != "xal" || cc1.GPU != "mm" || cc1.NPU1 != "alex" || cc1.NPU2 != "dlrm" {
		t.Fatalf("cc1 = %+v", cc1)
	}
}

func TestSampleScenarios(t *testing.T) {
	if got := len(SampleScenarios(25)); got != 25 {
		t.Fatalf("sample = %d", got)
	}
	if got := len(SampleScenarios(0)); got != 250 {
		t.Fatalf("sample(0) = %d", got)
	}
	if got := len(SampleScenarios(9999)); got != 250 {
		t.Fatalf("sample(9999) = %d", got)
	}
}

func TestRunProducesResults(t *testing.T) {
	sc := SelectedScenarios()[0]
	res := Run(sc, core.Conventional, testCfg)
	for i, d := range res.Devices {
		if d.FinishPs <= 0 || d.Issued == 0 {
			t.Fatalf("device %d idle: %+v", i, d)
		}
	}
	if res.TotalBytes == 0 || res.MetaBytes == 0 {
		t.Fatalf("traffic missing: %+v", res)
	}
	if res.SecCacheMisses == 0 {
		t.Fatal("no security cache misses recorded")
	}
}

func TestUnsecureHasNoMetadataTraffic(t *testing.T) {
	res := Run(SelectedScenarios()[0], core.Unsecure, testCfg)
	if res.MetaBytes != 0 {
		t.Fatalf("unsecure metadata bytes = %d", res.MetaBytes)
	}
}

func TestNormalizeAgainstUnsecure(t *testing.T) {
	sc := SelectedScenarios()[0]
	base := Run(sc, core.Unsecure, testCfg)
	conv := Normalize(Run(sc, core.Conventional, testCfg), base)
	if conv.Mean <= 1.0 {
		t.Fatalf("conventional normalized time = %.3f, want > 1", conv.Mean)
	}
	for i, r := range conv.PerDevice {
		if r < 0.99 {
			t.Fatalf("device %d sped up under protection: %.3f", i, r)
		}
	}
	if conv.TrafficRatio <= 1.0 {
		t.Fatalf("traffic ratio = %.3f, want > 1", conv.TrafficRatio)
	}
}

func TestOursBeatsConventionalOnCoarseScenario(t *testing.T) {
	// cc2 (ray+mm+alex+alex) is the coarsest mix: multi-granularity must
	// clearly win there.
	var cc2 Scenario
	for _, s := range SelectedScenarios() {
		if s.ID == "cc2" {
			cc2 = s
		}
	}
	base := Run(cc2, core.Unsecure, testCfg)
	conv := Normalize(Run(cc2, core.Conventional, testCfg), base)
	ours := Normalize(Run(cc2, core.Ours, testCfg), base)
	if ours.Mean >= conv.Mean {
		t.Fatalf("Ours (%.3f) not better than Conventional (%.3f) on cc2", ours.Mean, conv.Mean)
	}
	if ours.Raw.TotalBytes >= conv.Raw.TotalBytes {
		t.Fatalf("Ours traffic (%d) not below Conventional (%d)", ours.Raw.TotalBytes, conv.Raw.TotalBytes)
	}
}

func TestSweepStructure(t *testing.T) {
	scs := SelectedScenarios()[:2]
	schemes := []core.Scheme{core.Conventional, core.Ours}
	rs := sweep(t, scs, schemes, testCfg)
	if len(rs) != 2 {
		t.Fatalf("sweep results = %d", len(rs))
	}
	for _, r := range rs {
		if len(r.ByScheme) != 2 {
			t.Fatalf("schemes per scenario = %d", len(r.ByScheme))
		}
	}
	if MeanAcross(rs, core.Conventional) <= 1 {
		t.Fatal("conventional mean <= 1")
	}
	if len(MeansOf(rs, core.Ours)) != 2 {
		t.Fatal("MeansOf wrong length")
	}
	if TrafficRatioAcross(rs, core.Conventional) <= 1 {
		t.Fatal("traffic ratio <= 1")
	}
	if MissRatioAcross(rs, core.Ours, core.Conventional) <= 0 {
		t.Fatal("miss ratio not positive")
	}
}

func TestBestStaticGransCachedAndSane(t *testing.T) {
	sc := SelectedScenarios()[0]
	g1 := BestStaticGrans(sc, testCfg)
	g2 := BestStaticGrans(sc, testCfg)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("static search not deterministic")
		}
		if !g1[i].Valid() {
			t.Fatalf("invalid granularity %v", g1[i])
		}
	}
}

func TestStaticDeviceBestRuns(t *testing.T) {
	sc := SelectedScenarios()[5] // c1 has alex: coarse NPU
	base := Run(sc, core.Unsecure, testCfg)
	static := Normalize(Run(sc, core.StaticDeviceBest, testCfg), base)
	if static.Mean <= 1 {
		t.Fatalf("static normalized = %.3f", static.Mean)
	}
}

func TestOracleRuns(t *testing.T) {
	sc := SelectedScenarios()[8] // cc1
	base := Run(sc, core.Unsecure, testCfg)
	oracle := Normalize(Run(sc, core.PerPartitionOracle, testCfg), base)
	conv := Normalize(Run(sc, core.Conventional, testCfg), base)
	if oracle.Mean >= conv.Mean {
		t.Fatalf("oracle (%.3f) not better than conventional (%.3f)", oracle.Mean, conv.Mean)
	}
}

// A timing run's allocations are its setup (traces, maps, caches, pools
// and the event heap growing), not a cost per simulated request: one
// cc1/Ours run at scale 0.08 issues 3,328 device requests and allocates
// about 650 objects. The bound catches a closure per request or per event
// creeping back into the device issuers, the engine or the simulation
// kernel (two closures per request in the issuers made it 7,346).
func TestRunAllocatesOnlyInSetup(t *testing.T) {
	sc := SelectedScenarios()[8] // cc1
	cfg := Config{Scale: 0.08, Seed: 1}
	if avg := testing.AllocsPerRun(1, func() { Run(sc, core.Ours, cfg) }); avg >= 1500 {
		t.Fatalf("one cc1/Ours run allocates %.0f objects, want fewer than 1,500", avg)
	}
}

func TestScenarioChunkMix(t *testing.T) {
	sel := SelectedScenarios()
	ff1 := ScenarioChunkMix(sel[0], 0.05, 1)
	cc2 := ScenarioChunkMix(sel[9], 0.05, 1)
	if ff1.Requests == 0 || cc2.Requests == 0 {
		t.Fatal("empty mixes")
	}
	if cc2.Coarse() <= ff1.Coarse() {
		t.Fatalf("cc2 coarse (%.3f) should exceed ff1 coarse (%.3f)", cc2.Coarse(), ff1.Coarse())
	}
}

func TestPipelinesRun(t *testing.T) {
	for _, p := range []Pipeline{Finance(), AutoDrive()} {
		un := RunPipeline(p, core.Unsecure, testCfg)
		conv := RunPipeline(p, core.Conventional, testCfg)
		ours := RunPipeline(p, core.Ours, testCfg)
		oracle := RunPipeline(p, core.PerPartitionOracle, testCfg)
		if len(un.StageEndPs) != 3 {
			t.Fatalf("%s: stages = %d", p.Name, len(un.StageEndPs))
		}
		if conv.TotalPs <= un.TotalPs {
			t.Fatalf("%s: conventional (%d) not slower than unsecure (%d)", p.Name, conv.TotalPs, un.TotalPs)
		}
		if ours.TotalPs >= conv.TotalPs {
			t.Fatalf("%s: ours (%d) not faster than conventional (%d)", p.Name, ours.TotalPs, conv.TotalPs)
		}
		// The oracle runs on the table profiled from the pipeline itself.
		if oracle.TotalPs >= conv.TotalPs {
			t.Fatalf("%s: Per-partition-best (%d) not faster than conventional (%d)", p.Name, oracle.TotalPs, conv.TotalPs)
		}
	}
}

// TestRunUnknownWorkload asserts a bad workload name is an error at the
// boundary: Run reports it through Err before any warmup pass runs (the
// warmup schemes would otherwise hit it inside their search), and a sweep
// fails with the same plain error instead of a recovered panic.
func TestRunUnknownWorkload(t *testing.T) {
	sc := Scenario{ID: "bad", CPU: "nosuch", GPU: "mm", NPU1: "alex", NPU2: "dlrm"}
	const want = `hetero: workload: unknown workload "nosuch"`
	for _, s := range []core.Scheme{core.Conventional, core.StaticDeviceBest, core.PerPartitionOracle} {
		res := Run(sc, s, testCfg)
		if res.Err == nil || res.Err.Error() != want {
			t.Errorf("%v: Err = %v, want %s", s, res.Err, want)
		}
	}
	_, err := SweepParallel(context.Background(), []Scenario{sc}, []core.Scheme{core.StaticDeviceBest}, testCfg, SweepOptions{Workers: 1})
	if err == nil || err.Error() != want {
		t.Fatalf("sweep err = %v, want %s", err, want)
	}
}

func TestMaxFinish(t *testing.T) {
	res := Run(SelectedScenarios()[0], core.Unsecure, testCfg)
	m := res.MaxFinish()
	for _, d := range res.Devices {
		if d.FinishPs > m {
			t.Fatal("MaxFinish not maximal")
		}
	}
}

func TestMetaGranImported(t *testing.T) {
	// Guard: device stride leaves each quadrant chunk-aligned.
	if deviceStride%meta.ChunkSize != 0 {
		t.Fatal("device stride not chunk aligned")
	}
}
