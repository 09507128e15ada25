package hetero

import (
	"math"
	"testing"

	"unimem/internal/core"
	"unimem/internal/mem"
	"unimem/internal/tracker"
	"unimem/internal/workload"
)

// TestNormalizeZeroBaselineDevice is the regression test for the NaN/Inf
// leak: a device with an empty trace finishes at time 0 in the unsecured
// baseline, and the old ratio divided by it unguarded.
func TestNormalizeZeroBaselineDevice(t *testing.T) {
	var base, res RunResult
	base.Devices = make([]DeviceResult, 4)
	res.Devices = make([]DeviceResult, 4)
	for i := 0; i < 3; i++ {
		base.Devices[i].FinishPs = 1000
		res.Devices[i].FinishPs = 1500
	}
	// Device 3: empty trace, idle in both runs.
	base.Devices[3].FinishPs = 0
	res.Devices[3].FinishPs = 0
	base.TotalBytes, res.TotalBytes = 100, 150

	n := Normalize(res, base)
	if math.IsNaN(n.Mean) || math.IsInf(n.Mean, 0) {
		t.Fatalf("Mean = %v, NaN/Inf leaked through an idle device", n.Mean)
	}
	if n.Mean != 1.5 {
		t.Fatalf("Mean = %v, want 1.5 (idle device excluded)", n.Mean)
	}
	if n.PerDevice[3] != 1 {
		t.Fatalf("PerDevice[3] = %v, want neutral 1", n.PerDevice[3])
	}
	for i := 0; i < 3; i++ {
		if n.PerDevice[i] != 1.5 {
			t.Fatalf("PerDevice[%d] = %v, want 1.5", i, n.PerDevice[i])
		}
	}
}

// TestNormalizeAllIdle asserts the fully degenerate case reports the
// neutral mean instead of 0.
func TestNormalizeAllIdle(t *testing.T) {
	var base, res RunResult
	n := Normalize(res, base)
	if n.Mean != 1 {
		t.Fatalf("Mean = %v, want 1 for an all-idle scenario", n.Mean)
	}
}

// TestMissRatioAcrossUnsecureBase is the regression test for the silent-0
// bug: Sweep stores the baseline in SweepResult.Unsecure, not ByScheme, so
// MissRatioAcross with base == core.Unsecure used to average nothing.
func TestMissRatioAcrossUnsecureBase(t *testing.T) {
	mk := func(unsecureMisses, oursMisses uint64) SweepResult {
		var un RunResult
		un.SecCacheMisses = unsecureMisses
		var ours RunResult
		ours.SecCacheMisses = oursMisses
		return SweepResult{
			Unsecure: un,
			ByScheme: map[core.Scheme]Normalized{
				core.Ours: {Scheme: core.Ours, Raw: ours},
			},
		}
	}
	rs := []SweepResult{mk(100, 50), mk(200, 100)}

	if got := MissRatioAcross(rs, core.Ours, core.Unsecure); got != 0.5 {
		t.Fatalf("MissRatioAcross(Ours, Unsecure) = %v, want 0.5", got)
	}
	if got := MissRatioAcross(rs, core.Unsecure, core.Ours); got != 2 {
		t.Fatalf("MissRatioAcross(Unsecure, Ours) = %v, want 2", got)
	}
	// Scheme-to-scheme ratios keep working.
	if got := MissRatioAcross(rs, core.Ours, core.Ours); got != 1 {
		t.Fatalf("MissRatioAcross(Ours, Ours) = %v, want 1", got)
	}
	// A zero-miss base contributes nothing rather than dividing by zero.
	rs = append(rs, mk(0, 10))
	if got := MissRatioAcross(rs, core.Ours, core.Unsecure); got != 0.5 {
		t.Fatalf("zero-miss base skewed the mean: %v", got)
	}
}

// TestConfigFingerprintCoversRunState is the regression test for the
// stale staticBestCache key: every config knob that changes a simulation
// outcome must change the fingerprint, and identical configs must agree.
func TestConfigFingerprintCoversRunState(t *testing.T) {
	base := Config{Scale: 0.05, Seed: 1}
	if base.fingerprint() != (Config{Scale: 0.05, Seed: 1}).fingerprint() {
		t.Fatal("identical configs produce different fingerprints")
	}
	oneChannel := mem.OrinConfig()
	oneChannel.Channels = 1
	variants := map[string]Config{
		"scale":   {Scale: 0.06, Seed: 1},
		"seed":    {Scale: 0.05, Seed: 2},
		"mem":     {Scale: 0.05, Seed: 1, Mem: &oneChannel},
		"engine":  {Scale: 0.05, Seed: 1, Engine: core.Options{MetaCacheBytes: 16 << 10}},
		"tracker": {Scale: 0.05, Seed: 1, Engine: core.Options{Tracker: tracker.Config{Entries: 16}}},
	}
	seen := map[string]string{base.fingerprint(): "base"}
	for name, cfg := range variants {
		fp := cfg.fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestBestStaticNotStaleAcrossConfigs asserts the memoized exhaustive
// search keys on the full config: priming the cache under one config must
// not change what a different config computes.
func TestBestStaticNotStaleAcrossConfigs(t *testing.T) {
	resetWarmupCaches()
	defer resetWarmupCaches()

	cfgA := Config{Scale: 0.03, Seed: 1}
	cfgB := Config{Scale: 0.03, Seed: 99}

	alex := placement{index: 2, class: workload.NPU, workload: "alex"}

	// Cold results for both configs.
	coldA := bestStaticFor(alex, cfgA)
	resetWarmupCaches()
	coldB := bestStaticFor(alex, cfgB)

	// Prime with A, then query B: must equal B's cold result, not A's
	// cache entry (they may coincide by value, but the computation must
	// key separately — assert via the deterministic cold answer).
	resetWarmupCaches()
	if got := bestStaticFor(alex, cfgA); got != coldA {
		t.Fatalf("cfgA not deterministic: %v vs %v", got, coldA)
	}
	if got := bestStaticFor(alex, cfgB); got != coldB {
		t.Fatalf("cfgB after priming with cfgA = %v, want cold result %v", got, coldB)
	}

	// Same workload on a different device index keys separately too (the
	// index offsets the trace seed): it gets a memo entry of its own.
	before := len(staticBest.m)
	bestStaticFor(placement{index: 3, class: workload.NPU, workload: "alex"}, cfgA)
	if len(staticBest.m) != before+1 {
		t.Fatal("device index not part of the cache key")
	}
}

// TestProfileTableMemoizedCopies asserts the oracle profile is memoized
// but each run receives a private table.
func TestProfileTableMemoizedCopies(t *testing.T) {
	resetWarmupCaches()
	defer resetWarmupCaches()
	sc := SelectedScenarios()[9] // cc2: coarse, detections guaranteed
	cfg := Config{Scale: 0.03, Seed: 1}
	t1 := profileTable(sc.placements(cfg.Seed), cfg)
	t2 := profileTable(sc.placements(cfg.Seed), cfg)
	if t1 == t2 {
		t.Fatal("profileTable handed out the shared memoized table")
	}
	if t1.Chunks() == 0 {
		t.Fatal("profiling pass detected nothing on a coarse scenario")
	}
	if t1.Chunks() != t2.Chunks() {
		t.Fatalf("memoized copies disagree: %d vs %d chunks", t1.Chunks(), t2.Chunks())
	}
}
