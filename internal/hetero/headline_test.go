package hetero

import (
	"testing"

	"unimem/internal/core"
)

// TestHeadlineNumbers asserts the paper's headline orderings over a
// scenario sample (band assertions; EXPERIMENTS.md records exact values).
// The paper: Ours cuts 14.2% from Conventional; adding subtree
// optimizations cuts 21.1%; Ours beats Adaptive (8.5%), CommonCTR (7.7%)
// and Multi(CTR)-only (7.8%).
func TestHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep")
	}
	cfg := Config{Scale: 0.1, Seed: 1}
	schemes := []core.Scheme{
		core.Conventional, core.MultiCTROnly, core.Ours,
		core.Adaptive, core.CommonCTR, core.BMFUnused, core.BMFUnusedOurs,
	}
	rs := sweep(t, SampleScenarios(16), schemes, cfg)

	conv := MeanAcross(rs, core.Conventional)
	ours := MeanAcross(rs, core.Ours)
	bmfOurs := MeanAcross(rs, core.BMFUnusedOurs)
	bmf := MeanAcross(rs, core.BMFUnused)
	multiCTR := MeanAcross(rs, core.MultiCTROnly)
	adaptive := MeanAcross(rs, core.Adaptive)
	commonCTR := MeanAcross(rs, core.CommonCTR)

	if conv <= 1.2 {
		t.Errorf("conventional overhead %.3f too small: protection must hurt a heterogeneous mix", conv)
	}
	if ours >= conv {
		t.Errorf("Ours (%.3f) does not beat Conventional (%.3f)", ours, conv)
	}
	if bmfOurs >= ours {
		t.Errorf("BMF&Unused+Ours (%.3f) does not beat Ours (%.3f)", bmfOurs, ours)
	}
	if bmfOurs >= bmf+0.01 {
		t.Errorf("BMF&Unused+Ours (%.3f) clearly worse than BMF&Unused alone (%.3f)", bmfOurs, bmf)
	}
	if ours >= adaptive {
		t.Errorf("Ours (%.3f) does not beat Adaptive (%.3f)", ours, adaptive)
	}
	if ours >= commonCTR {
		t.Errorf("Ours (%.3f) does not beat CommonCTR (%.3f)", ours, commonCTR)
	}
	if ours >= multiCTR {
		t.Errorf("Ours (%.3f) does not beat Multi(CTR)-only (%.3f)", ours, multiCTR)
	}
	// Traffic and security-cache misses follow the same direction.
	if TrafficRatioAcross(rs, core.Ours) >= TrafficRatioAcross(rs, core.Conventional) {
		t.Error("Ours does not reduce traffic vs Conventional")
	}
	if MissRatioAcross(rs, core.Ours, core.Conventional) >= 1 {
		t.Error("Ours does not reduce security-cache misses vs Conventional")
	}
	if MissRatioAcross(rs, core.BMFUnusedOurs, core.Conventional) >= MissRatioAcross(rs, core.Ours, core.Conventional) {
		t.Error("subtree optimizations do not further reduce misses")
	}
}

// TestCoarseGainsExceedFine asserts the Fig. 19 gradient: multi-granular
// gains grow from the fine (ff) to the coarse (cc) scenario groups.
func TestCoarseGainsExceedFine(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep")
	}
	cfg := Config{Scale: 0.1, Seed: 1}
	gain := func(sc Scenario) float64 {
		base := Run(sc, core.Unsecure, cfg)
		cv := Normalize(Run(sc, core.Conventional, cfg), base)
		ours := Normalize(Run(sc, core.Ours, cfg), base)
		return (cv.Mean - ours.Mean) / cv.Mean
	}
	sel := SelectedScenarios()
	var fine, coarse float64
	for _, sc := range sel[:3] { // ff group
		fine += gain(sc)
	}
	for _, sc := range sel[8:] { // cc group
		coarse += gain(sc)
	}
	fine /= 3
	coarse /= 3
	if coarse <= fine {
		t.Fatalf("coarse-group gain (%.3f) does not exceed fine-group gain (%.3f)", coarse, fine)
	}
	if coarse <= 0.02 {
		t.Fatalf("coarse-group gain (%.3f) too small: the mechanism is not engaging", coarse)
	}
}

// TestOracleUpperBound asserts that perfect per-partition knowledge is at
// least as good as dynamic detection on a coarse scenario.
func TestOracleUpperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling pass")
	}
	cfg := Config{Scale: 0.08, Seed: 1}
	sc := SelectedScenarios()[9] // cc2
	base := Run(sc, core.Unsecure, cfg)
	ours := Normalize(Run(sc, core.Ours, cfg), base)
	oracle := Normalize(Run(sc, core.PerPartitionOracle, cfg), base)
	if oracle.Mean > ours.Mean*1.02 {
		t.Fatalf("oracle (%.3f) clearly worse than dynamic detection (%.3f)", oracle.Mean, ours.Mean)
	}
}

// TestSwitchCostsCharged asserts that the free-switching ablation is never
// slower than Ours with charges (Fig. 20's premise).
func TestSwitchCostsCharged(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep")
	}
	cfg := Config{Scale: 0.1, Seed: 1}
	var ours, free float64
	for _, sc := range SelectedScenarios()[5:8] { // c group: switches happen
		base := Run(sc, core.Unsecure, cfg)
		ours += Normalize(Run(sc, core.Ours, cfg), base).Mean
		free += Normalize(Run(sc, core.OursNoSwitch, cfg), base).Mean
	}
	if free > ours+0.005 {
		t.Fatalf("free switching (%.3f) slower than charged switching (%.3f)", free/3, ours/3)
	}
}
