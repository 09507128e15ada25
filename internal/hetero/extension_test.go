package hetero

import (
	"context"
	"strings"
	"testing"

	"unimem/internal/core"
)

// TestMGXVersionedCutsMetadataTraffic is the extensibility proof for the
// data-driven scheme registry: MGXVersioned is one registry row (counter
// source CountersCPUTree), with no edits to the pipeline stages, yet it
// must behave as designed end-to-end — accelerator accesses skip the
// integrity-tree walk (application-managed versions), so an
// accelerator-heavy scenario moves less security metadata than the
// Conventional counter tree.
func TestMGXVersionedCutsMetadataTraffic(t *testing.T) {
	// NPU-heavy mix: the two NPUs and the GPU stream bulk tiles; only the
	// CPU keeps the counter tree under MGX.
	sc := Scenario{ID: "npuheavy", CPU: "xal", GPU: "mm", NPU1: "alex", NPU2: "dlrm"}
	cfg := Config{Scale: 0.03, Seed: 1}
	mgx := Run(sc, core.MGXVersioned, cfg)
	conv := Run(sc, core.Conventional, cfg)
	if mgx.Err != nil || conv.Err != nil {
		t.Fatalf("runs failed: mgx=%v conv=%v", mgx.Err, conv.Err)
	}
	if mgx.MetaBytes == 0 {
		t.Fatal("MGX-versioned moved no metadata at all (MACs expected)")
	}
	if mgx.MetaBytes >= conv.MetaBytes {
		t.Fatalf("MGX-versioned metadata %d >= Conventional %d on accelerator-heavy mix",
			mgx.MetaBytes, conv.MetaBytes)
	}
	// The accelerators' requests carry no tree walk, so the mean validation
	// path must sit strictly below Conventional's.
	if mgx.MeanWalk >= conv.MeanWalk {
		t.Fatalf("MGX-versioned mean walk %.2f >= Conventional %.2f", mgx.MeanWalk, conv.MeanWalk)
	}
}

// TestTruncatedRunReportsError pins the device-drain contract: a run whose
// event loop stops before the traces drain reports the failure through
// RunResult.Err instead of panicking, and carries partial accounting.
func TestTruncatedRunReportsError(t *testing.T) {
	sc := SelectedScenarios()[0]
	cfg := Config{Scale: 0.05, Seed: 1, truncatePs: 1000}
	res := Run(sc, core.Conventional, cfg)
	if res.Err == nil {
		t.Fatal("truncated run reported no error")
	}
	if !strings.Contains(res.Err.Error(), "never drained") {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if len(res.Devices) != len(sc.Devices()) {
		t.Fatalf("partial result has %d devices, want %d", len(res.Devices), len(sc.Devices()))
	}
}

// TestSweepSurfacesTruncatedRun checks the sweep engine converts a
// non-draining run into a sweep error rather than normalizing garbage.
func TestSweepSurfacesTruncatedRun(t *testing.T) {
	cfg := Config{Scale: 0.05, Seed: 1, truncatePs: 1000}
	_, err := SweepParallel(context.Background(), SelectedScenarios()[:1],
		[]core.Scheme{core.Conventional}, cfg, SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("sweep over a truncated run reported no error")
	}
	if !strings.Contains(err.Error(), "never drained") {
		t.Fatalf("unexpected sweep error: %v", err)
	}
}
