package hetero

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unimem/internal/core"
	"unimem/internal/probe"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/hetero -run TestGoldenEntryPoints -update
var update = flag.Bool("update", false, "rewrite golden files")

// digest is a short stable hash of a value's %+v rendering (maps print in
// key order, so tables and histograms render deterministically).
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))[:16]
}

// probeDigest hashes the dereferenced summary: %+v of the pointer would
// print its address.
func probeDigest(s *probe.Summary) string {
	if s == nil {
		return "none"
	}
	return digest(*s)
}

// TestGoldenEntryPoints pins the exact outputs of every simulation entry
// point — scenario runs (with probes), the two warmup passes, standalone
// runs and pipelines — under every scheme in the registry, so a change to
// how runs are assembled shows up as a diff here rather than only as a
// shifted inequality elsewhere.
func TestGoldenEntryPoints(t *testing.T) {
	cfg := Config{Scale: 0.04, Seed: 1, Collect: true}
	var b strings.Builder
	byID := map[string]Scenario{}
	for _, sc := range SelectedScenarios() {
		byID[sc.ID] = sc
	}
	for _, id := range []string{"ff1", "c1", "cc1"} {
		sc := byID[id]
		tbl := profileTable(sc.placements(cfg.Seed), cfg)
		fmt.Fprintf(&b, "warmup %s static=%v profile=%d/%s\n",
			id, BestStaticGrans(sc, cfg), tbl.Chunks(), digest(tbl))
		for _, s := range core.Schemes {
			r := Run(sc, s, cfg)
			ps := r.Probe
			r.Probe = nil
			fmt.Fprintf(&b, "run %s %s: end=%d bytes=%d meta=%d misses=%d det=%d err=%v result=%s probe=%s\n",
				id, s, r.MaxFinish(), r.TotalBytes, r.MetaBytes, r.SecCacheMisses, r.Detections, r.Err,
				digest(r), probeDigest(ps))
		}
	}
	for _, name := range []string{"mcf", "ray", "mm", "syr2k", "alex", "ncf"} {
		for _, s := range core.Schemes {
			r := RunStandalone(name, s, cfg)
			ps := r.Probe
			r.Probe = nil
			fmt.Fprintf(&b, "standalone %s %s: %+v probe=%s\n", name, s, r, probeDigest(ps))
		}
	}
	for _, p := range []Pipeline{Finance(), AutoDrive()} {
		for _, s := range core.Schemes {
			r := RunPipeline(p, s, cfg)
			fmt.Fprintf(&b, "pipeline %s %s: stages=%v total=%d bytes=%d\n",
				p.Name, s, r.StageEndPs, r.TotalPs, r.TotalBytes)
		}
	}

	path := filepath.Join("testdata", "entrypoints.golden")
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
