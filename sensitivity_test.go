package unimem

// Sensitivity and ablation benchmarks for the design choices DESIGN.md
// calls out: security-cache sizing, tracker provisioning, the open-unit
// streaming buffer, subtree root-register count, and memory bandwidth.
// These go beyond the paper's figures; they answer "which parameter is
// load-bearing" questions a hardware team would ask next.

import (
	"testing"

	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/mem"
	"unimem/internal/stats"
	"unimem/internal/tracker"
)

func sensitivityMean(b *testing.B, scheme core.Scheme, opts core.Options) float64 {
	cfg := hetero.Config{Scale: 0.08, Seed: 1, Engine: opts}
	var xs []float64
	for _, sc := range hetero.SelectedScenarios()[8:] { // cc group: mechanism engaged
		base := hetero.Run(sc, core.Unsecure, cfg)
		xs = append(xs, hetero.Normalize(hetero.Run(sc, scheme, cfg), base).Mean)
	}
	return stats.Mean(xs)
}

// BenchmarkSensitivityMetadataCache sweeps the security-metadata cache
// (paper: 8KB) to show how much of the conventional scheme's pain is
// cache pressure versus fundamental traffic.
func BenchmarkSensitivityMetadataCache(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep")
	}
	var m4, m8, m32 float64
	for i := 0; i < b.N; i++ {
		m4 = sensitivityMean(b, core.Conventional, core.Options{MetaCacheBytes: 4 << 10})
		m8 = sensitivityMean(b, core.Conventional, core.Options{MetaCacheBytes: 8 << 10})
		m32 = sensitivityMean(b, core.Conventional, core.Options{MetaCacheBytes: 32 << 10})
	}
	b.ReportMetric(m4, "conv-4KB")
	b.ReportMetric(m8, "conv-8KB")
	b.ReportMetric(m32, "conv-32KB")
}

// BenchmarkSensitivityTrackerEntries sweeps the access tracker size
// (paper: 12 entries = 3 per processing unit). Too few entries evict
// windows before streams complete, losing detections.
func BenchmarkSensitivityTrackerEntries(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep")
	}
	var e4, e12, e48 float64
	for i := 0; i < b.N; i++ {
		e4 = sensitivityMean(b, core.Ours, core.Options{Tracker: tracker.Config{Entries: 4}})
		e12 = sensitivityMean(b, core.Ours, core.Options{Tracker: tracker.Config{Entries: 12}})
		e48 = sensitivityMean(b, core.Ours, core.Options{Tracker: tracker.Config{Entries: 48}})
	}
	b.ReportMetric(e4, "ours-4entries")
	b.ReportMetric(e12, "ours-12entries")
	b.ReportMetric(e48, "ours-48entries")
}

// BenchmarkSensitivityOpenUnits sweeps the streaming-verification buffer.
// One entry still works (a single stream at a time); more entries absorb
// interleaved streams from four devices.
func BenchmarkSensitivityOpenUnits(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep")
	}
	var u1, u16 float64
	for i := 0; i < b.N; i++ {
		u1 = sensitivityMean(b, core.Ours, core.Options{OpenUnits: 1})
		u16 = sensitivityMean(b, core.Ours, core.Options{OpenUnits: 16})
	}
	b.ReportMetric(u1, "ours-1buf")
	b.ReportMetric(u16, "ours-16buf")
}

// BenchmarkSensitivityBandwidth sweeps memory bandwidth: protection
// overhead is bandwidth pressure, so doubling channels should shrink the
// conventional scheme's overhead more than Ours'.
func BenchmarkSensitivityBandwidth(b *testing.B) {
	if testing.Short() {
		b.Skip("sweep")
	}
	run := func(channels int, scheme core.Scheme) float64 {
		m := mem.OrinConfig()
		m.Channels = channels
		cfg := hetero.Config{Scale: 0.08, Seed: 1, Mem: &m}
		var xs []float64
		for _, sc := range hetero.SelectedScenarios()[8:] {
			base := hetero.Run(sc, core.Unsecure, cfg)
			xs = append(xs, hetero.Normalize(hetero.Run(sc, scheme, cfg), base).Mean)
		}
		return stats.Mean(xs)
	}
	var conv2, conv4, ours2, ours4 float64
	for i := 0; i < b.N; i++ {
		conv2 = run(2, core.Conventional)
		conv4 = run(4, core.Conventional)
		ours2 = run(2, core.Ours)
		ours4 = run(4, core.Ours)
	}
	b.ReportMetric(conv2, "conv-2ch")
	b.ReportMetric(conv4, "conv-4ch")
	b.ReportMetric(ours2, "ours-2ch")
	b.ReportMetric(ours4, "ours-4ch")
}
