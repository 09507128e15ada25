package core

import (
	"unimem/internal/probe"
	"unimem/internal/sim"
)

// Per-device accounting and the engine-wide latency histogram. The paper
// reports per-device normalized execution times (Fig. 19 c); these
// counters let the harness and cmd/mgsim attribute protection costs to the
// processing unit that paid them.

// DeviceStats aggregates one device's transactions through the engine.
type DeviceStats struct {
	Requests uint64
	Reads    uint64
	Writes   uint64
	// ReadLatencyPs accumulates read-transaction latency (issue to
	// completion, including verification).
	ReadLatencyPs sim.Time
	// MaxReadLatencyPs is the worst single read.
	MaxReadLatencyPs sim.Time
}

// MeanReadLatencyPs returns the average read latency.
func (d *DeviceStats) MeanReadLatencyPs() float64 {
	if d.Reads == 0 {
		return 0
	}
	return float64(d.ReadLatencyPs) / float64(d.Reads)
}

// LatencyHistogram is the power-of-two read-latency histogram the engine
// fills; the probe collector's summary uses the same type.
type LatencyHistogram = probe.LatencyHistogram

// DeviceStats returns device i's accounting (zero value out of range).
func (e *Engine) DeviceStats(i int) DeviceStats {
	if i < 0 || i >= len(e.perDev) {
		return DeviceStats{}
	}
	return e.perDev[i]
}

// Latencies exposes the read-latency histogram.
func (e *Engine) Latencies() *LatencyHistogram { return &e.lat }

func (e *Engine) recordIssue(r Request) {
	if r.Device >= 0 && r.Device < len(e.perDev) {
		d := &e.perDev[r.Device]
		d.Requests++
		if r.Write {
			d.Writes++
		} else {
			d.Reads++
		}
	}
}

func (e *Engine) recordReadLatency(dev int, d sim.Time) {
	e.lat.Add(d)
	if dev >= 0 && dev < len(e.perDev) {
		s := &e.perDev[dev]
		s.ReadLatencyPs += d
		s.MaxReadLatencyPs = max(s.MaxReadLatencyPs, d)
	}
}
