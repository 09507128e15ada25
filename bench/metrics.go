package main

import (
	"math"
	"sort"
)

// metric is one reported quantity. BENCHMARK.json lists the same table;
// TestBenchmarkJSONMatchesTables keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run of every workload. An "op" is one closed-loop operation of
// the workload: one hetero.Run, one sweep, or one Protected Read/Write. A
// "request" is one memory transaction through a protection engine:
// simulated device requests for the timing workloads, Read/Write calls for
// the functional ones.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"op_us_p50", "us", "lower", 0.25},
	{"op_us_p90", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics, named layer.metric. Every workload
// reports all of them; a layer the workload never calls reads 0. Counts are
// per op.
var perLayer = []metric{
	{"sim.events", "count", "lower", 0},
	{"sim.step_self_ns", "ns/event", "lower", 0},
	{"sim.queue_depth_mean", "events", "lower", 0},
	{"sim.self_frac", "frac", "lower", 0},
	{"core.submits", "count", "lower", 0},
	{"core.submit_ns", "ns/call", "lower", 0},
	{"core.submit_frac", "frac", "lower", 0},
	{"core.switches", "count", "lower", 0},
	{"core.detections", "count", "lower", 0},
	{"core.overfetch_beats", "count", "lower", 0},
	{"core.sim_read_lat_ns_mean", "sim_ns", "lower", 0},
	{"tree.walks", "count", "lower", 0},
	{"tree.levels_per_walk", "levels", "lower", 0},
	{"tree.fetch_per_level", "ratio", "lower", 0},
	{"tree.ns_per_level", "ns/level", "lower", 0},
	{"cache.accesses", "count", "lower", 0},
	{"cache.meta_hit_ratio", "ratio", "higher", 0},
	{"cache.mac_hit_ratio", "ratio", "higher", 0},
	{"cache.gt_hit_ratio", "ratio", "higher", 0},
	{"cache.ns_per_access", "ns/access", "lower", 0},
	{"meta.ns_per_call", "ns/call", "lower", 0},
	{"mem.beats", "count", "lower", 0},
	{"mem.meta_beat_frac", "frac", "lower", 0},
	{"mem.busy_frac", "frac", "lower", 0},
	{"mem.ns_per_beat", "ns/beat", "lower", 0},
	{"tracker.calls", "count", "lower", 0},
	{"tracker.detections", "count", "lower", 0},
	{"tracker.ns_per_call", "ns/call", "lower", 0},
	{"workload.next_ns", "ns/call", "lower", 0},
	{"hetero.jobs", "count", "lower", 0},
	{"hetero.job_ms_p50", "ms/job", "lower", 0},
	{"hetero.parallel_eff", "frac", "higher", 0},
	{"secmem.read_ns", "ns/call", "lower", 0},
	{"secmem.write_ns", "ns/call", "lower", 0},
	{"secmem.apply_detection_ns", "ns/call", "lower", 0},
	{"secmem.verified_per_op", "count", "lower", 0},
	{"secmem.unit_blocks_mean", "blocks", "lower", 0},
	{"secmem.switches", "count", "lower", 0},
	{"crypto.block_mac_ns", "ns/call", "lower", 0},
	{"crypto.nested_fold_ns", "ns/call", "lower", 0},
	{"crypto.node_mac_ns", "ns/call", "lower", 0},
	{"crypto.otp_ns", "ns/call", "lower", 0},
	{"crypto.est_frac", "frac", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "frac", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// quantiles cuts sorted-or-not xs into n groups the way Python's
// statistics.quantiles(xs, n=n) does with its default "exclusive" method,
// so quartiles computed here match ones computed from a record in Python.
func quantiles(xs []float64, n int) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	out := make([]float64, n-1)
	if ld == 0 {
		return out
	}
	if ld == 1 {
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out
}

// mean returns the average of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantiles(xs, 2)[0]
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}
