package hetero

import (
	"unimem/internal/core"
	"unimem/internal/stats"
)

// Normalized is a scheme's outcome relative to the unsecured run — the
// paper's primary metric (section 5.2): each device's execution time is
// divided by its unsecured execution time, then the four are averaged.
type Normalized struct {
	Scenario Scenario
	Scheme   core.Scheme
	// PerDevice is finish(scheme)/finish(unsecure) per device,
	// index-aligned with the scenario's device list.
	PerDevice []float64
	// Mean is the average of PerDevice — the "normalized execution time".
	Mean float64
	// TrafficRatio is total traffic relative to the unsecured run.
	TrafficRatio float64
	// Raw is the underlying result (security-cache misses, switches, ...).
	Raw RunResult
}

// Normalize relates a scheme run to its unsecured baseline. A device with
// a zero-length baseline trace (FinishPs == 0) has nothing to normalize
// against: it reports the neutral ratio 1 and stays out of the mean, so an
// empty trace can never leak NaN/Inf through stats.Mean into sweep
// aggregates.
func Normalize(res, unsecure RunResult) Normalized {
	n := Normalized{Scenario: res.Scenario, Scheme: res.Scheme, Raw: res}
	n.PerDevice = make([]float64, len(res.Devices))
	var xs []float64
	for i := range res.Devices {
		var den float64
		if i < len(unsecure.Devices) {
			den = float64(unsecure.Devices[i].FinishPs)
		}
		if den <= 0 {
			n.PerDevice[i] = 1
			continue
		}
		ratio := float64(res.Devices[i].FinishPs) / den
		n.PerDevice[i] = ratio
		xs = append(xs, ratio)
	}
	if len(xs) == 0 {
		n.Mean = 1 // every device idle: protection changed nothing
	} else {
		n.Mean = stats.Mean(xs)
	}
	if unsecure.TotalBytes > 0 {
		n.TrafficRatio = float64(res.TotalBytes) / float64(unsecure.TotalBytes)
	}
	return n
}

// SweepResult bundles one scenario's normalized results across schemes.
type SweepResult struct {
	Scenario Scenario
	Unsecure RunResult
	// ByScheme holds one normalized entry per requested scheme.
	ByScheme map[core.Scheme]Normalized
}

// MeanAcross returns the mean normalized execution time of a scheme over a
// sweep.
func MeanAcross(rs []SweepResult, s core.Scheme) float64 {
	var xs []float64
	for _, r := range rs {
		if n, ok := r.ByScheme[s]; ok {
			xs = append(xs, n.Mean)
		}
	}
	return stats.Mean(xs)
}

// MeansOf extracts per-scenario normalized execution times of a scheme
// (the Fig. 15/17 CDF inputs).
func MeansOf(rs []SweepResult, s core.Scheme) []float64 {
	var xs []float64
	for _, r := range rs {
		if n, ok := r.ByScheme[s]; ok {
			xs = append(xs, n.Mean)
		}
	}
	return xs
}

// TrafficRatioAcross returns the mean traffic ratio (vs unsecure) of a
// scheme over a sweep.
func TrafficRatioAcross(rs []SweepResult, s core.Scheme) float64 {
	var xs []float64
	for _, r := range rs {
		if n, ok := r.ByScheme[s]; ok {
			xs = append(xs, n.TrafficRatio)
		}
	}
	return stats.Mean(xs)
}

// MissRatioAcross returns the mean security-cache-miss count of scheme s
// relative to scheme base over a sweep (Fig. 16/18 normalize misses to a
// reference scheme). The unsecured baseline is stored in
// SweepResult.Unsecure rather than ByScheme, so either side being
// core.Unsecure reads from there instead of silently missing the map.
func MissRatioAcross(rs []SweepResult, s, base core.Scheme) float64 {
	var xs []float64
	for _, r := range rs {
		n, ok := secMissesOf(r, s)
		b, ok2 := secMissesOf(r, base)
		if ok && ok2 && b > 0 {
			xs = append(xs, float64(n)/float64(b))
		}
	}
	return stats.Mean(xs)
}

// secMissesOf extracts a scheme's security-cache misses from a sweep
// entry, resolving core.Unsecure to the stored baseline run.
func secMissesOf(r SweepResult, s core.Scheme) (uint64, bool) {
	if s == core.Unsecure {
		return r.Unsecure.SecCacheMisses, true
	}
	n, ok := r.ByScheme[s]
	return n.Raw.SecCacheMisses, ok
}
