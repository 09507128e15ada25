// Package core implements the timing model of the unified memory-protection
// engine — the paper's contribution. Every LLC-miss request from a device
// flows through Submit (the Fig. 8 pipeline): granularity lookup, data
// fetch, counter-tree walk, MAC fetch, and crypto latency; dirty-eviction
// writes update the tree to the root (Fig. 14); lazy granularity switching
// charges the Table 2 costs. The scheme matrix of Table 5 (plus the
// ablations of Fig. 6 and Fig. 20) is data: registry.go holds one row per
// Scheme (name, trait Spec, counter- and MAC-side unit rules), and the
// scheme-agnostic pipeline reads the row's fields.
package core

// Scheme selects one simulated protection scheme (paper Table 5).
type Scheme int

// Simulation schemes. The first group reproduces Table 5; the second the
// ablations used by Fig. 6 and Fig. 20; the last group are extensions
// beyond the paper, expressed as registry rows (IsExtension reports which).
const (
	// Unsecure disables memory protection entirely.
	Unsecure Scheme = iota
	// Conventional is the fixed 64B-granular counter + MAC baseline.
	Conventional
	// StaticDeviceBest applies the best static per-device granularity for
	// both counters and MACs (found by exhaustive search in the harness).
	StaticDeviceBest
	// MultiCTROnly uses dynamic multi-granular counters with fixed 64B
	// MACs.
	MultiCTROnly
	// Ours is the paper's multi-granular MAC&tree: dynamic multi-granular
	// counters and MACs with lazy switching.
	Ours
	// Adaptive models Yuan et al. [56]: fixed 64B counters, dual-granular
	// (64B/4KB) MACs with both granularities stored.
	Adaptive
	// CommonCTR models Na et al. [35]: dual-granular (64B/32KB) counters
	// with a limited set of 16 treeless shared counters, fixed 64B MACs.
	CommonCTR
	// BMFUnused is Conventional plus subtree-root caching (BMF) and
	// unused-region pruning (PENGLAI).
	BMFUnused
	// BMFUnusedOurs combines Ours with the subtree optimizations.
	BMFUnusedOurs
	// OursDual restricts Ours to dual granularity (64B/32KB), the Fig. 20
	// ablation.
	OursDual
	// OursNoSwitch is Ours with free granularity switching (perfect
	// prediction), the Fig. 20 ablation.
	OursNoSwitch
	// BMFUnusedOursNoSwitch combines BMFUnusedOurs with free switching.
	BMFUnusedOursNoSwitch
	// PerPartitionOracle replays a pre-detected granularity table with
	// detection and switching disabled (Fig. 6 "Per-partition-best").
	PerPartitionOracle
	// MACOnly protects with fixed 64B MACs but no counters or integrity
	// tree — the intermediate bar of the Fig. 5 overhead breakdown
	// (+Cost(MAC) without +Cost(counter)).
	MACOnly
	// MGXVersioned is an extension modeling MGX-style application-managed
	// version counters (Hua et al.): accelerator-private regions derive
	// versions from the application's own dataflow, so their accesses skip
	// the integrity-tree walk entirely and pay only the 64B MAC; the CPU's
	// general-purpose region keeps the conventional counter tree.
	MGXVersioned
	nSchemes
)

// String returns the scheme's registered display name (Table 5 names for
// paper schemes).
func (s Scheme) String() string {
	if s < 0 || s >= nSchemes {
		return "unknown"
	}
	return registry[s].name
}

// IsExtension reports whether s models a design beyond the source paper's
// Table 5 / ablation matrix (a registry extension such as MGXVersioned).
func (s Scheme) IsExtension() bool {
	return s >= 0 && s < nSchemes && !registry[s].paper //mutate:ignore off-by-one scheme 0 (Unsecure) is a paper scheme, so leaving it out of the range changes no answer
}
