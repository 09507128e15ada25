package core

import "unimem/internal/meta"

// Spec is a scheme's row of the Table 5 feature matrix: the traits the
// scheme-agnostic pipeline consults. The engine copies it once at
// construction, so every per-scheme decision on the hot path is a field
// test.
type Spec struct {
	// Protect enables counters/MACs at all; false is the Unsecure bypass.
	Protect bool
	// UseTable consults the granularity table (and pays GT traffic).
	UseTable bool
	// Detect feeds the access tracker into the table.
	Detect bool
	// MultiCTR lets counters follow the table's granularity.
	MultiCTR bool
	// MultiMAC lets MACs follow the table's granularity (and enables the
	// retained-fine-MAC misprediction fallback of section 4.4).
	MultiMAC bool
	// DualOnly restricts detections to {64B, 32KB} (Fig. 20 ablation,
	// CommonCTR).
	DualOnly bool
	// FreeSwitch waives the Table 2 switch charges (perfect prediction).
	FreeSwitch bool
	// DoubleStore stores coarse and fine MACs on update (Adaptive [56]).
	DoubleStore bool
	// Oracle replays a preloaded table with detection and switching off.
	Oracle bool
	// StaticGran gives both metadata sides of each device the fixed
	// granularity in Options.StaticGran (Static-device-best; the harness
	// finds the best assignment by exhaustive search).
	StaticGran bool
	// Subtree wires the tree walker with BMF subtree-root caching and
	// PENGLAI unused-region pruning.
	Subtree bool
	// Counters is where requests get their version counters.
	Counters CounterSource
}

// CounterSource says where a scheme's requests get their version counters
// (stage 6 of the pipeline).
type CounterSource uint8

const (
	// CountersTree verifies every counter through the integrity tree.
	CountersTree CounterSource = iota
	// CountersNone keeps no counters at all: MAC-only interface protection
	// (SecDDR-style; the Fig. 5 breakdown's intermediate bar).
	CountersNone
	// CountersCPUTree walks the tree for the CPU only. Accelerator-private
	// regions carry application-managed versions (MGX, Hua et al.): the
	// version is known from the dataflow and the 64B MAC alone
	// authenticates the data. The CPU's general-purpose region cannot
	// promise write-once/read-once dataflow and keeps the tree.
	CountersCPUTree
	// CountersShared gives chunks classified all-stream one of
	// sharedCounters treeless on-chip counters; everything else walks the
	// tree (CommonCTR, Na et al. [35]).
	CountersShared
)

// sharedCounters is CommonCTR's on-chip shared-counter budget (section
// 2.3).
const sharedCounters = 16

// cpuDevice is the harness device convention: index 0 is the CPU; higher
// indices are accelerators (GPU, NPUs) with their own address quadrants.
const cpuDevice = 0

// granRule describes how units are derived for one metadata side: a fixed
// granularity, or the granularity table's units capped at cap.
type granRule struct {
	fixed bool
	gran  meta.Gran
	table bool
	cap   meta.Gran
}

// Granularity-rule shorthand for registry rows.
var (
	fixed64  = granRule{fixed: true, gran: meta.Gran64}
	table32K = granRule{table: true, cap: meta.Gran32K}
	table4K  = granRule{table: true, cap: meta.Gran4K}
)

// schemeEntry is one registry row: the display name, whether the scheme
// reproduces the source paper (vs. an extension), its traits, and the
// unit rules of its counter and MAC sides.
type schemeEntry struct {
	name     string
	paper    bool
	spec     Spec
	ctr, mac granRule
}

// registry is the single source of truth for the scheme matrix: Schemes,
// Scheme.String, Scheme.IsExtension, SchemeSpec and engine construction
// all derive from it, and the drift-guard test in scheme_test.go fails
// (rather than a runtime panic) when a Scheme constant lacks a row. Adding
// a scheme means adding a constant in scheme.go and a row here.
var registry = [nSchemes]schemeEntry{
	Unsecure: {name: "Unsecure", paper: true, ctr: fixed64, mac: fixed64},
	Conventional: {name: "Conventional", paper: true, ctr: fixed64, mac: fixed64,
		spec: Spec{Protect: true}},
	StaticDeviceBest: {name: "Static-device-best", paper: true, ctr: fixed64, mac: fixed64,
		spec: Spec{Protect: true, StaticGran: true}},
	MultiCTROnly: {name: "Multi(CTR)-only", paper: true, ctr: table32K, mac: fixed64,
		spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true}},
	Ours: {name: "Ours", paper: true, ctr: table32K, mac: table32K,
		spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true}},
	Adaptive: {name: "Adaptive", paper: true, ctr: fixed64, mac: table4K,
		spec: Spec{Protect: true, UseTable: true, Detect: true, MultiMAC: true, DoubleStore: true}},
	CommonCTR: {name: "CommonCTR", paper: true, ctr: fixed64, mac: fixed64,
		spec: Spec{Protect: true, UseTable: true, Detect: true, DualOnly: true, Counters: CountersShared}},
	BMFUnused: {name: "BMF&Unused", paper: true, ctr: fixed64, mac: fixed64,
		spec: Spec{Protect: true, Subtree: true}},
	BMFUnusedOurs: {name: "BMF&Unused+Ours", paper: true, ctr: table32K, mac: table32K,
		spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, Subtree: true}},
	OursDual: {name: "Ours(dual)", paper: true, ctr: table32K, mac: table32K,
		spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, DualOnly: true}},
	OursNoSwitch: {name: "Ours w/o Switch.Overhead", paper: true, ctr: table32K, mac: table32K,
		spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true}},
	BMFUnusedOursNoSwitch: {name: "BMF&Unused+Ours w/o Switch.Overhead", paper: true, ctr: table32K, mac: table32K,
		spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true, Subtree: true}},
	PerPartitionOracle: {name: "Per-partition-best", paper: true, ctr: table32K, mac: table32K,
		spec: Spec{Protect: true, UseTable: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true, Oracle: true}},
	MACOnly: {name: "MAC-only", paper: true, ctr: fixed64, mac: fixed64,
		spec: Spec{Protect: true, Counters: CountersNone}},
	MGXVersioned: {name: "MGX-versioned", paper: false, ctr: fixed64, mac: fixed64,
		spec: Spec{Protect: true, Counters: CountersCPUTree}},
}

// Schemes lists every registered scheme in registry order.
var Schemes = func() []Scheme {
	out := make([]Scheme, nSchemes)
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}()

// SchemeSpec returns the trait row of a registered scheme without
// constructing an engine; callers outside the pipeline (the attack
// campaign, the warmup resolver) classify schemes by it. Out-of-range
// schemes panic — a caller bug, never valid input.
func SchemeSpec(s Scheme) Spec { return registry[s].spec }
