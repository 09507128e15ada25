// Package probe is the observability seam of the memory-protection engine:
// a pluggable event tap that core.Engine fires at the level the paper's
// breakdown figures need — per-request issue/retire, tree-walk lengths
// (Fig. 10/13), metadata-cache hits and misses by cache kind, MAC fetches,
// granularity switches with their Table 2 class, overfetch beats, and every
// DRAM beat by traffic kind (the Fig. 5 split).
//
// The seam is zero-cost when off: the engine holds a nil Probe and guards
// every emission with one nil check, so the disabled hot path contains only
// a dead branch (see BenchmarkProbeOff). Two implementations ship here: a
// Collector that reduces the stream into histograms and a traffic
// breakdown, and a bounded ring-buffer EventTrace with CSV export.
// Both are single-run, single-goroutine objects — parallel sweeps attach
// one per simulation run and aggregate afterwards.
package probe

import (
	"unimem/internal/mem"
	"unimem/internal/sim"
)

// Kind labels one event class.
type Kind uint8

// Event kinds, in the order the pipeline fires them.
const (
	// EvIssue marks a request entering the pipeline (Addr/Size/Write set).
	EvIssue Kind = iota
	// EvRetire marks a request's completion; Val is its latency in ps.
	EvRetire
	// EvWalk is one integrity-tree walk: Val is the number of levels
	// touched, Aux the counter lines missed (fetched from memory); Class
	// carries WalkFlags.
	EvWalk
	// EvCache is one security-cache access outside the tree walker; Class
	// is the CacheKind, Val is 1 on hit and 0 on miss.
	EvCache
	// EvMACFetch is a MAC-line fetch or merge: Addr is the 64B MAC line,
	// Val is 1 when the line was merged (already covered by the previous
	// unit's line or cached), 0 when it was fetched from memory.
	EvMACFetch
	// EvSwitch is a committed granularity switch; Class is the SwitchClass
	// of its Table 2 row.
	EvSwitch
	// EvOverfetch reports extra data beats fetched because an access was
	// finer than its protection unit; Val is the beat count.
	EvOverfetch
	// EvMemRead / EvMemWrite are DRAM transactions the engine issued;
	// Class is the mem.Kind, Val the 64B beat count.
	EvMemRead
	EvMemWrite
	// EvDetect is a routed granularity detection: Addr is the chunk base,
	// Aux the detected StreamPart encoding, Val 1 when the scheme's
	// shared-counter set consumed the detection (suppressed the lazy
	// switch), 0 otherwise.
	EvDetect
	// EvSwitchWindow marks the functional layer opening a lazy-switch
	// window for a chunk (metadata committed, units not yet resealed):
	// Addr is the chunk base, Val the old StreamPart, Aux the new one.
	// Attack campaigns use it to land splices inside the window.
	EvSwitchWindow
	nKinds
)

// String returns the stable export label of the kind.
func (k Kind) String() string {
	switch k {
	case EvIssue:
		return "issue"
	case EvRetire:
		return "retire"
	case EvWalk:
		return "walk"
	case EvCache:
		return "cache"
	case EvMACFetch:
		return "mac"
	case EvSwitch:
		return "switch"
	case EvOverfetch:
		return "overfetch"
	case EvMemRead:
		return "memrd"
	case EvMemWrite:
		return "memwr"
	case EvDetect:
		return "detect"
	case EvSwitchWindow:
		return "switchwin"
	}
	return "unknown"
}

// CacheKind identifies which on-chip security cache an EvCache event hit.
type CacheKind uint8

// Security-cache kinds. Meta (the shared metadata cache inside the tree
// walker) is accounted through EvWalk instead of EvCache: a walk touching L
// levels with M fetches made L accesses of which M missed.
const (
	CacheMeta CacheKind = iota
	CacheMAC
	CacheGT
	CacheOpenUnit
	nCacheKinds
)

// String returns the export label.
func (c CacheKind) String() string {
	switch c {
	case CacheMeta:
		return "meta"
	case CacheMAC:
		return "maccache"
	case CacheGT:
		return "gtcache"
	case CacheOpenUnit:
		return "openunit"
	}
	return "unknown"
}

// SwitchClass is the Table 2 row of a granularity switch.
type SwitchClass uint8

// Switch classes, matching core.SwitchStats field for field.
const (
	SwDownAll SwitchClass = iota
	SwUpWAR
	SwUpWAW
	SwUpRAR
	SwUpRAW
	SwMACDownRO
	SwMACDownRW
	SwMACUpLazy
	nSwitchClasses
)

// String returns the Table 2 row label.
func (s SwitchClass) String() string {
	switch s {
	case SwDownAll:
		return "down-all"
	case SwUpWAR:
		return "up-war"
	case SwUpWAW:
		return "up-waw"
	case SwUpRAR:
		return "up-rar"
	case SwUpRAW:
		return "up-raw"
	case SwMACDownRO:
		return "mac-down-ro"
	case SwMACDownRW:
		return "mac-down-rw"
	case SwMACUpLazy:
		return "mac-up-lazy"
	}
	return "unknown"
}

// WalkFlags annotate an EvWalk event's Class field.
const (
	// WalkPruned marks a walk skipped entirely (unused-region pruning).
	WalkPruned uint8 = 1 << iota
	// WalkSubtree marks a walk that ended at an on-chip subtree root.
	WalkSubtree
)

// Event is one engine event. The payload fields are kind-specific (see the
// Kind constants); unused fields are zero.
type Event struct {
	// At is the simulation timestamp of the emission.
	At sim.Time
	// Kind selects the event class.
	Kind Kind
	// Device is the issuing processing unit of the enclosing request.
	Device int
	// Addr / Size / Write describe the access the event belongs to.
	Addr  uint64
	Size  int
	Write bool
	// Class is a kind-specific discriminator: mem.Kind for EvMemRead/Write,
	// CacheKind for EvCache, SwitchClass for EvSwitch, WalkFlags for EvWalk.
	Class uint8
	// Val / Aux are kind-specific magnitudes (levels, beats, latency ps).
	Val int64
	Aux int64
}

// ClassLabel renders the Class field under the event's kind-specific
// interpretation (empty when the kind has no class).
func (e Event) ClassLabel() string {
	switch e.Kind {
	case EvMemRead, EvMemWrite:
		return mem.Kind(e.Class).String()
	case EvCache:
		return CacheKind(e.Class).String()
	case EvSwitch:
		return SwitchClass(e.Class).String()
	}
	return ""
}

// Probe receives engine events. Implementations are called from the
// simulation goroutine only and must not retain the Event beyond the call
// (it may be stack-allocated by the emitter).
type Probe interface {
	Event(Event)
}

// Func adapts a plain function to the Probe interface, for callers that
// want an inline event tap (attack campaigns hooking EvSwitchWindow).
type Func func(Event)

// Event calls f.
func (f Func) Event(e Event) { f(e) }

// multi fans one event stream out to several probes.
type multi []Probe

func (m multi) Event(e Event) {
	for _, p := range m {
		p.Event(e)
	}
}

// Multi combines probes into one; nil entries are dropped. It returns nil
// when nothing remains (keeping the engine's disabled fast path), and the
// single survivor unwrapped.
func Multi(ps ...Probe) Probe {
	var out multi
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
