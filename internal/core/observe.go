package core

import (
	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/sim"
	"unimem/internal/tree"
)

// Probe emission seam. The engine never calls mem directly from the
// protection pipeline: every DRAM transaction funnels through memRead /
// memWrite so that traffic is observable per device and per metadata kind
// (the Fig. 5 breakdown). All helpers keep the Event construction inside
// the nil-probe branch — with observability off the hot path pays one
// predictable-not-taken branch per site and nothing else.

// memRead issues a DRAM read and reports it to the probe.
func (e *Engine) memRead(dev int, addr uint64, size int, kind mem.Kind, done func(sim.Time)) {
	if e.prb != nil {
		e.prb.Event(probe.Event{
			At: e.se.Now(), Kind: probe.EvMemRead, Device: dev,
			Addr: addr, Size: size, Class: uint8(kind), Val: int64(beatsOf(size)),
		})
	}
	e.mm.Read(addr, size, kind, done)
}

// memWrite issues a DRAM write and reports it to the probe.
func (e *Engine) memWrite(dev int, addr uint64, size int, kind mem.Kind, done func(sim.Time)) {
	if e.prb != nil {
		e.prb.Event(probe.Event{
			At: e.se.Now(), Kind: probe.EvMemWrite, Device: dev,
			Addr: addr, Size: size, Write: true, Class: uint8(kind), Val: int64(beatsOf(size)),
		})
	}
	e.mm.Write(addr, size, kind, done)
}

// beatsOf mirrors mem's beat rounding (size <= 0 means one beat).
func beatsOf(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + mem.BlockSize - 1) / mem.BlockSize
}

// probeIssue reports a request entering the pipeline.
func (e *Engine) probeIssue(r Request) {
	if e.prb == nil {
		return
	}
	e.prb.Event(probe.Event{
		At: e.se.Now(), Kind: probe.EvIssue, Device: r.Device,
		Addr: r.Addr, Size: r.Size, Write: r.Write,
	})
}

// probeRetire reports a request's completion with its latency.
func (e *Engine) probeRetire(r Request, at, issued sim.Time) {
	if e.prb == nil {
		return
	}
	e.prb.Event(probe.Event{
		At: at, Kind: probe.EvRetire, Device: r.Device,
		Addr: r.Addr, Size: r.Size, Write: r.Write, Val: int64(at - issued),
	})
}

// probeWalk reports one validation-path tree walk. Levels and misses feed
// the Fig. 13 walk-length histogram; the metadata cache's hit/miss account
// is derived from them (one access per touched level).
func (e *Engine) probeWalk(r Request, w tree.Walk) {
	if e.prb == nil {
		return
	}
	var flags uint8
	if w.Pruned {
		flags |= probe.WalkPruned
	}
	if w.SubtreeHit {
		flags |= probe.WalkSubtree
	}
	e.prb.Event(probe.Event{
		At: e.se.Now(), Kind: probe.EvWalk, Device: r.Device,
		Addr: r.Addr, Write: r.Write, Class: flags,
		Val: int64(w.Levels), Aux: int64(len(w.Fetches)),
	})
}

// probeCache reports one security-cache access outside the tree walker.
func (e *Engine) probeCache(dev int, kind probe.CacheKind, addr uint64, hit bool) {
	if e.prb == nil {
		return
	}
	var v int64
	if hit {
		v = 1
	}
	e.prb.Event(probe.Event{
		At: e.se.Now(), Kind: probe.EvCache, Device: dev,
		Addr: addr, Class: uint8(kind), Val: v,
	})
}

// probeMAC reports a MAC-line lookup; merged marks a line coalesced with
// the previous unit's line instead of looked up again.
func (e *Engine) probeMAC(dev int, lineAddr uint64, merged bool) {
	if e.prb == nil {
		return
	}
	var v int64
	if merged {
		v = 1
	}
	e.prb.Event(probe.Event{
		At: e.se.Now(), Kind: probe.EvMACFetch, Device: dev, Addr: lineAddr, Val: v,
	})
}

// probeSwitch reports a charged granularity switch with its Table 2 class.
// Emission sites mirror the SwitchStats increments exactly, so a collector
// and Stats.Switches always agree.
func (e *Engine) probeSwitch(r Request, class probe.SwitchClass) {
	if e.prb == nil {
		return
	}
	e.prb.Event(probe.Event{
		At: e.se.Now(), Kind: probe.EvSwitch, Device: r.Device,
		Addr: r.Addr, Write: r.Write, Class: uint8(class),
	})
}

// probeDetect reports a routed granularity detection: the merged encoding
// and whether the shared-counter set consumed it instead of the table.
// Emission mirrors Stats.Detections exactly, so external observers (attack
// campaigns, collectors) see every routed detection without reaching into
// the pipeline.
func (e *Engine) probeDetect(chunk uint64, sp meta.StreamPart, consumed bool) {
	if e.prb == nil {
		return
	}
	var v int64
	if consumed {
		v = 1
	}
	e.prb.Event(probe.Event{
		At: e.se.Now(), Kind: probe.EvDetect,
		Addr: chunk * meta.ChunkSize, Val: v, Aux: int64(sp),
	})
}

// probeOverfetch reports extra data beats fetched because the access was
// finer than its protection unit.
func (e *Engine) probeOverfetch(r Request, beats int) {
	if e.prb == nil {
		return
	}
	e.prb.Event(probe.Event{
		At: e.se.Now(), Kind: probe.EvOverfetch, Device: r.Device,
		Addr: r.Addr, Write: r.Write, Val: int64(beats),
	})
}
