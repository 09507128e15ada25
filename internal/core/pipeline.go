package core

import (
	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/sim"
	"unimem/internal/tree"
)

// chunkOp is the pooled continuation state of one in-flight chunk
// transaction: the join over its parallel memory operations, the serialized
// validation chain, the stage-5 data-span expansion, and the callbacks that
// used to be per-request closures. Ops live on a per-engine free list (the
// simulation is single-threaded), and each op binds its callbacks once when
// first allocated, so the probe-off steady state allocates nothing.
type chunkOp struct {
	e    *Engine
	next *chunkOp // free-list link

	r      Request
	issued sim.Time
	user   func(sim.Time) // caller's completion callback

	// Join over the chunk's parallel memory operations: fires once, at the
	// latest completion time, after seal.
	pending int
	sealed  bool
	latest  sim.Time
	finAt   sim.Time

	// Data-span expansion state (stage 5).
	lo, hi uint64
	rmw    bool // whole-unit write-back needed (static schemes only)

	// Serialized validation chain (stage 6): each level of the path depends
	// on the one above it.
	serial  []fetchOp
	serialI int

	// Callbacks bound once per pooled op and reused for its lifetime.
	childFn  func(sim.Time) // one parallel slot completed
	serialFn func(sim.Time) // next serialized fetch
	finishFn func()         // crypto latency elapsed
	directFn func(sim.Time) // unprotected fast path completed
}

// getOp takes an op from the free list (or grows the pool) and initializes
// it for one chunk transaction.
func (e *Engine) getOp(r Request, user func(sim.Time)) *chunkOp {
	op := e.freeOps
	if op == nil {
		op = &chunkOp{e: e}
		op.childFn = op.child
		op.serialFn = op.serialNext
		op.finishFn = op.finish
		op.directFn = op.retire
	} else {
		e.freeOps = op.next
	}
	op.next = nil
	op.r = r
	op.issued = e.se.Now()
	op.user = user
	op.pending = 0
	op.sealed = false
	op.latest = 0
	op.finAt = 0
	op.lo, op.hi = 0, 0
	op.rmw = false
	op.serial = op.serial[:0]
	op.serialI = 0
	return op
}

// slot reserves one parallel completion slot and returns its callback.
func (op *chunkOp) slot() func(sim.Time) {
	op.pending++
	return op.childFn
}

func (op *chunkOp) child(at sim.Time) {
	if at > op.latest {
		op.latest = at
	}
	op.pending--
	op.maybeFire()
}

// seal marks that no more slots will be added; when everything already
// completed (or nothing was added) the join fires immediately.
func (op *chunkOp) seal() {
	op.sealed = true
	op.maybeFire()
}

func (op *chunkOp) maybeFire() {
	if !op.sealed || op.pending != 0 {
		return
	}
	e := op.e
	at := op.latest
	if at < e.se.Now() {
		at = e.se.Now()
	}
	op.finAt = at + cryptoPs
	e.se.At(op.finAt, op.finishFn)
}

func (op *chunkOp) finish() { op.retire(op.finAt) }

// serialNext is the completion callback of one serialized fetch.
func (op *chunkOp) serialNext(sim.Time) { op.serialStep() }

// serialStep issues the next fetch of the serialized chain, or completes
// the chain's join slot when exhausted.
func (op *chunkOp) serialStep() {
	e := op.e
	if op.serialI >= len(op.serial) {
		op.childFn(e.se.Now())
		return
	}
	f := op.serial[op.serialI]
	op.serialI++
	e.memRead(op.r.Device, f.addr, 64, f.kind, op.serialFn)
}

// retire runs the completion bookkeeping — probe retire, then read-latency
// recording, then the caller's callback, preserving the nesting order of
// the closure-based pipeline — and returns the op to the pool first, so a
// callback that synchronously submits the next request reuses it.
func (op *chunkOp) retire(at sim.Time) {
	e := op.e
	r := op.r
	issued := op.issued
	user := op.user
	op.user = nil
	op.next = e.freeOps
	e.freeOps = op
	if e.prb != nil {
		e.probeRetire(r, at, issued)
	}
	if !r.Write {
		e.recordReadLatency(r.Device, at-issued)
	}
	if user != nil {
		user(at)
	}
}

// splitOp joins the per-chunk completions of a chunk-crossing Submit.
// Pooled like chunkOp.
type splitOp struct {
	e       *Engine
	next    *splitOp
	pending int
	sealed  bool
	latest  sim.Time
	user    func(sim.Time)
	childFn func(sim.Time)
}

func (e *Engine) getSplit(user func(sim.Time)) *splitOp {
	sp := e.freeSplits
	if sp == nil {
		sp = &splitOp{e: e}
		sp.childFn = sp.child
	} else {
		e.freeSplits = sp.next
	}
	sp.next = nil
	sp.pending = 0
	sp.sealed = false
	sp.latest = 0
	sp.user = user
	return sp
}

func (sp *splitOp) child(at sim.Time) {
	if at > sp.latest {
		sp.latest = at
	}
	sp.pending--
	sp.maybeFire()
}

func (sp *splitOp) maybeFire() {
	if !sp.sealed || sp.pending != 0 {
		return
	}
	e := sp.e
	at := sp.latest
	if at < e.se.Now() {
		at = e.se.Now()
	}
	user := sp.user
	sp.user = nil
	sp.next = e.freeSplits
	e.freeSplits = sp
	user(at)
}

// Submit runs one transaction through the protection pipeline (Fig. 8) and
// calls done at its completion time. Requests crossing 32KB chunk
// boundaries are split, because granularity is tracked per chunk.
func (e *Engine) Submit(r Request, done func(sim.Time)) {
	if r.Size <= 0 {
		r.Size = meta.BlockSize
	}
	end := r.Addr + uint64(r.Size)
	if meta.ChunkIndex(r.Addr) == meta.ChunkIndex(end-1) {
		e.submitChunk(r, done)
		return
	}
	sp := e.getSplit(done)
	for addr := r.Addr; addr < end; {
		spanEnd := meta.ChunkBase(addr) + meta.ChunkSize
		if spanEnd > end {
			spanEnd = end
		}
		sub := Request{Device: r.Device, Addr: addr, Size: int(spanEnd - addr), Write: r.Write}
		sp.pending++
		e.submitChunk(sub, sp.childFn)
		addr = spanEnd
	}
	sp.sealed = true
	sp.maybeFire()
}

// submitChunk handles a transaction confined to one 32KB chunk. The stages
// are scheme-agnostic: every per-scheme decision reads the registry row
// (Spec traits and unit rules) through granRules, counterSource and
// macLine.
func (e *Engine) submitChunk(r Request, done func(sim.Time)) {
	e.Stats.Requests++
	e.recordIssue(r)
	e.probeIssue(r)
	if r.Write {
		e.Stats.Writes++
	} else {
		e.Stats.Reads++
	}
	op := e.getOp(r, done)

	if !e.spec.Protect {
		if r.Write {
			e.memWrite(r.Device, r.Addr, r.Size, mem.Data, op.directFn)
		} else {
			e.memRead(r.Device, r.Addr, r.Size, mem.Data, op.directFn)
		}
		return
	}

	now := e.se.Now()
	chunk := meta.ChunkIndex(r.Addr)
	chunkBase := meta.ChunkBase(r.Addr)

	// 1. Granularity-table lookup (section 4.4: the table lives in a
	// protected region; its high locality makes this cheap). On a GT-cache
	// miss the engine proceeds speculatively with the predicted (cached
	// default) granularity and validates when the entry arrives, so the
	// fetch consumes bandwidth but joins the parallel set rather than the
	// serialized walk.
	if e.spec.UseTable {
		gtAddr := e.geom.GTEntryAddr(chunk)
		hit, wb := e.gtCache.Access(gtAddr, false)
		e.probeCache(r.Device, probe.CacheGT, gtAddr, hit)
		if wb {
			e.memWrite(r.Device, gtAddr, 64, mem.GranTable, nil)
		}
		if !hit {
			e.memRead(r.Device, gtAddr, 64, mem.GranTable, op.slot())
		}
	}

	// 2. Lazy granularity switching for covered units (Table 2 costs).
	// Pending detections from *earlier* requests commit here.
	if e.table != nil && !e.spec.Oracle {
		e.handleSwitches(r, chunk, chunkBase, op)
	}

	// 3. Access tracking and granularity detection. Detections land in the
	// table as "next" and apply lazily on a later access.
	if e.spec.Detect {
		for _, det := range e.trk.AccessRange(r.Addr, r.Size, now) {
			e.applyDetection(det)
		}
	}

	// 4. Resolve protection units and their encodings. Both sides' unit
	// lists are collected into engine scratch once; enumeration depends
	// only on the stream-part value read here, so the lists stay valid
	// across the stages below.
	var sp meta.StreamPart
	if e.table != nil {
		sp = e.table.Current(chunk)
	}
	ctrRule, macRule := e.granRules(r.Device)
	e.macUnits = appendUnits(e.macUnits[:0], sp, chunkBase, r, macRule)
	e.ctrUnits = appendUnits(e.ctrUnits[:0], sp, chunkBase, r, ctrRule)

	// 5. Data span. A coarse unit needs its whole data for verification
	// (nested MAC) and for read-modify-write, but bulk streams deliver the
	// unit across consecutive requests: the open-unit buffer tracks units
	// under streaming verification (see expandUnit).
	//
	// The retained-fine-MAC optimization belongs to the dynamic
	// multi-granular MAC designs (ours and Adaptive [56]); the static
	// strawman lacks it (its Fig. 6 penalty).
	op.lo, op.hi = r.Addr, r.Addr+uint64(r.Size)
	fallback := e.spec.MultiMAC
	for _, u := range e.macUnits {
		e.expandUnit(op, chunk, chunkBase, u, fallback)
	}
	if r.Write {
		for _, u := range e.ctrUnits {
			e.expandUnit(op, chunk, chunkBase, u, false)
		}
	}
	overBeats := (int(op.hi-op.lo) - r.Size) / meta.BlockSize
	if overBeats > 0 {
		e.Stats.OverfetchBeats += uint64(overBeats)
		e.probeOverfetch(r, overBeats)
	}

	// 6. Counter path: the first unit's tree walk is the serialized
	// validation path; sibling units' fetches proceed in parallel. The
	// scheme's counter source decides per chunk how counters are sourced:
	// a tree walk, a treeless shared counter, or no counter at all
	// (MAC-only protection, application-managed versions).
	switch e.counterSource(r.Device, chunk) {
	case CountersShared:
		e.Stats.SharedCTRHits += uint64(len(e.ctrUnits))
	case CountersTree:
		first := true
		for _, u := range e.ctrUnits {
			blockIdx := meta.BlockIndex(u.base)
			walk := e.walkUnit(blockIdx, u.gran, r.Write)
			e.probeWalk(r, walk)
			e.Stats.WalkLevels += uint64(walk.Levels)
			if walk.Pruned {
				e.Stats.PrunedWalks++
			}
			if walk.SubtreeHit {
				e.Stats.SubtreeHits++
			}
			for wbI := 0; wbI < walk.Writebacks; wbI++ {
				e.memWrite(r.Device, e.geom.CounterLineAddr(0, blockIdx), 64, mem.Counter, nil)
			}
			if first && !r.Write {
				for _, a := range walk.Fetches {
					op.serial = append(op.serial, fetchOp{addr: a, kind: mem.Counter})
				}
			} else {
				for _, a := range walk.Fetches {
					e.memRead(r.Device, a, 64, mem.Counter, op.slot())
				}
			}
			first = false
		}
	}

	// 7. MAC path: one cacheline per needed MAC line, in parallel.
	var lastLine uint64 = ^uint64(0)
	for _, u := range e.macUnits {
		lineAddr := e.macLine(chunk, chunkBase, sp, u, macRule)
		if lineAddr != lastLine {
			lastLine = lineAddr
			hit, wb := e.macCache.Access(lineAddr, r.Write)
			e.probeCache(r.Device, probe.CacheMAC, lineAddr, hit)
			e.probeMAC(r.Device, lineAddr, false)
			if wb {
				e.memWrite(r.Device, lineAddr, 64, mem.MAC, nil)
			}
			if !hit {
				e.memRead(r.Device, lineAddr, 64, mem.MAC, op.slot())
			}
			if e.spec.DoubleStore && r.Write && u.gran > meta.Gran64 {
				// Adaptive stores both granularities on update.
				e.memWrite(r.Device, lineAddr, 64, mem.MAC, nil)
			}
		} else {
			e.probeMAC(r.Device, lineAddr, true)
		}
		if u.gran > meta.Gran64 {
			e.openUnits.Access(u.base, false) // unit now verified/open
		}
	}

	// 8. Data transfer and completion.
	size := int(op.hi - op.lo)
	if r.Write {
		if overBeats > 0 {
			// Sub-unit write: fetch the covering unit (MAC recompute, and
			// old plaintext when re-encrypting).
			e.memRead(r.Device, op.lo, size, mem.Data, op.slot())
		}
		if op.rmw {
			e.memWrite(r.Device, op.lo, size, mem.Data, op.slot())
		} else {
			e.memWrite(r.Device, r.Addr, r.Size, mem.Data, op.slot())
		}
		e.writtenParts[chunk] |= partMask(chunkBase, r.Addr, r.Size)
		if e.walker != nil {
			e.walker.MarkTouched(meta.BlockIndex(r.Addr))
		}
	} else {
		e.memRead(r.Device, op.lo, size, mem.Data, op.slot())
	}
	e.lastWrite[chunk] = r.Write

	// Launch the serialized chain, then seal the join.
	if len(op.serial) > 0 {
		op.pending++
		op.serialStep()
	}
	op.seal()
}

// expandUnit widens the data span for one covering unit (stage 5). A
// request that starts at the unit base opens the unit (the stream will
// supply the rest); requests hitting an open unit continue it; only a cold,
// unaligned access into a coarse unit — a misprediction in the paper's
// terms — pays the whole-unit fetch.
func (e *Engine) expandUnit(op *chunkOp, chunk, chunkBase uint64, u unitSpan, fineMACFallback bool) {
	r := op.r
	if u.gran == meta.Gran64 {
		return
	}
	unitEnd := u.base + u.gran.Bytes()
	covers := r.Addr <= u.base && //mutate:ignore off-by-one requests are 64B aligned, so r.Addr <= u.base+1 holds exactly when r.Addr <= u.base
		r.Addr+uint64(r.Size) >= unitEnd
	if covers {
		return
	}
	openHit, _ := e.openUnits.Access(u.base, false)
	e.probeCache(r.Device, probe.CacheOpenUnit, u.base, openHit)
	if openHit {
		return // streaming continuation: already fetched/buffered
	}
	if r.Addr == u.base {
		return // stream start: the unit fills as the stream proceeds
	}
	if r.Size >= int(u.gran.Bytes())/meta.Arity && meta.Aligned(r.Addr, uint64(r.Size)) {
		// A naturally aligned bulk transaction covering at least one
		// arity-slice of the unit is a stream member, not a stray
		// probe: open the unit and verify as the stream completes.
		return
	}
	// Misprediction: a cold unaligned access into a coarse unit. For
	// read-only data the fine-grained MACs are retained in the
	// unprotected region (section 4.4), so the block verifies against
	// its fine MAC without touching the rest of the unit.
	if fineMACFallback && !r.Write {
		unitMask := partMask(chunkBase, u.base, int(u.gran.Bytes()))
		if e.writtenParts[chunk]&unitMask == 0 {
			fineLine := e.geom.MACLineAddr(chunk, int((r.Addr-chunkBase)/meta.BlockSize))
			e.memRead(r.Device, fineLine, 64, mem.MAC, op.slot())
			return
		}
	}
	// Written data: fetch the covering unit to re-verify/re-seal.
	op.lo, op.hi = min(op.lo, u.base), max(op.hi, unitEnd)
	// Misprediction handler (section 4.4): having paid the whole-unit
	// fetch, the unit scales down immediately so repeated fine access
	// does not pay it again; the tracker re-promotes if streaming
	// resumes. Scale-down retains the counter value (Fig. 13 b), so the
	// existing ciphertext stays valid: the unit is read (to recompute
	// fine MACs) but not rewritten. Schemes without a granularity table
	// must instead re-encrypt the whole unit under the bumped shared
	// counter — the full read-modify-write.
	if r.Write && (e.table == nil || e.spec.Oracle) {
		op.rmw = true
	}
	if e.table != nil && !e.spec.Oracle {
		firstPart := (u.base - chunkBase) / meta.PartitionSize
		parts := u.gran.Blocks() / meta.BlocksPerPartition
		cur := e.table.Current(chunk).DemoteMask(int(firstPart), parts)
		e.table.SetNext(chunk, cur)
		e.table.CommitAll(chunk)
		e.Stats.Switches.MACDownRW++
		e.probeSwitch(r, probe.SwMACDownRW)
	}
}

type fetchOp struct {
	addr uint64
	kind mem.Kind
}

// walkUnit runs the tree walk for one unit.
func (e *Engine) walkUnit(blockIdx uint64, g meta.Gran, write bool) tree.Walk {
	if write {
		return e.walker.Write(blockIdx, g.Level())
	}
	return e.walker.Read(blockIdx, g.Level())
}

// granRules returns the counter- and MAC-side unit rules of a request
// from device: the registry row's, or under Spec.StaticGran the device's
// entry of Options.StaticGran on both sides.
func (e *Engine) granRules(device int) (ctr, mac granRule) {
	if e.spec.StaticGran && device < len(e.opts.StaticGran) {
		rule := granRule{fixed: true, gran: e.opts.StaticGran[device]}
		return rule, rule
	}
	return e.ctr, e.mac
}

// counterSource resolves the scheme's Spec.Counters for one request from
// device into chunk: CountersTree, CountersShared or CountersNone. The CPU
// walks the tree under CountersCPUTree and accelerators skip it; under
// CountersShared only chunks in the shared set skip the tree.
func (e *Engine) counterSource(device int, chunk uint64) CounterSource {
	switch e.spec.Counters {
	case CountersNone:
		return CountersNone
	case CountersCPUTree:
		if device != cpuDevice {
			return CountersNone
		}
	case CountersShared:
		if e.shared[chunk] {
			return CountersShared
		}
	}
	return CountersTree
}

// macLine resolves the 64B MAC line holding a unit's MAC. A 32KB-capped
// table rule (the Ours family) uses the Fig. 9 compacted layout through
// the stream-part encoding; fixed and 4KB-capped rules use the flat
// per-block layout (slot = block index within chunk).
func (e *Engine) macLine(chunk, chunkBase uint64, sp meta.StreamPart, u unitSpan, rule granRule) uint64 {
	if rule.table && rule.cap == meta.Gran32K {
		addr, _ := e.geom.MACAddrFor(u.base, sp)
		return meta.AlignBlock(addr)
	}
	return e.geom.MACLineAddr(chunk, int((u.base-chunkBase)/meta.BlockSize))
}

// appendUnits collects the protection units covering a request under a
// granularity rule into dst (an engine-owned scratch slice).
func appendUnits(dst []unitSpan, sp meta.StreamPart, chunkBase uint64, r Request, rule granRule) []unitSpan {
	end := r.Addr + uint64(r.Size)
	if rule.fixed {
		for a := meta.AlignGran(r.Addr, rule.gran); a < end; a += rule.gran.Bytes() {
			dst = append(dst, unitSpan{base: a, gran: rule.gran})
		}
		return dst
	}
	for addr := r.Addr; addr < end; {
		u := sp.UnitOf(int((addr - chunkBase) / meta.BlockSize))
		g := u.Gran
		base := chunkBase + uint64(u.Block)*meta.BlockSize
		if g > rule.cap {
			g = rule.cap
			base = meta.AlignGran(addr, g)
		}
		dst = append(dst, unitSpan{base: base, gran: g})
		addr = base + g.Bytes()
	}
	return dst
}

// partMask returns the chunk-relative partition bits covered by a span.
func partMask(chunkBase, addr uint64, size int) uint64 {
	first := meta.PartIndex(addr)
	last := meta.PartIndex(addr + uint64(size) - 1)
	var m uint64
	for p := first; p <= last; p++ {
		m |= 1 << uint(p)
	}
	return m
}
