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
//
// The memory model returns each access's completion time when it issues
// the access, so a parallel fetch is no event of its own: the join keeps
// the latest of those times, and only the serialized chain and the retire
// are scheduled.
type chunkOp struct {
	e    *Engine
	next *chunkOp // free-list link

	r      Request
	issued sim.Time
	user   func(sim.Time) // caller's completion callback

	// Join over the chunk's parallel memory operations: the latest of their
	// completion times.
	latest sim.Time

	// Data-span expansion state (stage 5).
	lo, hi uint64
	rmw    bool // whole-unit write-back needed (static schemes only)

	// Serialized validation chain (stage 6): each level of the path depends
	// on the one above it.
	serial  []fetchOp
	serialI int

	// Callbacks bound once per pooled op and reused for its lifetime.
	serialFn func(sim.Time) // next serialized fetch
	retireFn func(sim.Time) // crypto latency elapsed, or unprotected access done
}

// getOp takes an op from the free list (or grows the pool) and initializes
// it for one chunk transaction.
func (e *Engine) getOp(r Request, user func(sim.Time)) *chunkOp {
	op := e.freeOps
	if op == nil {
		op = &chunkOp{e: e}
		op.serialFn = op.serialNext
		op.retireFn = op.retire
	} else {
		e.freeOps = op.next
	}
	op.next = nil
	op.r = r
	op.issued = e.se.Now()
	op.user = user
	op.latest = 0
	op.lo, op.hi = 0, 0
	op.rmw = false
	op.serial = op.serial[:0]
	op.serialI = 0
	return op
}

// join adds one parallel memory operation, completing at at, to the join.
func (op *chunkOp) join(at sim.Time) {
	if at > op.latest {
		op.latest = at
	}
}

// finish schedules the retire: the crypto latency after the later of the
// join and now (the end of the serialized chain, if any).
func (op *chunkOp) finish() {
	e := op.e
	e.se.At(max(op.latest, e.se.Now())+cryptoPs, op.retireFn)
}

// serialNext is the completion callback of one serialized fetch.
func (op *chunkOp) serialNext(sim.Time) { op.serialStep() }

// serialStep issues the next fetch of the serialized chain, or finishes the
// request when the chain is exhausted (at once for an empty chain).
func (op *chunkOp) serialStep() {
	e := op.e
	if op.serialI >= len(op.serial) {
		op.finish()
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
	at := max(sp.latest, e.se.Now())
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
// (Spec traits and unit rules) through granRules and counterSource.
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
			e.memWrite(r.Device, r.Addr, r.Size, mem.Data, op.retireFn)
		} else {
			e.memRead(r.Device, r.Addr, r.Size, mem.Data, op.retireFn)
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
			op.join(e.memRead(r.Device, gtAddr, 64, mem.GranTable, nil))
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

	// 4. Resolve protection units and their encodings. Both sides' units
	// are collected into engine scratch once, as runs of consecutive units
	// of one granularity; enumeration depends only on the stream-part value
	// read here, so the runs stay valid across the stages below.
	var sp meta.StreamPart
	if e.table != nil {
		sp = e.table.Current(chunk)
	}
	ctrRule, macRule := e.granRules(r.Device)
	e.macRuns = appendUnits(e.macRuns[:0], sp, r, macRule)
	e.ctrRuns = appendUnits(e.ctrRuns[:0], sp, r, ctrRule)

	// 5. Data span. A coarse unit needs its whole data for verification
	// (nested MAC) and for read-modify-write, but bulk streams deliver the
	// unit across consecutive requests: the open-unit buffer tracks units
	// under streaming verification (see expandUnit).
	//
	// The retained-fine-MAC optimization belongs to the dynamic
	// multi-granular MAC designs (ours and Adaptive [56]); the static
	// strawman lacks it (its Fig. 6 penalty).
	op.lo, op.hi = r.Addr, r.Addr+uint64(r.Size)
	e.expandRuns(op, chunk, chunkBase, e.macRuns, e.spec.MultiMAC)
	if r.Write {
		e.expandRuns(op, chunk, chunkBase, e.ctrRuns, false)
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
		for _, u := range e.ctrRuns {
			e.Stats.SharedCTRHits += uint64(u.n)
		}
	case CountersTree:
		e.walkRuns(op)
	}

	// 7. MAC path: one cacheline per needed MAC line, in parallel. A
	// 32KB-capped table rule (the Ours family) uses the Fig. 9 compacted
	// layout, where every unit holds one slot in address order; a
	// request's units are consecutive units of the chunk, so they hold
	// consecutive slots starting at its first unit's. Fixed and 4KB-capped
	// rules use the flat per-block layout (slot = block index within
	// chunk), where only 64B units share a line. The loop steps by line:
	// a line's first unit looks it up (unless the previous line was the
	// same), and the line's other units of the run merge into it.
	compact := macRule.table && macRule.cap == meta.Gran32K
	var slot int
	if compact {
		slot, _ = sp.MACSlot(meta.BlockInChunk(e.macRuns[0].base))
	}
	var lastLine uint64 = ^uint64(0)
	for _, u := range e.macRuns {
		step := 1
		if !compact {
			slot, step = meta.BlockInChunk(u.base), u.gran.Blocks()
		}
		for k := 0; k < u.n; {
			m := 1 // the run's units from k on slot's line
			if step == 1 {
				m = min(u.n-k, meta.MACsPerLine-slot%meta.MACsPerLine)
			}
			lineAddr := e.geom.MACLineAddr(chunk, slot)
			if lineAddr != lastLine {
				lastLine = lineAddr
				hit, wb := e.macCache.Access(lineAddr, r.Write)
				e.probeCache(r.Device, probe.CacheMAC, lineAddr, hit)
				e.probeMAC(r.Device, lineAddr, false)
				if wb {
					e.memWrite(r.Device, lineAddr, 64, mem.MAC, nil)
				}
				if !hit {
					op.join(e.memRead(r.Device, lineAddr, 64, mem.MAC, nil))
				}
				if e.spec.DoubleStore && r.Write && u.gran > meta.Gran64 {
					// Adaptive stores both granularities on update.
					e.memWrite(r.Device, lineAddr, 64, mem.MAC, nil)
				}
			} else {
				e.probeMAC(r.Device, lineAddr, true)
			}
			if e.prb != nil {
				for range m - 1 {
					e.probeMAC(r.Device, lineAddr, true)
				}
			}
			if u.gran > meta.Gran64 {
				for j := range m {
					e.openUnits.Access(u.base+uint64(k+j)*u.gran.Bytes(), false) // unit now verified/open
				}
			}
			k += m
			slot += m * step
		}
	}

	// 8. Data transfer and completion.
	size := int(op.hi - op.lo)
	if r.Write {
		if overBeats > 0 {
			// Sub-unit write: fetch the covering unit (MAC recompute, and
			// old plaintext when re-encrypting).
			op.join(e.memRead(r.Device, op.lo, size, mem.Data, nil))
		}
		if op.rmw {
			op.join(e.memWrite(r.Device, op.lo, size, mem.Data, nil))
		} else {
			op.join(e.memWrite(r.Device, r.Addr, r.Size, mem.Data, nil))
		}
		e.writtenParts[chunk] |= partMask(chunkBase, r.Addr, r.Size)
		if e.walker != nil {
			e.walker.MarkTouched(meta.BlockIndex(r.Addr))
		}
	} else {
		op.join(e.memRead(r.Device, op.lo, size, mem.Data, nil))
	}
	e.lastWrite[chunk] = r.Write

	// Launch the serialized chain; its last fetch, or without a chain this
	// call, schedules the retire.
	op.serialStep()
}

// expandRuns widens the data span for every unit of runs (stage 5). A 64B
// unit lies inside its 64B-aligned request, so only coarse runs can widen
// it.
func (e *Engine) expandRuns(op *chunkOp, chunk, chunkBase uint64, runs []unitRun, fineMACFallback bool) {
	for _, u := range runs {
		if u.gran == meta.Gran64 {
			continue
		}
		for k := range u.n {
			e.expandUnit(op, chunk, chunkBase, u.base+uint64(k)*u.gran.Bytes(), u.gran, fineMACFallback)
		}
	}
}

// expandUnit widens the data span for one coarse covering unit. A request
// that starts at the unit base opens the unit (the stream will supply the
// rest); requests hitting an open unit continue it; only a cold, unaligned
// access into a coarse unit — a misprediction in the paper's terms — pays
// the whole-unit fetch.
func (e *Engine) expandUnit(op *chunkOp, chunk, chunkBase, base uint64, g meta.Gran, fineMACFallback bool) {
	r := op.r
	unitEnd := base + g.Bytes()
	covers := r.Addr <= base && //mutate:ignore off-by-one requests are 64B aligned, so r.Addr <= base+1 holds exactly when r.Addr <= base
		r.Addr+uint64(r.Size) >= unitEnd
	if covers {
		return
	}
	openHit, _ := e.openUnits.Access(base, false)
	e.probeCache(r.Device, probe.CacheOpenUnit, base, openHit)
	if openHit {
		return // streaming continuation: already fetched/buffered
	}
	if r.Addr == base {
		return // stream start: the unit fills as the stream proceeds
	}
	if r.Size >= int(g.Bytes())/meta.Arity && meta.Aligned(r.Addr, uint64(r.Size)) {
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
		unitMask := partMask(chunkBase, base, int(g.Bytes()))
		if e.writtenParts[chunk]&unitMask == 0 {
			fineLine := e.geom.MACLineAddr(chunk, int((r.Addr-chunkBase)/meta.BlockSize))
			op.join(e.memRead(r.Device, fineLine, 64, mem.MAC, nil))
			return
		}
	}
	// Written data: fetch the covering unit to re-verify/re-seal.
	op.lo, op.hi = min(op.lo, base), max(op.hi, unitEnd)
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
		firstPart := (base - chunkBase) / meta.PartitionSize
		parts := g.Blocks() / meta.BlocksPerPartition
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

// walkRuns walks the tree for every counter unit of the request (stage 6).
// The walk of a counter line's first unit in a run is real; the line's
// other units of the run re-hit it in one Repeat when the walker can prove
// they would, and otherwise the next unit walks for real. Every unit counts
// as one walk all the same.
func (e *Engine) walkRuns(op *chunkOp) {
	r := op.r
	first := true
	for _, u := range e.ctrRuns {
		level := u.gran.Level()
		stride := uint64(u.gran.Blocks())
		blockIdx := meta.BlockIndex(u.base)
		for left := u.n; left > 0; {
			walk := e.walkUnit(blockIdx, u.gran, r.Write)
			e.countWalks(r, walk, 1)
			for range walk.Writebacks {
				e.memWrite(r.Device, e.geom.CounterLineAddr(0, blockIdx), 64, mem.Counter, nil)
			}
			if first && !r.Write {
				for _, a := range walk.Fetches {
					op.serial = append(op.serial, fetchOp{addr: a, kind: mem.Counter})
				}
			} else {
				for _, a := range walk.Fetches {
					op.join(e.memRead(r.Device, a, 64, mem.Counter, nil))
				}
			}
			first = false
			// The units after this one on its counter line (Arity per line).
			rest := min(left-1, meta.Arity-1-int(blockIdx/stride%meta.Arity))
			blockIdx += stride
			left--
			if rep, ok := e.walker.Repeat(blockIdx, level, r.Write, rest); ok {
				e.countWalks(r, rep, rest)
				blockIdx += uint64(rest) * stride
				left -= rest
			}
		}
	}
}

// countWalks accounts for n walks with one outcome: the Stats, and with a
// probe attached one EvWalk each.
func (e *Engine) countWalks(r Request, walk tree.Walk, n int) {
	if e.prb != nil {
		for range n {
			e.probeWalk(r, walk)
		}
	}
	e.Stats.WalkLevels += uint64(n * walk.Levels)
	if walk.Pruned {
		e.Stats.PrunedWalks += uint64(n)
	}
	if walk.SubtreeHit {
		e.Stats.SubtreeHits += uint64(n)
	}
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

// appendUnits collects the protection units covering a request under a
// granularity rule into dst (an engine-owned scratch slice), as maximal
// runs: a fixed rule gives one run, a table rule steps by partition and
// extends the last run while the next units continue it.
func appendUnits(dst []unitRun, sp meta.StreamPart, r Request, rule granRule) []unitRun {
	end := r.Addr + uint64(r.Size)
	if rule.fixed {
		base := meta.AlignGran(r.Addr, rule.gran)
		n := (end - base + rule.gran.Bytes() - 1) / rule.gran.Bytes()
		return append(dst, unitRun{base: base, gran: rule.gran, n: int(n)})
	}
	for addr := r.Addr; addr < end; {
		g := min(sp.GranOf(meta.PartIndex(addr)), rule.cap)
		base := meta.AlignGran(addr, g)
		next := base + g.Bytes()
		if g == meta.Gran64 {
			// The partition's blocks from addr, up to the request's end.
			next = min(meta.AlignGran(addr, meta.Gran512)+meta.PartitionSize, end)
		}
		n := int((next - base + g.Bytes() - 1) / g.Bytes())
		if k := len(dst) - 1; k >= 0 && dst[k].gran == g && dst[k].base+uint64(dst[k].n)*g.Bytes() == base {
			dst[k].n += n
		} else {
			dst = append(dst, unitRun{base: base, gran: g, n: n})
		}
		addr = next
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
