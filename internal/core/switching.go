package core

import (
	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/tracker"
)

// applyDetection merges an access-tracker detection with the chunk's
// history (hysteresis) and routes the result: under CountersShared it
// updates the shared-counter set instead of the table (CommonCTR);
// otherwise it lands in the granularity table as "next" and commits
// lazily.
func (e *Engine) applyDetection(det tracker.Detection) {
	e.Stats.Detections++
	sp := det.Stream
	// Merge by evidence: partitions not touched in the evicted window keep
	// their previous classification (a sparse window says nothing about
	// them). Demotions additionally need two consecutive windows of fine
	// evidence — a single stray access into a coarse unit is served through
	// the retained fine MACs, and reclassifying on it would thrash the
	// granularity (and pay the Table 2 data-chunk fetch) every time the
	// region is streamed again.
	if e.table != nil {
		prev := e.table.Next(det.Chunk)
		promote := det.Stream
		demote := det.Touched &^ det.Stream
		// Refinement: a window that accesses only part of a coarse unit
		// refutes that unit's granularity — unit-wide sharing of one
		// counter/MAC only pays off when the unit is accessed as a whole.
		// The untouched remainder collects demote votes so an
		// over-promoted chunk settles at the granularity actually used.
		demote |= refuteMask(prev, det.Touched)
		votes := e.demoteVotes[det.Chunk]
		confirmed := demote & votes
		e.demoteVotes[det.Chunk] = (votes | demote) &^ (promote | confirmed)
		sp = (prev | promote) &^ confirmed
	}
	if e.spec.DualOnly && sp != meta.AllStream {
		sp = 0
	}
	consumed := e.spec.Counters == CountersShared
	if consumed {
		e.shareCounter(det.Chunk, sp)
	}
	e.probeDetect(det.Chunk, sp, consumed)
	if consumed || e.table == nil {
		return
	}
	// Lazy switching timing is identical with and without switch-cost
	// accounting (the free-switch ablation only waives the Table 2
	// charges), so detections always land as "next" and commit on the
	// following access.
	e.table.SetNext(det.Chunk, sp)
}

// shareCounter routes one CommonCTR detection: an all-stream chunk joins
// the shared-counter set while it has room; anything finer evicts the
// chunk back to the tree.
func (e *Engine) shareCounter(chunk uint64, sp meta.StreamPart) {
	if sp != meta.AllStream {
		delete(e.shared, chunk)
		return
	}
	if e.shared[chunk] || len(e.shared) < sharedCounters {
		e.shared[chunk] = true
	}
}

// refuteMask returns the partitions of coarse units (under encoding prev)
// whose unit was touched only partially by the window — evidence the unit
// granularity is too coarse.
func refuteMask(prev, touched meta.StreamPart) meta.StreamPart {
	if touched == 0 {
		return 0
	}
	if prev == meta.AllStream {
		if touched != meta.AllStream {
			return ^touched
		}
		return 0
	}
	var out meta.StreamPart
	for g := range 8 {
		groupMask := meta.StreamPart(0xff) << (uint(g) * 8)
		if prev&groupMask != groupMask {
			continue // not a 4KB unit
		}
		t := touched & groupMask
		if t != 0 && t != groupMask {
			out |= groupMask &^ touched
		}
	}
	return out
}

// handleSwitches applies pending lazy granularity switches for the units a
// request touches and charges the Table 2 costs. Requests that needed no
// switch count as correct predictions. A partition is pending when its
// unit granularity differs between the chunk's current and next encodings;
// only CommitUnit writes the table in this loop, so both are read once and
// again after each commit, and the loop stops once they agree.
func (e *Engine) handleSwitches(r Request, chunk, chunkBase uint64, op *chunkOp) {
	firstPart := meta.PartIndex(r.Addr)
	lastPart := meta.PartIndex(r.Addr + uint64(r.Size) - 1)
	classified := false
	switched := false
	cur, next := e.table.Current(chunk), e.table.Next(chunk)
	for p := firstPart; p <= lastPart && cur != next; p++ {
		if cur.GranOf(p) == next.GranOf(p) {
			continue
		}
		b := p * meta.BlocksPerPartition
		from, to := e.table.CommitUnit(chunk, b)
		cur, next = e.table.Current(chunk), e.table.Next(chunk)
		switched = true
		if !e.spec.FreeSwitch {
			e.chargeSwitch(r, chunk, chunkBase, b, from, to, op, &classified)
		}
		// The unit's metadata moved: stale cached lines for the old layout
		// are dropped (models the address-computation change of Eq. 1-4).
		e.openUnits.Invalidate(chunkBase + uint64(b)*meta.BlockSize)
	}
	if !switched {
		e.Stats.Switches.Correct++
	}
}

// chargeSwitch implements the Table 2 cost matrix for one switched unit.
func (e *Engine) chargeSwitch(r Request, chunk, chunkBase uint64, b int, from, to meta.Gran, op *chunkOp, classified *bool) {
	lastW := e.lastWrite[chunk]
	blockIdx := meta.BlockIndex(chunkBase + uint64(b)*meta.BlockSize)

	// Counter / integrity-tree side.
	if e.spec.MultiCTR {
		if to < from { //mutate:ignore off-by-one chargeSwitch runs only for a pending unit, so from != to and to < from+1 holds exactly when to < from
			// Scale-down: zero additional fetches — the retained counter
			// value means following accesses fetch what they need anyway.
			if !*classified {
				e.Stats.Switches.DownAll++
				e.probeSwitch(r, probe.SwDownAll)
			}
		} else {
			switch {
			case r.Write && !lastW:
				if !*classified {
					e.Stats.Switches.UpWAR++
					e.probeSwitch(r, probe.SwUpWAR)
				}
			case r.Write && lastW:
				if !*classified {
					e.Stats.Switches.UpWAW++
					e.probeSwitch(r, probe.SwUpWAW)
				}
			default:
				// Reads must establish the promoted counter: fetch from the
				// parent level up to the root. After a recent write (RAW)
				// these levels sit in the metadata cache; after reads (RAR)
				// they are fetched from memory.
				if !*classified {
					if lastW {
						e.Stats.Switches.UpRAW++
						e.probeSwitch(r, probe.SwUpRAW)
					} else {
						e.Stats.Switches.UpRAR++
						e.probeSwitch(r, probe.SwUpRAR)
					}
				}
				walk := e.walker.Write(blockIdx, to.Level())
				for _, a := range walk.Fetches {
					op.join(e.memRead(r.Device, a, 64, mem.Switch, nil))
				}
				for i := 0; i < walk.Writebacks; i++ {
					e.memWrite(r.Device, a64Base(e, blockIdx), 64, mem.Counter, nil)
				}
			}
		}
	}

	// MAC side.
	if e.spec.MultiMAC {
		if to < from { //mutate:ignore swap-ineq chargeSwitch runs only for a pending unit, so from != to
			unitMask := partMask(chunkBase, chunkBase+uint64(b&^(from.Blocks()-1))*meta.BlockSize, int(from.Bytes()))
			readOnly := e.writtenParts[chunk]&unitMask == 0
			if readOnly {
				// Fine MACs of read-only data are kept in the unprotected
				// region (section 4.4): fetch them, nothing else.
				if !*classified {
					e.Stats.Switches.MACDownRO++
					e.probeSwitch(r, probe.SwMACDownRO)
				}
				for _, lineAddr := range e.fineMACLines(chunk, b, from) {
					op.join(e.memRead(r.Device, lineAddr, 64, mem.MAC, nil))
				}
			} else {
				// Written data: the whole unit must be fetched to recompute
				// fine MACs (the "Moderate" row of Table 2).
				if !*classified {
					e.Stats.Switches.MACDownRW++
					e.probeSwitch(r, probe.SwMACDownRW)
				}
				base := chunkBase + uint64(b&^(from.Blocks()-1))*meta.BlockSize
				op.join(e.memRead(r.Device, base, int(from.Bytes()), mem.Switch, nil))
			}
		} else {
			if !*classified {
				e.Stats.Switches.MACUpLazy++
				e.probeSwitch(r, probe.SwMACUpLazy)
			}
		}
	}
	*classified = true
}

// fineMACLines returns the 64B MAC-line addresses holding the fine-grained
// MACs of the from-sized unit containing chunk block b — the lines a
// read-only scale-down fetches (section 4.4). The span is anchored at the
// unit base, not at b: a lazy switch can be triggered from any partition of
// the unit, and anchoring at b would fetch lines past the unit (an earlier
// version wrapped them modulo the chunk, fetching another unit's MACs).
// The returned slice is engine-owned scratch, valid until the next call.
func (e *Engine) fineMACLines(chunk uint64, b int, from meta.Gran) []uint64 {
	base := b &^ (from.Blocks() - 1)
	lines := from.Blocks() / meta.MACsPerLine
	if lines < 1 { //mutate:ignore off-by-one lines < 2 differs only at lines == 1, which it sets to 1
		lines = 1
	}
	out := e.macLines[:0]
	for i := 0; i < lines; i++ {
		out = append(out, e.geom.MACLineAddr(chunk, base+i*meta.MACsPerLine))
	}
	e.macLines = out
	return out
}

// a64Base picks a representative counter-line address for writeback
// traffic accounting (the evicted line's true address is not tracked by
// the tag cache; using the walk's leaf line keeps channel balance).
// CounterLineAddr returns 64B line addresses by construction.
func a64Base(e *Engine, blockIdx uint64) uint64 {
	return e.geom.CounterLineAddr(0, blockIdx)
}
