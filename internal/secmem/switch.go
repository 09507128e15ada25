package secmem

import (
	"fmt"

	"unimem/internal/crypto"
	"unimem/internal/meta"
	"unimem/internal/probe"
)

// ApplyDetection switches a chunk to a newly detected granularity encoding
// (paper Fig. 13). Scale-up assigns each promoted unit
// max(child counters)+1 and re-encrypts the unit under the fresh shared
// counter; scale-down retains the parent counter value in the children, so
// existing ciphertext stays valid and only fine MACs are regenerated.
// MAC slots are recomputed for every unit because compaction (Fig. 9)
// moves slots when any partition of the chunk changes.
func (m *Memory) ApplyDetection(chunk uint64, newSP meta.StreamPart) error {
	if chunk >= m.geom.Chunks() {
		panic(fmt.Sprintf("secmem: chunk %d outside region", chunk))
	}
	oldSP := m.table.Current(chunk)
	if oldSP == newSP {
		return nil
	}
	chunkBase := chunk * meta.ChunkSize

	// Scale-up assigns max(children)+1; if that would saturate a bounded
	// minor counter, bump the chunk's major epoch first. Demotion-only
	// switches increment nothing and must not trigger the bump (it would
	// needlessly re-encrypt, defeating Fig. 13 b's no-re-encryption
	// property).
	if m.ctrBits != 0 && anyScaleUp(oldSP, newSP) {
		for _, u := range oldSP.Units() {
			base := chunkBase + uint64(u.Block)*meta.BlockSize
			if m.unitCounter(base, u.Gran)+1 >= m.minorLimit() {
				if err := m.bumpMajor(chunk); err != nil {
					return err
				}
				break
			}
		}
	}

	// Verify and capture the old state: per old unit, verify the chain
	// (freshness) and the unit MAC (content), then decrypt every stored
	// block into an on-chip capture buffer. The reseal phase below works
	// exclusively from this captured plaintext — resealing from off-chip
	// ciphertext after verification would let a mid-switch tamper be
	// laundered into fresh MACs (the TOCTOU window real engines close with
	// on-chip staging buffers).
	type oldUnit struct {
		base uint64
		gran meta.Gran
		ctr  uint64
	}
	oldUnits := map[uint64]oldUnit{} // by base address
	plains := map[uint64][]byte{}    // captured plaintext by block address
	for _, u := range oldSP.Units() {
		base := chunkBase + uint64(u.Block)*meta.BlockSize
		if err := m.verifyChain(u.Gran.Level(), meta.BlockIndex(base)); err != nil {
			return err
		}
		ctr := m.unitCounter(base, u.Gran)
		eff := m.effectiveCtr(chunk, ctr)
		if err := m.verifyUnit(base, u.Gran, oldSP, ctr, eff); err != nil {
			return err
		}
		oldUnits[base] = oldUnit{base: base, gran: u.Gran, ctr: ctr}
		for a := base; a < base+u.Gran.Bytes(); a += meta.BlockSize {
			if ct, ok := m.data[a]; ok {
				plains[a] = m.eng.Open(a, eff, ct[:])
			}
		}
	}
	// Only now that every old unit verified may their MAC slots go: a
	// failure above must leave the image exactly as it was.
	for base := range oldUnits {
		delete(m.macs, m.unitMACAddr(base, oldSP))
	}
	// oldOf returns the old unit covering addr.
	oldOf := func(addr uint64) oldUnit {
		u := oldSP.UnitOf(meta.BlockInChunk(addr))
		return oldUnits[chunkBase+uint64(u.Block)*meta.BlockSize]
	}

	// Commit the new encoding so slot/unit resolution below uses it.
	m.table.SetNext(chunk, newSP)
	m.table.CommitAll(chunk)

	// The switch window is open: metadata committed, units not resealed.
	// Campaigns hook this to land mid-switch mutations; because the reseal
	// below writes back from captured plaintext, anything an attacker does
	// to the chunk's off-chip image inside the window is either overwritten
	// or left inconsistent with the fresh MACs — and thus detected.
	if m.prb != nil {
		m.prb.Event(probe.Event{
			Kind: probe.EvSwitchWindow, Addr: chunkBase,
			Val: int64(oldSP), Aux: int64(newSP),
		})
	}

	for _, u := range newSP.Units() {
		base := chunkBase + uint64(u.Block)*meta.BlockSize
		size := uint64(u.Blocks()) * meta.BlockSize
		level := u.Gran.Level()
		entry := m.geom.CounterEntryIndex(level, meta.BlockIndex(base))

		cover := oldOf(base)
		switch {
		case cover.gran == u.Gran && cover.base == base:
			// Same unit; only its MAC slot may have moved. Untouched units
			// have no MAC to move — sealing one would authenticate the
			// zero ciphertext and break fresh-memory-reads-zero semantics.
			if cover.ctr != 0 || !m.unitUntouched(base, u.Gran) {
				m.sealUnitFromPlain(base, u.Gran, m.effectiveCtr(chunk, cover.ctr), plains)
			}

		//mutate:ignore swap-ineq an old unit of equal granularity covering base is base-aligned, so cover.base == base and the arm above takes every equal-gran case; >= versus > is unreachable
		case cover.gran > u.Gran:
			// Scale-down: children retain the parent counter value
			// (Fig. 13 b), so ciphertext is still valid under the same
			// (address, counter) pad; regenerate the finer MACs only.
			m.Stats.Demotions++
			m.writeCounter(level, entry, cover.ctr)
			m.sealUnitFromPlain(base, u.Gran, m.effectiveCtr(chunk, cover.ctr), plains)

		default:
			// Scale-up: the promoted counter becomes max of the covered
			// old counters plus one (Fig. 13 a); all member blocks are
			// re-encrypted under the fresh shared counter.
			m.Stats.Promotions++
			var maxCtr uint64
			for a := base; a < base+size; a += meta.BlockSize {
				if c := oldOf(a).ctr; c > maxCtr {
					maxCtr = c
				}
			}
			newCtr := maxCtr + 1
			newEff := m.effectiveCtr(chunk, newCtr)
			// Materialize and re-encrypt every block of the unit from the
			// captured plaintext so the nested MAC covers well-defined
			// contents (zeros for never-written blocks).
			for a := base; a < base+size; a += meta.BlockSize {
				plain := plains[a]
				if plain == nil {
					plain = make([]byte, meta.BlockSize)
				}
				var ct [meta.BlockSize]byte
				copy(ct[:], m.eng.Seal(a, newEff, plain))
				m.data[a] = ct
			}
			m.writeCounter(level, entry, newCtr)
			m.sealUnit(base, u.Gran, newEff)
		}
	}
	return nil
}

// sealUnitFromPlain re-encrypts a unit's written blocks from plaintext
// captured at verify time, writes the ciphertext back, and stores the
// unit's MAC — never touching off-chip ciphertext mutated after the
// verification. Blocks absent from the capture keep zero-ciphertext MAC
// semantics (matching fineMACs) without being materialized.
func (m *Memory) sealUnitFromPlain(base uint64, gran meta.Gran, eff uint64, plains map[uint64][]byte) {
	sp := m.table.Current(meta.ChunkIndex(base))
	fines := make([]crypto.MAC, gran.Blocks())
	for i := range fines {
		a := base + uint64(i*meta.BlockSize)
		if pt, ok := plains[a]; ok {
			var ct [meta.BlockSize]byte
			copy(ct[:], m.eng.Seal(a, eff, pt))
			m.data[a] = ct
			fines[i] = m.eng.BlockMAC(a, eff, ct[:])
		} else {
			var zero [meta.BlockSize]byte
			fines[i] = m.eng.BlockMAC(a, eff, zero[:])
		}
	}
	if gran == meta.Gran64 {
		m.macs[m.unitMACAddr(base, sp)] = fines[0]
		return
	}
	m.macs[m.unitMACAddr(base, sp)] = m.eng.NestedMAC(fines)
}

// anyScaleUp reports whether the transition promotes any partition.
func anyScaleUp(oldSP, newSP meta.StreamPart) bool {
	for p := 0; p < meta.PartsPerChunk; p++ {
		if newSP.GranOf(p) > oldSP.GranOf(p) {
			return true
		}
	}
	return false
}

// Promote raises the granularity of the partitions [first, first+count) of
// a chunk to stream partitions, keeping the rest unchanged.
func (m *Memory) Promote(chunk uint64, first, count int) error {
	return m.ApplyDetection(chunk, m.table.Current(chunk).PromoteMask(first, count))
}

// Demote lowers the partitions [first, first+count) back to fine-grained.
func (m *Memory) Demote(chunk uint64, first, count int) error {
	return m.ApplyDetection(chunk, m.table.Current(chunk).DemoteMask(first, count))
}
