package secmem

import (
	"fmt"

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
	oldSP := m.table.Current(chunk) //mutate:ignore drop-window no secmem call leaves a switch pending (every table write commits at once), so Next equals Current here
	if oldSP == newSP {
		return nil
	}
	chunkBase := chunk * meta.ChunkSize

	// Verify and stage every old unit; the reseal below works only from
	// the staged plaintext. Only once every old unit verified may their
	// MAC slots go: a failure must leave the image exactly as it was.
	staged := oldSP.Units()
	if err := m.stage(chunk, oldSP, staged...); err != nil {
		return err
	}
	for _, u := range staged {
		delete(m.macs, m.unitMACAddr(chunkBase+uint64(u.Block)*meta.BlockSize, oldSP))
	}

	// Commit the new encoding so slot/unit resolution below uses it.
	m.table.SetNext(chunk, newSP)
	m.table.CommitAll(chunk)

	// The switch window is open: metadata committed, units not resealed.
	// Campaigns hook this to land mid-switch mutations; because the reseal
	// below writes back from staged plaintext, anything an attacker does
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
		level := u.Gran.Level()
		entry := m.geom.CounterEntryIndex(level, meta.BlockIndex(base))

		cover := oldSP.UnitOf(u.Block) // the old unit covering u's first block
		ctr := m.stg.ctr[cover.Block]
		switch {
		case cover == u:
			// Same unit; only its MAC slot may have moved. A unit whose
			// counter is still zero was never written (every write and
			// switch that seals a unit leaves its counter nonzero): it has
			// no MAC to move, and sealing one would authenticate the zero
			// ciphertext and break fresh-memory-reads-zero semantics.
			if ctr != 0 {
				m.seal(base, u.Gran, ctr)
			}

		//mutate:ignore swap-ineq an old unit of equal granularity covering u's first block is u itself, so the arm above takes every equal-gran case; >= versus > is unreachable
		case cover.Gran > u.Gran:
			// Scale-down: children retain the parent counter value
			// (Fig. 13 b), so ciphertext is still valid under the same
			// (address, counter) pad; regenerate the finer MACs only.
			m.Stats.Demotions++
			m.writeCounter(level, entry, ctr)
			m.seal(base, u.Gran, ctr)

		default:
			// Scale-up: the promoted counter becomes max of the covered
			// old counters plus one (Fig. 13 a); every member block is
			// re-encrypted under the fresh shared counter, never-written
			// ones as zeros so the nested MAC covers well-defined contents.
			m.Stats.Promotions++
			var maxCtr uint64
			for b := u.Block; b < u.Block+u.Blocks(); b++ {
				if c := m.stg.ctr[oldSP.UnitOf(b).Block]; c > maxCtr {
					maxCtr = c
				}
			}
			newCtr := maxCtr + 1
			m.stg.zeroFill(u)
			m.writeCounter(level, entry, newCtr)
			m.seal(base, u.Gran, newCtr)
		}
	}
	return nil
}

// Promote raises the granularity of the partitions [first, first+count) of
// a chunk to stream partitions, keeping the rest unchanged.
func (m *Memory) Promote(chunk uint64, first, count int) error {
	if err := m.checkParts(chunk, first, count); err != nil {
		return err
	}
	return m.ApplyDetection(chunk, m.table.Current(chunk).PromoteMask(first, count)) //mutate:ignore drop-window no secmem call leaves a switch pending (every table write commits at once), so Next equals Current here
}

// Demote lowers the partitions [first, first+count) back to fine-grained.
func (m *Memory) Demote(chunk uint64, first, count int) error {
	if err := m.checkParts(chunk, first, count); err != nil {
		return err
	}
	return m.ApplyDetection(chunk, m.table.Current(chunk).DemoteMask(first, count)) //mutate:ignore drop-window no secmem call leaves a switch pending (every table write commits at once), so Next equals Current here
}

// checkParts rejects a chunk outside the region and a partition range that
// is empty or leaves the chunk.
func (m *Memory) checkParts(chunk uint64, first, count int) error {
	if chunk >= m.geom.Chunks() {
		return fmt.Errorf("secmem: chunk %d outside the %d-chunk region", chunk, m.geom.Chunks())
	}
	if first < 0 || count < 1 || count > meta.PartsPerChunk-first {
		return fmt.Errorf("secmem: partitions [%d, %d+%d) outside a %d-partition chunk", first, first, count, meta.PartsPerChunk)
	}
	return nil
}
