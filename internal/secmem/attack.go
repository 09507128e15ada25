package secmem

import (
	"fmt"
	"maps"

	"unimem/internal/crypto"
	"unimem/internal/meta"
)

// This file models the attacker of the paper's threat model (section 2.5):
// full control of off-chip memory — data, MACs, counter-tree nodes and the
// granularity table — but no access to on-chip state (root counters,
// keys). Every mutator here corresponds to an attack the protection must
// detect. Each primitive reports whether it landed: false means the attack
// was impossible (the target lives on chip) or a no-op (the mutation would
// not change off-chip state), so campaigns can distinguish "undetected"
// from "never happened".

// TamperData flips one bit of the stored ciphertext of a block. Stored
// ciphertext is always attacker reachable (a never-written block's zero
// ciphertext is materialized and tampered), so this always lands.
func (m *Memory) TamperData(addr uint64) bool {
	m.checkAddr(addr)
	blk := addr &^ (meta.BlockSize - 1)
	ct := m.data[blk]
	ct[addr%meta.BlockSize] ^= 1
	m.data[blk] = ct
	return true
}

// TamperMAC flips one bit of the stored MAC guarding addr. Tampering the
// slot of a pristine unit materializes a bogus MAC where none existed —
// still an off-chip mutation, still landed.
func (m *Memory) TamperMAC(addr uint64) bool {
	m.checkAddr(addr)
	base, _ := m.unitOf(addr)
	slot := m.unitMACAddr(base, m.table[meta.ChunkIndex(addr)])
	mac := m.macs[slot]
	mac[0] ^= 1
	m.macs[slot] = mac
	return true
}

// TamperCounter bumps the stored counter entry guarding addr at its
// protection level without resealing the tree, modelling direct counter
// manipulation in off-chip memory. It returns false when the unit's
// counter lives on chip (fully promoted units of a small region whose
// protection level reaches the root array) — the attack is impossible
// there, not merely undetected.
func (m *Memory) TamperCounter(addr uint64) bool {
	m.checkAddr(addr)
	base, gran := m.unitOf(addr)
	level := gran.Level()
	if level >= m.geom.Levels() {
		return false // counter on chip; not attacker reachable
	}
	k := counterKey{level, m.geom.CounterEntryIndex(level, meta.BlockIndex(base))}
	m.counters[k]++
	return true
}

// SpliceData swaps the stored ciphertext of two blocks, modelling a
// relocation attack. The MACs stay where they were. Swapping a block with
// itself, or two blocks that both hold no stored ciphertext, changes
// nothing and reports false.
func (m *Memory) SpliceData(a, b uint64) bool {
	m.checkAddr(a)
	m.checkAddr(b)
	if a == b {
		return false
	}
	cta, oka := m.data[a]
	ctb, okb := m.data[b]
	if !oka && !okb {
		return false
	}
	m.data[a], m.data[b] = ctb, cta
	return true
}

// TamperTable forces the chunk's granularity-table entry to sp, modelling
// corruption of the off-chip granularity table (the Morphable-Counters
// analogue: metadata laid out under one encoding reinterpreted under
// another). Returns false when the entry already reads sp.
func (m *Memory) TamperTable(chunk uint64, sp meta.StreamPart) bool {
	if chunk >= m.geom.Chunks() {
		panic(fmt.Sprintf("secmem: chunk %d outside region", chunk))
	}
	if m.table[chunk] == sp {
		return false
	}
	m.setEncoding(chunk, sp)
	return true
}

// Snapshot captures all off-chip state: ciphertext, MACs, tree nodes,
// counters and the granularity table. Restoring it after
// further writes is a replay attack — the on-chip roots are deliberately
// not captured.
type Snapshot struct {
	data     map[uint64][meta.BlockSize]byte
	counters map[counterKey]uint64
	macs     map[uint64]crypto.MAC
	nodeMACs map[uint64]crypto.MAC
	// table holds the encodings of chunks with non-default state, so
	// replay across granularity switches restores a consistent metadata
	// layout.
	table map[uint64]meta.StreamPart
}

// Snapshot records current off-chip memory contents.
func (m *Memory) Snapshot() *Snapshot {
	return &Snapshot{
		data:     maps.Clone(m.data),
		counters: maps.Clone(m.counters),
		macs:     maps.Clone(m.macs),
		nodeMACs: maps.Clone(m.nodeMACs),
		table:    maps.Clone(m.table),
	}
}

// Equal reports whether two snapshots capture identical off-chip state —
// the divergence oracle for campaigns comparing a victim against an
// untouched twin.
func (s *Snapshot) Equal(o *Snapshot) bool {
	return maps.Equal(s.data, o.data) &&
		maps.Equal(s.counters, o.counters) &&
		maps.Equal(s.macs, o.macs) &&
		maps.Equal(s.nodeMACs, o.nodeMACs) &&
		maps.Equal(s.table, o.table)
}

// Replay overwrites off-chip memory with a previously captured snapshot,
// leaving on-chip roots untouched. The snapshot is copied, so it can be
// replayed again later (a patient attacker reuses a stale image).
func (m *Memory) Replay(s *Snapshot) {
	m.data = maps.Clone(s.data)
	m.counters = maps.Clone(s.counters)
	m.macs = maps.Clone(s.macs)
	m.nodeMACs = maps.Clone(s.nodeMACs)
	m.table = maps.Clone(s.table)
}

// RollbackCounters restores only the freshness state — counters and
// tree-node MACs — from a snapshot, leaving data, MACs and the
// granularity table current. This models a counter-rollback attack that
// tries to revert version state without touching content. Returns false
// when the snapshot's freshness state matches the current one (no-op).
func (m *Memory) RollbackCounters(s *Snapshot) bool {
	if maps.Equal(m.counters, s.counters) &&
		maps.Equal(m.nodeMACs, s.nodeMACs) {
		return false
	}
	m.counters = maps.Clone(s.counters)
	m.nodeMACs = maps.Clone(s.nodeMACs)
	return true
}

// Check verifies the full chain and MAC for addr without returning data.
func (m *Memory) Check(addr uint64) error {
	if _, err := m.Read(addr); err != nil {
		return fmt.Errorf("check %#x: %w", addr, err)
	}
	return nil
}
