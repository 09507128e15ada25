package secmem

import (
	"fmt"

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
	i := meta.BlockIndex(addr)
	ct := m.data.vals[i]
	ct[addr%meta.BlockSize] ^= 1
	m.data.set(i, ct)
	return true
}

// TamperMAC flips one bit of the stored MAC guarding addr. Tampering the
// slot of a pristine unit materializes a bogus MAC where none existed —
// still an off-chip mutation, still landed.
func (m *Memory) TamperMAC(addr uint64) bool {
	m.checkAddr(addr)
	base, _ := m.unitOf(addr)
	s := m.macSlot(base, m.table[meta.ChunkIndex(addr)])
	mac := m.macs.vals[s]
	mac[0] ^= 1
	m.macs.set(s, mac)
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
	s := m.counterSlot(level, m.geom.CounterEntryIndex(level, meta.BlockIndex(base)))
	m.counters.set(s, m.counters.vals[s]+1)
	return true
}

// SpliceData swaps the stored ciphertext of the blocks holding a and b,
// modelling a relocation attack. The MACs stay where they were. Swapping a
// block with itself, or two blocks that both hold no stored ciphertext,
// changes nothing and reports false.
func (m *Memory) SpliceData(a, b uint64) bool {
	m.checkAddr(a)
	m.checkAddr(b)
	i, j := meta.BlockIndex(a), meta.BlockIndex(b)
	if i == j {
		return false
	}
	cta, oka := m.data.get(i)
	ctb, okb := m.data.get(j)
	if !oka && !okb {
		return false
	}
	m.data.set(i, ctb)
	m.data.set(j, cta)
	return true
}

// TamperTable forces the chunk's granularity-table entry to sp, modelling
// corruption of the off-chip granularity table (the Morphable-Counters
// analogue: metadata laid out under one encoding reinterpreted under
// another). Returns false when the entry already reads sp.
func (m *Memory) TamperTable(chunk uint64, sp meta.StreamPart) bool {
	if chunk >= uint64(len(m.table)) {
		panic(fmt.Sprintf("secmem: chunk %d outside region", chunk))
	}
	if m.table[chunk] == sp {
		return false
	}
	m.table[chunk] = sp
	return true
}

// Snapshot captures all off-chip state: ciphertext, MACs, tree nodes,
// counters and the granularity table, so replay across granularity
// switches restores a consistent metadata layout. Restoring it after
// further writes is a replay attack — the on-chip roots are deliberately
// not captured. A snapshot copies the whole off-chip image.
type Snapshot struct{ img offChip }

// Snapshot records current off-chip memory contents.
func (m *Memory) Snapshot() *Snapshot { return &Snapshot{m.offChip.clone()} }

// Equal reports whether two snapshots capture identical off-chip state —
// the divergence oracle for campaigns comparing a victim against an
// untouched twin.
func (s *Snapshot) Equal(o *Snapshot) bool { return s.img.equal(&o.img) }

// Replay overwrites off-chip memory with a previously captured snapshot,
// leaving on-chip roots untouched. The snapshot is copied, so it can be
// replayed again later (a patient attacker reuses a stale image).
func (m *Memory) Replay(s *Snapshot) { m.offChip = s.img.clone() }

// RollbackCounters restores only the freshness state — counters and
// tree-node MACs — from a snapshot, leaving data, MACs and the
// granularity table current. This models a counter-rollback attack that
// tries to revert version state without touching content. Returns false
// when the snapshot's freshness state matches the current one (no-op).
func (m *Memory) RollbackCounters(s *Snapshot) bool {
	if m.counters.equal(&s.img.counters) && m.nodeMACs.equal(&s.img.nodeMACs) {
		return false
	}
	m.counters, m.nodeMACs = s.img.counters.clone(), s.img.nodeMACs.clone()
	return true
}

// Check verifies the full chain and MAC for addr without returning data.
func (m *Memory) Check(addr uint64) error {
	if _, err := m.Read(addr); err != nil {
		return fmt.Errorf("check %#x: %w", addr, err)
	}
	return nil
}
