// Package secmem is the functional memory-protection layer: a protected
// memory image with real counter-mode encryption, real per-block and
// nested multi-granular MACs, and a real 8-ary counter integrity tree
// chained to on-chip roots. Unlike the timing layer (internal/core), which
// charges cycles, this layer moves actual bytes — tampering with stored
// ciphertext, MACs or counters, and replaying stale snapshots, is actually
// detected.
//
// Both layers share geometry and granularity encoding through
// internal/meta, so the property tests here validate the same addressing
// the timing model charges traffic for.
package secmem

import (
	"errors"
	"fmt"
	"slices"

	"unimem/internal/crypto"
	"unimem/internal/meta"
	"unimem/internal/probe"
)

// Integrity violation errors.
var (
	// ErrMAC is returned when a data block's MAC does not match.
	ErrMAC = errors.New("secmem: MAC mismatch (data tampered or spliced)")
	// ErrTree is returned when an integrity-tree node fails verification.
	ErrTree = errors.New("secmem: integrity-tree mismatch (counter tampered or replayed)")
)

// offChip is the state an attacker controls (paper section 2.5): the
// granularity table and the data and metadata regions. Each region is one
// dense array indexed by the slot the geometry already computes, with
// presence bits (see slots). A Snapshot is a copy of it.
type offChip struct {
	// table is the granularity table (paper section 4.4): each chunk's
	// encoding, zero for a fine chunk. Every write commits at once, so
	// there is no pending next encoding. Its length is the chunk bound
	// every entry point checks.
	table []meta.StreamPart

	data     slots[[meta.BlockSize]byte] // ciphertext by block index
	macs     slots[crypto.MAC]           // data MACs by MAC slot, (addr-MACBase)/8 (Eq. 1)
	counters slots[uint64]               // by counterSlot (Eq. 3)
	nodeMACs slots[crypto.MAC]           // by lineSlot (Eq. 4)
}

func (o *offChip) clone() offChip {
	return offChip{
		table:    slices.Clone(o.table),
		data:     o.data.clone(),
		macs:     o.macs.clone(),
		counters: o.counters.clone(),
		nodeMACs: o.nodeMACs.clone(),
	}
}

func (o *offChip) equal(p *offChip) bool {
	return slices.Equal(o.table, p.table) && o.data.equal(&p.data) && o.macs.equal(&p.macs) &&
		o.counters.equal(&p.counters) && o.nodeMACs.equal(&p.nodeMACs)
}

// Memory is one protected memory image.
type Memory struct {
	geom *meta.Geometry
	eng  *crypto.Engine
	offChip
	roots []uint64 // on-chip root counters (not attacker visible)

	// lineBase[level] is the slot of the level's first counter line,
	// (CounterLineAddr(level, 0)-CounterBase)/64, so a line's eight
	// counters are contiguous. lineBase[Levels()] is the number of
	// stored lines.
	lineBase []uint64

	// stg is the on-chip staging buffer every rewrite goes through (see
	// stage and seal).
	stg *staging

	// prb, when non-nil, receives EvSwitchWindow events while a lazy
	// granularity switch has verified-and-staged a chunk but not yet
	// resealed it — the timing seam attack campaigns use to land
	// mid-switch mutations (see ApplyDetection).
	prb probe.Probe

	// Stats counts functional operations for tests and examples.
	Stats Stats
}

// SetProbe attaches an event tap to the functional layer; only
// EvSwitchWindow is emitted. The nil default disables emission.
func (m *Memory) SetProbe(p probe.Probe) { m.prb = p }

// Stats counts functional-layer activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	Promotions uint64
	Demotions  uint64
	Verified   uint64 // tree-node verifications performed
}

// New creates a protected memory of regionBytes (multiple of 32KB),
// keyed by seed. All chunks start at the conventional fine (64B)
// granularity. The whole off-chip image is allocated up front: the
// ciphertext, one MAC per block, every tree line's counters and node MAC,
// and a presence bit per slot, about 1.3 bytes per protected byte
// (10.3 MB for an 8 MB region).
func New(regionBytes uint64, seed uint64) *Memory {
	return newMemory(meta.NewGeometry(regionBytes), seed)
}

// newMemory allocates a fresh image laid out by g.
func newMemory(g *meta.Geometry, seed uint64) *Memory {
	lineBase := make([]uint64, g.Levels()+1)
	for level := 0; level < g.Levels(); level++ {
		lineBase[level] = (g.CounterLineAddr(level, 0) - g.CounterBase) / meta.BlockSize
	}
	lines := (g.GTBase - g.CounterBase) / meta.BlockSize
	lineBase[g.Levels()] = lines
	return &Memory{
		geom: g,
		eng:  crypto.NewEngine(seed),
		offChip: offChip{
			table:    make([]meta.StreamPart, g.Chunks()),
			data:     newSlots[[meta.BlockSize]byte](g.Blocks()),
			macs:     newSlots[crypto.MAC](g.Blocks()),
			counters: newSlots[uint64](lines * meta.Arity),
			nodeMACs: newSlots[crypto.MAC](lines),
		},
		roots:    make([]uint64, g.RootEntries()),
		lineBase: lineBase,
		stg:      &staging{lines: make([]uint64, g.Levels())},
	}
}

// Geometry exposes the metadata layout.
func (m *Memory) Geometry() *meta.Geometry { return m.geom }

// Encoding returns the chunk's granularity encoding (zero for a fine
// chunk). Use ApplyDetection to change it.
func (m *Memory) Encoding(chunk uint64) meta.StreamPart { return m.table[chunk] }

// GranOf returns the current protection granularity covering addr.
func (m *Memory) GranOf(addr uint64) meta.Gran {
	m.checkAddr(addr)
	return m.table[meta.ChunkIndex(addr)].GranOfBlock(meta.BlockInChunk(addr))
}

func (m *Memory) checkAddr(addr uint64) {
	if addr >= m.geom.RegionBytes {
		panic(fmt.Sprintf("secmem: address %#x outside protected region", addr))
	}
}

// --- counter access -------------------------------------------------------

// lineSlot returns the slot of a stored counter line: its node MAC's index
// in nodeMACs, and its address's offset into the counter region in lines.
func (m *Memory) lineSlot(level int, line uint64) uint64 { return m.lineBase[level] + line }

// counterSlot returns the slot of a stored counter entry in counters.
func (m *Memory) counterSlot(level int, entry uint64) uint64 {
	return m.lineBase[level]*meta.Arity + entry
}

func (m *Memory) readCounter(level int, entry uint64) uint64 {
	if level >= m.geom.Levels() {
		return m.roots[entry]
	}
	return m.counters.vals[m.counterSlot(level, entry)]
}

// writeCounter stores a counter entry and reseals the chain above it:
// the parent counter is bumped to version the modified line, recursively
// to the on-chip root, and the line's node MAC is recomputed under the new
// parent value.
func (m *Memory) writeCounter(level int, entry uint64, val uint64) {
	if level >= m.geom.Levels() {
		m.roots[entry] = val
		return
	}
	m.counters.set(m.counterSlot(level, entry), val)
	line := entry / meta.Arity
	parentVal := m.readCounter(level+1, line) + 1
	m.writeCounter(level+1, line, parentVal)
	m.sealLine(level, line, parentVal)
}

// lineEntries returns a stored line's eight counters, which lie
// contiguously from the line's first counter slot.
func (m *Memory) lineEntries(level int, line uint64) (out [meta.Arity]uint64) {
	copy(out[:], m.counters.vals[m.counterSlot(level, line*meta.Arity):])
	return out
}

// lineAddr returns the address of the counter line at slot s (Eq. 4).
func (m *Memory) lineAddr(s uint64) uint64 { return m.geom.CounterBase + s*meta.BlockSize }

func (m *Memory) sealLine(level int, line uint64, parentVal uint64) {
	s := m.lineSlot(level, line)
	entries := m.lineEntries(level, line)
	m.nodeMACs.set(s, m.eng.NodeMAC(m.lineAddr(s), parentVal, entries[:]))
}

// verifyChain checks the tree from the counter line at startLevel covering
// blockIdx up to the on-chip root (paper Fig. 2 / section 2.2; the
// multi-granular tree starts at the promoted level, Fig. 10).
func (m *Memory) verifyChain(startLevel int, blockIdx uint64) error {
	for level := startLevel; level < m.geom.Levels(); level++ {
		if err := m.verifyLine(level, m.geom.CounterEntryIndex(level, blockIdx)/meta.Arity); err != nil {
			return err
		}
	}
	return nil
}

// verifyLine checks one counter line's node MAC against its parent counter.
func (m *Memory) verifyLine(level int, line uint64) error {
	parentVal := m.readCounter(level+1, line)
	s := m.lineSlot(level, line)
	stored, ok := m.nodeMACs.get(s)
	if !ok {
		// Never-written line: valid only in its pristine state.
		if parentVal == 0 && m.lineZero(level, line) {
			return nil
		}
		return fmt.Errorf("%w: missing node MAC at level %d", ErrTree, level)
	}
	m.Stats.Verified++
	entries := m.lineEntries(level, line)
	if !crypto.Equal(stored, m.eng.NodeMAC(m.lineAddr(s), parentVal, entries[:])) {
		return fmt.Errorf("%w: level %d line %#x", ErrTree, level, m.lineAddr(s))
	}
	return nil
}

func (m *Memory) lineZero(level int, line uint64) bool {
	for _, v := range m.lineEntries(level, line) {
		if v != 0 {
			return false
		}
	}
	return true
}

// --- unit helpers ---------------------------------------------------------

// unitOf resolves the protection unit covering addr under the current
// granularity encoding.
func (m *Memory) unitOf(addr uint64) (base uint64, gran meta.Gran) {
	u := m.table[meta.ChunkIndex(addr)].UnitOf(meta.BlockInChunk(addr))
	return meta.ChunkBase(addr) + uint64(u.Block)*meta.BlockSize, u.Gran
}

// unitCounter returns the version counter of the unit (at the promoted
// tree level for coarse units, paper Fig. 10).
func (m *Memory) unitCounter(base uint64, gran meta.Gran) uint64 {
	return m.readCounter(gran.Level(), m.geom.CounterEntryIndex(gran.Level(), meta.BlockIndex(base)))
}

// macSlot returns the slot of a unit's data MAC in macs: its MAC address's
// offset into the MAC region in 8B slots (Eq. 1).
func (m *Memory) macSlot(base uint64, sp meta.StreamPart) uint64 {
	a, _ := m.geom.MACAddrFor(base, sp)
	return (a - m.geom.MACBase) / meta.MACSize
}

// --- the rewrite path -----------------------------------------------------

// staging is the on-chip buffer of the rewrite path, one chunk wide and
// indexed by block within the chunk. Every path that rewrites stored units
// goes through it: stage verifies the units and decrypts them here, the
// caller edits the plaintext, and seal encrypts from here. Sealing from
// verified on-chip plaintext rather than from off-chip ciphertext is what
// keeps a rewrite from laundering tampered data into fresh MACs (the TOCTOU
// window real engines close with on-chip buffers). The buffer is reused
// across calls.
type staging struct {
	ct    [meta.BlocksPerChunk][meta.BlockSize]byte // ciphertext the next MAC fold covers
	plain [meta.BlocksPerChunk][meta.BlockSize]byte // verified plaintext
	has   [meta.BlocksPerChunk]bool                 // block holds staged plaintext
	ctr   [meta.BlocksPerChunk]uint64               // staged unit counter, by the unit's first block
	fines [meta.BlocksPerChunk]crypto.MAC           // per-block MACs of the fold
	lines []uint64                                  // per tree level, the last line this stage call verified
}

// noLine marks a level of staging.lines with no line verified yet.
const noLine = ^uint64(0)

// zeroFill stages every block of unit u that holds no plaintext as zeros,
// so seal materializes the whole unit.
func (s *staging) zeroFill(u meta.Unit) {
	for b := u.Block; b < u.Block+u.Blocks(); b++ {
		if !s.has[b] {
			s.plain[b] = [meta.BlockSize]byte{}
			s.has[b] = true
		}
	}
}

// foldMAC computes the MAC of the unit at base under counter ctr over the
// ciphertext in the staging buffer: the block MAC for a 64B unit, the
// nested fold of the per-block MACs (paper Eq. 5) for a coarse one.
func (m *Memory) foldMAC(base uint64, gran meta.Gran, ctr uint64) crypto.MAC {
	first := meta.BlockInChunk(base)
	fines := m.stg.fines[:gran.Blocks()]
	for i := range fines {
		fines[i] = m.eng.BlockMAC(base+uint64(i)*meta.BlockSize, ctr, m.stg.ct[first+i][:])
	}
	if gran == meta.Gran64 {
		return fines[0]
	}
	return m.eng.NestedMAC(fines)
}

// verifyUnit authenticates the unit's stored ciphertext against its MAC
// under counter ctr, loading the ciphertext into the staging buffer (zeros
// and no staged plaintext for never-written blocks). A pristine unit
// (counter zero, no MAC slot, no stored blocks) passes — fresh memory reads
// as zero without a MAC.
func (m *Memory) verifyUnit(base uint64, gran meta.Gran, sp meta.StreamPart, ctr uint64) error {
	first, blk := meta.BlockInChunk(base), meta.BlockIndex(base)
	touched := false
	for i := 0; i < gran.Blocks(); i++ {
		ct, ok := m.data.get(blk + uint64(i))
		m.stg.ct[first+i], m.stg.has[first+i] = ct, ok
		touched = touched || ok
	}
	stored, ok := m.macs.get(m.macSlot(base, sp))
	if !ok {
		if ctr == 0 && !touched {
			return nil
		}
		return fmt.Errorf("%w: missing MAC for unit %#x", ErrMAC, base)
	}
	if !crypto.Equal(stored, m.foldMAC(base, gran, ctr)) {
		return fmt.Errorf("%w: unit %#x (%v)", ErrMAC, base, gran)
	}
	return nil
}

// stage verifies the units of chunk an operation will rewrite — each
// unit's counter chain (freshness), then its MAC (content) under encoding
// sp — and decrypts their stored blocks into the staging buffer, recording
// each unit's counter. It mutates nothing, so an operation that fails here
// leaves the image exactly as it was.
//
// Sibling units share their ancestors, so a unit's chain stops at the
// first line this call already verified: that line's ancestors were
// verified along with it. Only the last line per level is remembered,
// which for units in address order (as StreamPart.Units yields them) is
// every line once; any other order can only verify more. Nothing verified
// outlives the call, so tamper placed between operations is still caught.
func (m *Memory) stage(chunk uint64, sp meta.StreamPart, units ...meta.Unit) error {
	chunkBase := chunk * meta.ChunkSize
	for i := range m.stg.lines {
		m.stg.lines[i] = noLine
	}
	for _, u := range units {
		base := chunkBase + uint64(u.Block)*meta.BlockSize
		for level := u.Gran.Level(); level < m.geom.Levels(); level++ {
			line := m.geom.CounterEntryIndex(level, meta.BlockIndex(base)) / meta.Arity
			if m.stg.lines[level] == line {
				break
			}
			if err := m.verifyLine(level, line); err != nil {
				return err
			}
			m.stg.lines[level] = line
		}
		ctr := m.unitCounter(base, u.Gran)
		if err := m.verifyUnit(base, u.Gran, sp, ctr); err != nil {
			return err
		}
		m.stg.ctr[u.Block] = ctr
		for b := u.Block; b < u.Block+u.Blocks(); b++ {
			if m.stg.has[b] {
				a := chunkBase + uint64(b)*meta.BlockSize
				m.eng.Open(m.stg.plain[b][:], a, ctr, m.stg.ct[b][:])
			}
		}
	}
	return nil
}

// seal encrypts the staged plaintext of the unit at base under counter
// ctr, stores the ciphertext and stores the unit's MAC in its slot under
// the current encoding. It never reads stored ciphertext: a block with
// nothing staged keeps the zero-ciphertext MAC and is not materialized.
func (m *Memory) seal(base uint64, gran meta.Gran, ctr uint64) {
	first := meta.BlockInChunk(base)
	for i := 0; i < gran.Blocks(); i++ {
		b := first + i
		if !m.stg.has[b] {
			m.stg.ct[b] = [meta.BlockSize]byte{}
			continue
		}
		a := base + uint64(i)*meta.BlockSize
		m.eng.Seal(m.stg.ct[b][:], a, ctr, m.stg.plain[b][:])
		m.data.set(meta.BlockIndex(a), m.stg.ct[b])
	}
	m.macs.set(m.macSlot(base, m.table[meta.ChunkIndex(base)]), m.foldMAC(base, gran, ctr))
}

// --- public data path -----------------------------------------------------

// Write stores one 64B plaintext block at the block-aligned address addr.
// For blocks inside a coarse-grained unit the whole unit is re-encrypted
// under a fresh shared counter (the bulk-write behaviour coarse units are
// chosen for); never-written members are materialized as zeros.
func (m *Memory) Write(addr uint64, plaintext []byte) error {
	m.checkAddr(addr)
	if addr%meta.BlockSize != 0 || len(plaintext) != meta.BlockSize {
		panic("secmem: Write requires one aligned 64B block")
	}
	m.Stats.Writes++
	chunk := meta.ChunkIndex(addr)
	sp := m.table[chunk]
	u := sp.UnitOf(meta.BlockInChunk(addr))
	// Verify before read-modify-write of sibling blocks: resealing
	// unverified data would turn a write into a tamper-laundering primitive.
	if err := m.stage(chunk, sp, u); err != nil {
		return err
	}
	m.stg.zeroFill(u)
	copy(m.stg.plain[meta.BlockInChunk(addr)][:], plaintext)

	base := meta.ChunkBase(addr) + uint64(u.Block)*meta.BlockSize
	level := u.Gran.Level()
	ctr := m.stg.ctr[u.Block] + 1
	m.writeCounter(level, m.geom.CounterEntryIndex(level, meta.BlockIndex(base)), ctr)
	m.seal(base, u.Gran, ctr)
	return nil
}

// Read fetches and verifies one 64B block. For coarse units the whole unit
// is authenticated (the nested MAC covers all member blocks). Never-written
// units read as zeros.
func (m *Memory) Read(addr uint64) ([]byte, error) {
	m.checkAddr(addr)
	if addr%meta.BlockSize != 0 {
		panic("secmem: Read requires a 64B-aligned address")
	}
	m.Stats.Reads++
	base, gran := m.unitOf(addr)

	// Both verifications take their inputs inline, so a mutant that drops
	// either one still builds and must be caught by the suite.
	if err := m.verifyChain(gran.Level(), meta.BlockIndex(base)); err != nil {
		return nil, err
	}
	ctr := m.unitCounter(base, gran)
	if err := m.verifyUnit(base, gran, m.table[meta.ChunkIndex(base)], ctr); err != nil {
		return nil, err
	}
	out := make([]byte, meta.BlockSize)
	// A verified unit with no stored ciphertext for this block (pristine,
	// or a zero-ciphertext member the MAC covers) reads as zero.
	if b := meta.BlockInChunk(addr); m.stg.has[b] {
		m.eng.Open(out, addr, ctr, m.stg.ct[b][:])
	}
	return out, nil
}
