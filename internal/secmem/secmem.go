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

type counterKey struct {
	level int
	entry uint64
}

// Memory is one protected memory image.
type Memory struct {
	geom  *meta.Geometry
	eng   *crypto.Engine
	table *meta.Table

	data     map[uint64][meta.BlockSize]byte // ciphertext by block address
	counters map[counterKey]uint64
	macs     map[uint64]crypto.MAC // data MACs by MAC slot address
	nodeMACs map[uint64]crypto.MAC // tree-node MACs by counter-line address
	roots    []uint64              // on-chip root counters (not attacker visible)

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
// granularity.
func New(regionBytes uint64, seed uint64) *Memory {
	g := meta.NewGeometry(regionBytes)
	return &Memory{
		geom:     g,
		eng:      crypto.NewEngine(seed),
		table:    meta.NewTable(),
		data:     map[uint64][meta.BlockSize]byte{},
		counters: map[counterKey]uint64{},
		macs:     map[uint64]crypto.MAC{},
		nodeMACs: map[uint64]crypto.MAC{},
		roots:    make([]uint64, g.RootEntries()),
		stg:      new(staging),
	}
}

// Geometry exposes the metadata layout.
func (m *Memory) Geometry() *meta.Geometry { return m.geom }

// Table exposes the granularity table (read-mostly; use ApplyDetection to
// change granularity).
func (m *Memory) Table() *meta.Table { return m.table }

// GranOf returns the current protection granularity covering addr.
func (m *Memory) GranOf(addr uint64) meta.Gran {
	m.checkAddr(addr)
	return m.table.Current(meta.ChunkIndex(addr)).GranOfBlock(meta.BlockInChunk(addr)) //mutate:ignore drop-window no secmem call leaves a switch pending (every table write commits at once), so Next equals Current here
}

func (m *Memory) checkAddr(addr uint64) {
	if addr >= m.geom.RegionBytes {
		panic(fmt.Sprintf("secmem: address %#x outside protected region", addr))
	}
}

// --- counter access -------------------------------------------------------

func (m *Memory) readCounter(level int, entry uint64) uint64 {
	if level >= m.geom.Levels() {
		return m.roots[entry]
	}
	return m.counters[counterKey{level, entry}]
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
	m.counters[counterKey{level, entry}] = val
	line := entry / meta.Arity
	parentVal := m.readCounter(level+1, line) + 1
	m.writeCounter(level+1, line, parentVal)
	m.sealLine(level, line, parentVal)
}

func (m *Memory) lineEntries(level int, line uint64) []uint64 {
	out := make([]uint64, meta.Arity)
	for i := range out {
		out[i] = m.readCounter(level, line*meta.Arity+uint64(i))
	}
	return out
}

func (m *Memory) lineAddr(level int, line uint64) uint64 {
	// CounterLineAddr expects a block index; the first block the line
	// covers is line*Arity^(level+1) ... reconstruct via entry index.
	blockIdx := line * meta.Arity << (3 * uint(level))
	return m.geom.CounterLineAddr(level, blockIdx)
}

func (m *Memory) sealLine(level int, line uint64, parentVal uint64) {
	addr := m.lineAddr(level, line)
	m.nodeMACs[addr] = m.eng.NodeMAC(addr, parentVal, m.lineEntries(level, line))
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
	addr := m.lineAddr(level, line)
	stored, ok := m.nodeMACs[addr]
	if !ok {
		// Never-written line: valid only in its pristine state.
		if parentVal == 0 && m.lineZero(level, line) {
			return nil
		}
		return fmt.Errorf("%w: missing node MAC at level %d", ErrTree, level)
	}
	m.Stats.Verified++
	want := m.eng.NodeMAC(addr, parentVal, m.lineEntries(level, line))
	if !crypto.Equal(stored, want) {
		return fmt.Errorf("%w: level %d line %#x", ErrTree, level, addr)
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
	sp := m.table.Current(meta.ChunkIndex(addr))
	u := sp.UnitOf(meta.BlockInChunk(addr))
	return meta.ChunkBase(addr) + uint64(u.Block)*meta.BlockSize, u.Gran
}

// unitCounter returns the version counter of the unit (at the promoted
// tree level for coarse units, paper Fig. 10).
func (m *Memory) unitCounter(base uint64, gran meta.Gran) uint64 {
	return m.readCounter(gran.Level(), m.geom.CounterEntryIndex(gran.Level(), meta.BlockIndex(base)))
}

// unitMACAddr returns the MAC slot address for a unit.
func (m *Memory) unitMACAddr(base uint64, sp meta.StreamPart) uint64 {
	a, _ := m.geom.MACAddrFor(base, sp)
	return a
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
}

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
	first := meta.BlockInChunk(base)
	touched := false
	for i := 0; i < gran.Blocks(); i++ {
		ct, ok := m.data[base+uint64(i)*meta.BlockSize]
		m.stg.ct[first+i], m.stg.has[first+i] = ct, ok
		touched = touched || ok
	}
	stored, ok := m.macs[m.unitMACAddr(base, sp)]
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
func (m *Memory) stage(chunk uint64, sp meta.StreamPart, units ...meta.Unit) error {
	chunkBase := chunk * meta.ChunkSize
	for _, u := range units {
		base := chunkBase + uint64(u.Block)*meta.BlockSize
		if err := m.verifyChain(u.Gran.Level(), meta.BlockIndex(base)); err != nil {
			return err
		}
		ctr := m.unitCounter(base, u.Gran)
		if err := m.verifyUnit(base, u.Gran, sp, ctr); err != nil {
			return err
		}
		m.stg.ctr[u.Block] = ctr
		for b := u.Block; b < u.Block+u.Blocks(); b++ {
			if m.stg.has[b] {
				a := chunkBase + uint64(b)*meta.BlockSize
				copy(m.stg.plain[b][:], m.eng.Open(a, ctr, m.stg.ct[b][:]))
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
		copy(m.stg.ct[b][:], m.eng.Seal(a, ctr, m.stg.plain[b][:]))
		m.data[a] = m.stg.ct[b]
	}
	sp := m.table.Current(meta.ChunkIndex(base))
	m.macs[m.unitMACAddr(base, sp)] = m.foldMAC(base, gran, ctr)
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
	sp := m.table.Current(chunk)
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
	if err := m.verifyUnit(base, gran, m.table.Current(meta.ChunkIndex(base)), ctr); err != nil {
		return nil, err
	}
	b := meta.BlockInChunk(addr)
	if !m.stg.has[b] {
		// Verified unit with no stored ciphertext for this block: pristine
		// (or a zero-ciphertext member the MAC covers) reads as zero.
		return make([]byte, meta.BlockSize), nil
	}
	return m.eng.Open(addr, ctr, m.stg.ct[b][:]), nil
}
