package meta

import "fmt"

// Geometry lays out the protected data region and its security metadata:
// the compacted MAC region (Eq. 1), the 8-ary counter tree levels
// (Eq. 2-4), and the granularity table (section 4.4). Addresses are flat
// physical addresses; metadata regions are placed directly above the data
// region, mirroring the carved-out protected memory of real MEEs.
type Geometry struct {
	// RegionBytes is the protected data region size.
	RegionBytes uint64
	// MACBase is the base address of the MAC region (one 8B slot per 64B
	// data block, indexed per chunk with compaction inside each chunk).
	MACBase uint64
	// CounterBase is the base address of the counter-tree region.
	CounterBase uint64
	// GTBase is the base address of the granularity table (16B per chunk:
	// 8B current + 8B next stream_part, section 4.4).
	GTBase uint64
	// End is the first address above all metadata.
	End uint64

	nBlocks     uint64
	levels      int      // number of tree levels stored in memory
	levelOffset []uint64 // byte offset of each level's line array from CounterBase
	levelLines  []uint64 // number of 64B lines per stored level
	rootEntries int      // counters held on chip above the last stored level
}

// GTEntrySize is the granularity-table entry size: 8B current + 8B next.
const GTEntrySize = 16

// NewGeometry lays out metadata for a protected region of regionBytes,
// which must be a positive multiple of ChunkSize.
func NewGeometry(regionBytes uint64) *Geometry {
	if regionBytes == 0 || regionBytes%ChunkSize != 0 {
		panic(fmt.Sprintf("meta: region %d not a positive multiple of %d", regionBytes, ChunkSize))
	}
	g := &Geometry{RegionBytes: regionBytes, nBlocks: regionBytes / BlockSize}
	g.MACBase = regionBytes
	macBytes := g.nBlocks * MACSize
	g.CounterBase = g.MACBase + macBytes

	// Stored levels: level l holds one counter per 64B*8^l region, eight
	// counters per 64B line. Stop storing once a level fits in the on-chip
	// root registers (<= Arity entries).
	entries := g.nBlocks
	var off uint64
	for entries > Arity {
		lines := (entries + Arity - 1) / Arity
		g.levelOffset = append(g.levelOffset, off)
		g.levelLines = append(g.levelLines, lines)
		off += lines * BlockSize
		g.levels++
		entries = lines // one parent counter per child line
	}
	g.rootEntries = int(entries)
	g.GTBase = g.CounterBase + off
	gtBytes := (regionBytes / ChunkSize) * GTEntrySize
	g.End = g.GTBase + gtBytes
	return g
}

// Levels returns the number of tree levels stored in memory. A fine-grained
// (64B) access walks levels 0..Levels()-1 before reaching the on-chip root.
func (g *Geometry) Levels() int { return g.levels }

// RootEntries returns the number of on-chip root counters.
func (g *Geometry) RootEntries() int { return g.rootEntries }

// Blocks returns the number of protected 64B blocks.
func (g *Geometry) Blocks() uint64 { return g.nBlocks }

// Chunks returns the number of 32KB chunks in the region.
func (g *Geometry) Chunks() uint64 { return g.RegionBytes / ChunkSize }

// MetadataBytes returns the total metadata footprint (MACs + tree + table).
func (g *Geometry) MetadataBytes() uint64 { return g.End - g.MACBase }

// CounterEntries returns the number of counter entries at a stored level.
func (g *Geometry) CounterEntries(level int) uint64 {
	g.checkLevel(level)
	return (g.nBlocks + (1 << (3 * uint(level))) - 1) >> (3 * uint(level))
}

func (g *Geometry) checkLevel(level int) {
	if level < 0 || level >= g.levels {
		panic(fmt.Sprintf("meta: level %d outside stored levels [0,%d)", level, g.levels))
	}
}

// CounterEntryIndex returns the index of the counter entry covering
// blockIdx at the given level (Eq. 3: the level-th ancestor of the leaf
// index).
func (g *Geometry) CounterEntryIndex(level int, blockIdx uint64) uint64 {
	return blockIdx >> (3 * uint(level))
}

// CounterLineAddr returns the address of the 64B counter line holding the
// level-th counter for blockIdx (Eq. 4: base + floor(idx/arity)*64B).
func (g *Geometry) CounterLineAddr(level int, blockIdx uint64) uint64 {
	g.checkLevel(level)
	entry := g.CounterEntryIndex(level, blockIdx)
	return g.CounterBase + g.levelOffset[level] + (entry/Arity)*BlockSize
}

// CounterSlot returns the slot (0..7) of blockIdx's counter within its
// level-th line.
func (g *Geometry) CounterSlot(level int, blockIdx uint64) int {
	return int(g.CounterEntryIndex(level, blockIdx) % Arity)
}

// RootSlot returns the on-chip root register index guarding blockIdx's
// top-most stored line. It is always below RootEntries() because each
// level-l entry index is the level-(l-1) index divided by Arity.
func (g *Geometry) RootSlot(blockIdx uint64) int {
	return int(blockIdx >> (3 * uint(g.levels)))
}

// MACLineAddr returns the address of the 64B MAC cacheline holding the
// given compacted slot of chunk chunkIdx (Eq. 1 with the per-chunk
// fine-grained reservation of section 4.3).
func (g *Geometry) MACLineAddr(chunkIdx uint64, slot int) uint64 {
	if slot < 0 || slot >= BlocksPerChunk {
		panic(fmt.Sprintf("meta: MAC slot %d out of range", slot))
	}
	return g.MACBase + chunkIdx*BlocksPerChunk*MACSize + uint64(slot/MACsPerLine)*BlockSize
}

// MACAddr returns the byte address of a compacted MAC slot.
func (g *Geometry) MACAddr(chunkIdx uint64, slot int) uint64 {
	return g.MACLineAddr(chunkIdx, slot) + uint64(slot%MACsPerLine)*MACSize
}

// MACAddrFor resolves the MAC address and stored-MAC granularity for a data
// address under a chunk encoding.
func (g *Geometry) MACAddrFor(addr uint64, sp StreamPart) (uint64, Gran) {
	b := BlockInChunk(addr)
	slot, gran := sp.MACSlot(b)
	return g.MACAddr(ChunkIndex(addr), slot), gran
}

// GTEntryAddr returns the address of the chunk's granularity-table entry.
func (g *Geometry) GTEntryAddr(chunkIdx uint64) uint64 {
	return g.GTBase + chunkIdx*GTEntrySize
}

// WalkLen returns the number of stored tree levels a verification walk
// touches when it starts at the counter level of gran: Levels()-gran.Level()
// (the multi-granular tree prunes gran.Level() levels, Fig. 10).
func (g *Geometry) WalkLen(gran Gran) int {
	n := g.levels - gran.Level()
	if n < 0 {
		return 0
	}
	return n
}
