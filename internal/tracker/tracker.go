// Package tracker implements the dynamic granularity-detection hardware of
// paper section 4.4: the access tracker (Fig. 12) records one-hot access
// bits per 32KB chunk in a small number of entries, and the granularity
// detection algorithm (Algorithm 1) converts an evicted entry into the
// stream-partition bitmap stored in the granularity table.
package tracker

import (
	"math/bits"

	"unimem/internal/meta"
	"unimem/internal/sim"
)

// Words is the number of 64-bit words in one entry's access-bit vector
// (512 bits, one per 64B cacheline in a 32KB chunk).
const Words = meta.BlocksPerChunk / 64

// Config describes the tracker hardware.
type Config struct {
	// Entries is the number of tracker entries. The paper uses
	// 3 x (number of processing units) = 12.
	Entries int
	// LifetimePs is the entry lifetime. The paper uses 16K cycles; at the
	// 1 GHz accelerator clock that is 16,384,000 ps.
	LifetimePs sim.Time
}

// DefaultConfig returns the paper's configuration for a 4-device SoC.
func DefaultConfig() Config {
	return Config{Entries: 12, LifetimePs: 16384 * sim.PsPerGPUCycle}
}

// EvictCause says why an entry left the tracker.
type EvictCause uint8

// Eviction causes (section 4.4): the chunk's access count reached 512, the
// entry's lifetime expired, or capacity pressure chose the LRU victim.
const (
	EvictFull EvictCause = iota
	EvictLifetime
	EvictLRU
	EvictFlush
)

// String names the cause.
func (c EvictCause) String() string {
	switch c {
	case EvictFull:
		return "full"
	case EvictLifetime:
		return "lifetime"
	case EvictLRU:
		return "lru"
	case EvictFlush:
		return "flush"
	}
	return "unknown"
}

// Detection is the output of Algorithm 1 for one evicted entry.
type Detection struct {
	// Chunk is the 32KB chunk index.
	Chunk uint64
	// Stream is the detected stream-partition bitmap.
	Stream meta.StreamPart
	// Touched marks partitions with at least one access in the window:
	// only they carry evidence. Partitions outside Touched keep their
	// previous classification in the granularity table.
	Touched meta.StreamPart
	// Cause is why the entry was evicted.
	Cause EvictCause
}

type entry struct {
	valid   bool
	chunk   uint64
	bits    [Words]uint64
	count   int
	born    sim.Time
	lastUse sim.Time
}

// Stats counts tracker activity.
type Stats struct {
	Accesses   uint64
	Evictions  [4]uint64 // by EvictCause
	Detections uint64
	StreamBits uint64 // total stream partitions detected
}

// Tracker is the access-tracking unit.
//
// The Detection slices returned by AccessRange and Flush are backed
// by tracker-owned scratch and are valid only until the next call on the
// same tracker; callers that keep detections across calls must copy them.
// The engine consumes every detection before touching the tracker again, so
// the steady state allocates nothing.
type Tracker struct {
	cfg       Config
	entries   []entry
	lastSweep sim.Time
	scratch   []Detection // reused output buffer
	// Stats is the running account.
	Stats Stats
}

// New builds a tracker.
func New(cfg Config) *Tracker {
	if cfg.Entries <= 0 {
		cfg.Entries = DefaultConfig().Entries
	}
	if cfg.LifetimePs <= 0 {
		cfg.LifetimePs = DefaultConfig().LifetimePs
	}
	return &Tracker{cfg: cfg, entries: make([]entry, cfg.Entries)}
}

// Detect runs Algorithm 1 over an access-bit vector: each 8-bit partition
// whose bits are all set is a stream partition.
func Detect(bits *[Words]uint64) meta.StreamPart {
	var sp meta.StreamPart
	for p := 0; p < meta.PartsPerChunk; p++ {
		word := p / 8 // 8 partitions (64 bits) per word
		shift := uint(p%8) * 8
		if byte(bits[word]>>shift) == 0xff {
			sp |= 1 << uint(p)
		}
	}
	return sp
}

// sweepExpired retires lifetime-expired entries. Hardware does this with a
// background scan; the model runs it at a fraction of the window period so
// large analyzer instances stay linear.
func (t *Tracker) sweepExpired(now sim.Time, out *[]Detection) {
	if now-t.lastSweep < t.cfg.LifetimePs/8 && t.lastSweep != 0 {
		return
	}
	t.lastSweep = now
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && now-e.born >= t.cfg.LifetimePs {
			*out = append(*out, t.evict(i, EvictLifetime))
		}
	}
}

// lookup finds the chunk's entry, expiring it first if its window ended.
func (t *Tracker) lookup(chunk uint64, now sim.Time, out *[]Detection) int {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.chunk == chunk {
			if now-e.born >= t.cfg.LifetimePs {
				*out = append(*out, t.evict(i, EvictLifetime))
				return -1
			}
			return i
		}
	}
	return -1
}

func (t *Tracker) allocate(out *[]Detection, now sim.Time) int {
	lru, lruAt := -1, sim.MaxTime
	for i := range t.entries {
		if !t.entries[i].valid {
			return i
		}
		if t.entries[i].lastUse < lruAt {
			lru, lruAt = i, t.entries[i].lastUse
		}
	}
	*out = append(*out, t.evict(lru, EvictLRU))
	return lru
}

// TouchedParts returns the partitions with at least one accessed block.
func TouchedParts(bits *[Words]uint64) meta.StreamPart {
	var tp meta.StreamPart
	for p := 0; p < meta.PartsPerChunk; p++ {
		if byte(bits[p/8]>>(uint(p%8)*8)) != 0 {
			tp |= 1 << uint(p)
		}
	}
	return tp
}

func (t *Tracker) evict(i int, cause EvictCause) Detection {
	e := &t.entries[i]
	d := Detection{Chunk: e.chunk, Stream: Detect(&e.bits), Touched: TouchedParts(&e.bits), Cause: cause}
	e.valid = false
	t.Stats.Evictions[cause]++
	t.Stats.Detections++
	t.Stats.StreamBits += uint64(d.Stream.CountStream())
	return d
}

// AccessRange records a touch of [addr, addr+size) at simulation time now,
// which may span chunk boundaries (an NPU DMA tile, a coalesced GPU
// burst), and returns the detections produced by evictions this touch
// caused (lifetime expiries observed now, a full entry, or an LRU capacity
// victim). A touch of at most one block records the block containing addr.
// Bits are set a word at a time, with the same outcome as touching each
// 64B block in turn. The returned slice aliases tracker scratch (see
// Tracker).
func (t *Tracker) AccessRange(addr uint64, size int, now sim.Time) []Detection {
	if size <= meta.BlockSize {
		size = 1
	}
	out := t.scratch[:0]
	end := addr + uint64(size)
	for addr < end {
		chunkEnd := meta.ChunkBase(addr) + meta.ChunkSize
		spanEnd := end
		if spanEnd > chunkEnd {
			spanEnd = chunkEnd
		}
		out = t.accessSpan(addr, spanEnd, now, out)
		addr = spanEnd
	}
	t.scratch = out
	return out
}

// accessSpan handles a touch confined to one chunk. An entry evicts when
// every cacheline of its chunk has been touched (count reaches
// 32KB/64B = 512).
func (t *Tracker) accessSpan(addr, end uint64, now sim.Time, out []Detection) []Detection {
	t.Stats.Accesses++
	t.sweepExpired(now, &out)
	chunk := meta.ChunkIndex(addr)
	idx := t.lookup(chunk, now, &out)
	if idx < 0 {
		idx = t.allocate(&out, now)
		t.entries[idx] = entry{valid: true, chunk: chunk, born: now}
	}
	e := &t.entries[idx]
	e.lastUse = now
	first := meta.BlockInChunk(addr)
	last := meta.BlockInChunk(end - 1)
	for b := first; b <= last; {
		word := b / 64
		lo := uint(b % 64)
		hi := uint(63)
		if last/64 == word {
			hi = uint(last % 64)
		}
		var mask uint64 = ^uint64(0) << lo
		if hi < 63 {
			mask &= (1 << (hi + 1)) - 1
		}
		added := mask &^ e.bits[word]
		e.bits[word] |= mask
		e.count += bits.OnesCount64(added)
		b = (word + 1) * 64
	}
	if e.count >= meta.BlocksPerChunk {
		out = append(out, t.evict(idx, EvictFull))
	}
	return out
}

// Flush evicts all valid entries (used at end of simulation so every
// tracked chunk produces a detection). The returned slice aliases tracker
// scratch (see Tracker).
func (t *Tracker) Flush() []Detection {
	out := t.scratch[:0]
	for i := range t.entries {
		if t.entries[i].valid {
			out = append(out, t.evict(i, EvictFlush))
		}
	}
	t.scratch = out
	return out
}
