package tracker

import (
	"testing"

	"unimem/internal/meta"
	"unimem/internal/sim"
)

// FuzzTrackerEviction fuzzes the Algorithm 1 eviction path with a random
// access schedule and checks the detection invariants on every eviction
// cause: detected stream partitions are always a subset of the touched
// partitions, a full-chunk eviction detects the whole chunk as streaming,
// no chunk is ever held by two valid entries (a lookup that misses a live
// entry breaks this), and Flush drains the tracker completely.
func FuzzTrackerEviction(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 15, 1, 0, 64, 15, 1, 1, 0, 0, 200, 2, 7, 3, 9})
	f.Add(uint8(1), []byte{5, 255, 0, 0, 5, 0, 7, 255})
	f.Add(uint8(12), []byte{})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1}) // two entries; re-touch the chunk in the last one
	f.Fuzz(func(t *testing.T, entriesRaw uint8, ops []byte) {
		entries := int(entriesRaw)%8 + 1
		tr := New(Config{Entries: entries, LifetimePs: 1 << 21})
		verify := func(dets []Detection, when string) {
			for _, d := range dets {
				if d.Stream&^d.Touched != 0 {
					t.Fatalf("%s: stream %#x not a subset of touched %#x (cause %v)",
						when, uint64(d.Stream), uint64(d.Touched), d.Cause)
				}
				if d.Touched == 0 {
					t.Fatalf("%s: eviction of an entry with no touched partition (cause %v)", when, d.Cause)
				}
				if d.Cause == EvictFull && d.Stream != meta.AllStream {
					t.Fatalf("%s: full eviction detected %#x, want whole chunk streaming", when, uint64(d.Stream))
				}
			}
			if c, ok := sharedChunk(tr); ok {
				t.Fatalf("%s: chunk %d held by two valid entries", when, c)
			}
		}
		var now sim.Time
		for i := 0; i+4 <= len(ops); i += 4 {
			chunk := uint64(ops[i]) % 16
			block := uint64(ops[i+1]) % meta.BlocksPerChunk
			size := (int(ops[i+2])%16 + 1) * meta.BlockSize
			now += sim.Time(ops[i+3]) << 11
			addr := chunk*meta.ChunkSize + block*meta.BlockSize
			verify(tr.AccessRange(addr, size, now), "access")
		}
		verify(tr.Flush(), "flush")
		if occupancy(tr) != 0 {
			t.Fatalf("flush left %d entries live", occupancy(tr))
		}
	})
}

// sharedChunk returns a chunk that two valid entries hold, if any.
func sharedChunk(t *Tracker) (uint64, bool) {
	held := map[uint64]bool{}
	for _, e := range t.entries {
		if !e.valid {
			continue
		}
		if held[e.chunk] {
			return e.chunk, true
		}
		held[e.chunk] = true
	}
	return 0, false
}

// occupancy is the number of valid entries.
func occupancy(t *Tracker) int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}
