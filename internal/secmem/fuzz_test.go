package secmem

import (
	"testing"

	"unimem/internal/meta"
)

// FuzzAttackCheck interleaves legitimate operations with off-chip attack
// primitives and checks the detection contract of the functional layer:
// verification errors occur iff the off-chip state diverged from a clean
// shadow twin driven by the same legitimate schedule. Neither direction may
// fail — an error on non-diverged state is a false positive, a clean sweep
// over diverged state is a missed attack. A legitimate operation that fails
// on the victim must also leave its Snapshot exactly as it was before the
// operation: a detection never damages state beyond what the attacker
// touched.
//
// The one deliberate exclusion is granularity-table corruption that only
// re-encodes pristine partitions: unwritten state carries no MACs, so
// changing how it would be laid out is semantically void and provably
// unobservable. The fuzz therefore corrupts the encoding of a partition
// holding a written block (the campaign harness enforces the same
// restriction via its warmup write to the attacked partition).
func FuzzAttackCheck(f *testing.F) {
	f.Add([]byte{0, 0, 1, 8, 0, 0, 4, 0, 0})          // write, tamper data, read
	f.Add([]byte{0, 7, 2, 6, 0, 3, 10, 7, 0})         // write, promote, tamper counter
	f.Add([]byte{0, 1, 5, 12, 1, 9, 0, 1, 6})         // write, table-corrupt, rewrite
	f.Add([]byte{0, 9, 1, 11, 9, 64, 4, 9, 0})        // write, splice, read
	f.Add([]byte{0, 2, 8, 9, 2, 0, 6, 0, 9, 4, 2, 0}) // write, tamper mac, promote, read
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := New(2*meta.ChunkSize, 11)
		twin := New(2*meta.ChunkSize, 11)
		written := map[uint64]bool{}
		var detected error
		var detectedAt string

		// legit runs one legitimate operation on the twin first: the twin is
		// clean by construction, so a twin error means the operation itself
		// is invalid (skip it), while a victim-only error is a detection. A
		// failed operation must leave the victim's image as it found it.
		legit := func(name string, op func(m *Memory) error) bool {
			if op(twin) != nil {
				return false
			}
			before := v.Snapshot()
			if err := op(v); err != nil {
				detected, detectedAt = err, name
				if !v.Snapshot().Equal(before) {
					t.Fatalf("failed %s changed the protected image: %v", name, err)
				}
				return false
			}
			return true
		}

		for i := 0; i+2 < len(raw) && detected == nil; i += 3 {
			kind, sel, val := raw[i]%13, raw[i+1], raw[i+2]
			addr := uint64(sel) % (2 * meta.BlocksPerChunk) * meta.BlockSize
			chunk := meta.ChunkIndex(addr)
			switch {
			case kind < 4: // write
				b := block(val)
				if legit("write", func(m *Memory) error { return m.Write(addr, b) }) {
					written[addr] = true
				}
			case kind < 6: // read
				legit("read", func(m *Memory) error { _, err := m.Read(addr); return err })
			case kind == 6: // promote
				legit("promote", func(m *Memory) error { return m.Promote(chunk, int(val)%60, int(val)%8+1) })
			case kind == 7: // demote
				legit("demote", func(m *Memory) error { return m.Demote(chunk, int(val)%60, int(val)%8+1) })
			case kind == 8:
				v.TamperData(addr)
			case kind == 9:
				v.TamperMAC(addr)
			case kind == 10:
				v.TamperCounter(addr)
			case kind == 11:
				partner := uint64(val) % (2 * meta.BlocksPerChunk) * meta.BlockSize
				v.SpliceData(addr, partner)
			default: // table corruption of a written partition (see doc)
				if !written[addr] {
					continue
				}
				p := int(meta.BlockIndex(addr)%meta.BlocksPerChunk) / (meta.BlocksPerChunk / meta.PartsPerChunk)
				cur := v.Encoding(chunk)
				sp := cur.PromoteMask(p, 1)
				if cur.IsStream(p) {
					sp = cur.DemoteMask(p, 1)
				}
				v.TamperTable(chunk, sp)
			}
		}

		diverged := !v.Snapshot().Equal(twin.Snapshot())
		if detected != nil {
			if !diverged {
				t.Fatalf("false positive: %s error on non-diverged state: %v", detectedAt, detected)
			}
			return
		}

		// No mid-stream detection: sweep one Check per protection unit and
		// require error iff the off-chip images differ.
		var sweepErr error
	sweep:
		for chunk := uint64(0); chunk < 2; chunk++ {
			sp := v.Encoding(chunk)
			for b := 0; b < meta.BlocksPerChunk; {
				u := sp.UnitOf(b)
				addr := chunk*meta.ChunkSize + uint64(u.Block)*meta.BlockSize
				if err := v.Check(addr); err != nil {
					sweepErr = err
					break sweep
				}
				b = u.Block + u.Blocks()
			}
		}
		if diverged && sweepErr == nil {
			t.Fatal("missed attack: off-chip state diverged from the clean twin but the sweep verified clean")
		}
		if !diverged && sweepErr != nil {
			t.Fatalf("false positive: sweep error on non-diverged state: %v", sweepErr)
		}
	})
}
