package secmem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"unimem/internal/meta"
)

// op is one step of a random protection-layer workload, decoded from a
// byte triple: an action, an address selector, and a payload.
type op struct {
	kind byte // 0-3 write, 4-5 read, 6 promote, 7 demote
	sel  byte
	val  byte
}

// interpSmall drives a two-chunk memory with a shadow map and reports
// whether every read matched the shadow.
func interpSmall(t *testing.T, ops []op) bool {
	t.Helper()
	m := New(2*meta.ChunkSize, 7)
	shadow := map[uint64][]byte{}
	for _, o := range ops {
		addr := uint64(o.sel) % (2 * meta.BlocksPerChunk) * meta.BlockSize
		switch {
		case o.kind < 4:
			b := block(o.val)
			if err := m.Write(addr, b); err != nil {
				t.Logf("write error: %v", err)
				return false
			}
			shadow[addr] = b
		case o.kind < 6:
			got, err := m.Read(addr)
			if err != nil {
				t.Logf("read error: %v", err)
				return false
			}
			want, ok := shadow[addr]
			if !ok {
				want = make([]byte, meta.BlockSize)
			}
			if !bytes.Equal(got, want) {
				t.Logf("mismatch at %#x", addr)
				return false
			}
		case o.kind == 6:
			chunk := uint64(o.sel) % 2
			if err := m.Promote(chunk, int(o.val)%60, int(o.val)%8+1); err != nil {
				t.Logf("promote error: %v", err)
				return false
			}
		default:
			chunk := uint64(o.sel) % 2
			if err := m.Demote(chunk, int(o.val)%60, int(o.val)%8+1); err != nil {
				t.Logf("demote error: %v", err)
				return false
			}
		}
	}
	// Final sweep: everything written must still verify and match.
	for addr, want := range shadow {
		got, err := m.Read(addr)
		if err != nil || !bytes.Equal(got, want) {
			t.Logf("final sweep failed at %#x: %v", addr, err)
			return false
		}
	}
	return true
}

// Property: under any interleaving of writes, reads, promotions and
// demotions, the protected memory behaves exactly like a plain map.
func TestRandomOpsLinearizeProperty(t *testing.T) {
	f := func(raw []byte) bool {
		var ops []op
		for i := 0; i+2 < len(raw); i += 3 {
			ops = append(ops, op{kind: raw[i] % 8, sel: raw[i+1], val: raw[i+2]})
		}
		if len(ops) > 60 {
			ops = ops[:60]
		}
		return interpSmall(t, ops)
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Fatal(err)
	}
}

// Property: after any workload, flipping one ciphertext bit of any written
// block is always detected by a read of that block.
func TestTamperAlwaysDetectedProperty(t *testing.T) {
	f := func(seed uint8, writes []uint8) bool {
		m := New(2*meta.ChunkSize, uint64(seed))
		addrs := map[uint64]bool{}
		for i, w := range writes {
			addr := uint64(w) % (2 * meta.BlocksPerChunk) * meta.BlockSize
			if err := m.Write(addr, block(byte(i))); err != nil {
				return false
			}
			addrs[addr] = true
		}
		if len(addrs) == 0 {
			return true
		}
		// Promote part of chunk 0 so both fine and coarse paths are hit.
		if err := m.Promote(0, 0, int(seed)%32+1); err != nil {
			return false
		}
		for addr := range addrs {
			snap := m.Snapshot()
			m.TamperData(addr)
			if _, err := m.Read(addr); err == nil {
				return false
			}
			m.Replay(snap) // restore for next probe
		}
		return true
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Fatal(err)
	}
}

// Property: a snapshot taken strictly before the last write never verifies
// after being replayed (freshness).
func TestReplayAlwaysDetectedProperty(t *testing.T) {
	f := func(sel uint8, n uint8) bool {
		m := New(meta.ChunkSize, 3)
		addr := uint64(sel) % meta.BlocksPerChunk * meta.BlockSize
		if err := m.Write(addr, block(1)); err != nil {
			return false
		}
		snap := m.Snapshot()
		for i := 0; i <= int(n%3); i++ {
			if err := m.Write(addr, block(2+byte(i))); err != nil {
				return false
			}
		}
		m.Replay(snap)
		_, err := m.Read(addr)
		return err != nil
	}
	if err := quick.Check(f, quickCfg(50)); err != nil {
		t.Fatal(err)
	}
}

// Property: presence is state. Random histories on a two-chunk image run
// every operation that changes what the image holds: writes, reads,
// switches, promotions and demotions, the five tamper primitives, replays
// and counter rollbacks of earlier snapshots, and Save→Load reloads. They
// also demote never-written partitions the table was tampered to promote,
// which stores zero counters: present, not absent. After every step an
// image that loads saves back byte for byte, two snapshots are Equal
// exactly when their saved images are, and such a demotion's zero
// counters are in the saved counter section.
func TestPresenceProperty(t *testing.T) {
	zeroDemotions := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(2*meta.ChunkSize, 5)
		type saved struct {
			snap *Snapshot
			img  []byte
		}
		var hist []saved // the last few steps
		for step := 0; step < 60; step++ {
			addr := uint64(rng.Intn(2*meta.BlocksPerChunk)) * meta.BlockSize
			chunk := meta.ChunkIndex(addr)
			var zeros []uint64 // level-0 entries the step stored as zero
			switch rng.Intn(16) {
			case 0, 1, 2:
				_ = m.Write(addr, block(byte(step)))
			case 3:
				_, _ = m.Read(addr)
			case 4:
				_ = m.ApplyDetection(chunk, m.Encoding(chunk)^1<<rng.Intn(meta.PartsPerChunk))
			case 5:
				_ = m.Promote(chunk, rng.Intn(60), rng.Intn(8)+1)
			case 6:
				_ = m.Demote(chunk, rng.Intn(60), rng.Intn(8)+1)
			case 7:
				m.TamperData(addr)
			case 8:
				m.TamperMAC(addr)
			case 9:
				m.TamperCounter(addr)
			case 10:
				m.SpliceData(addr, uint64(rng.Intn(2*meta.BlocksPerChunk))*meta.BlockSize)
			case 11:
				m.TamperTable(chunk, m.Encoding(chunk)^1<<rng.Intn(meta.PartsPerChunk))
			case 12, 13:
				zeros = demoteNeverWritten(m, chunk, rng.Intn(meta.PartsPerChunk))
				if zeros != nil {
					zeroDemotions++
				}
			case 14:
				if len(hist) > 0 {
					if s := hist[rng.Intn(len(hist))].snap; rng.Intn(2) == 0 {
						m.Replay(s)
					} else {
						m.RollbackCounters(s)
					}
				}
			default:
				img, roots := saveImage(t, m)
				if l, err := Load(bytes.NewReader(img), 2*meta.ChunkSize, 5, roots); err == nil {
					m = l
				}
			}

			img, roots := saveImage(t, m)
			if l, err := Load(bytes.NewReader(img), 2*meta.ChunkSize, 5, roots); err == nil {
				if again, _ := saveImage(t, l); !bytes.Equal(again, img) {
					t.Logf("seed %d step %d: the loaded image saves differently", seed, step)
					return false
				}
			}
			cur := m.Snapshot()
			for _, h := range hist {
				if cur.Equal(h.snap) != bytes.Equal(img, h.img) {
					t.Logf("seed %d step %d: Snapshot.Equal disagrees with the saved images", seed, step)
					return false
				}
			}
			for _, e := range zeros {
				if !savedCounter(img, 0, e, 0) {
					t.Logf("seed %d step %d: demotion's zero counter %d missing from the image", seed, step, e)
					return false
				}
			}
			if hist = append(hist, saved{cur, img}); len(hist) > 8 {
				hist = hist[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(20)); err != nil {
		t.Fatal(err)
	}
	if zeroDemotions == 0 {
		t.Fatal("no history demoted a never-written promoted partition")
	}
}

// demoteNeverWritten tampers the table to promote partition p of chunk to
// one 512B unit when it is fine and holds no stored block, then demotes it.
// The unit's counter is zero, so the demotion stores each member block's
// counter as zero. It returns their level-0 entries, or nil when the
// partition does not qualify or the demotion fails.
func demoteNeverWritten(m *Memory, chunk uint64, p int) []uint64 {
	sp := m.Encoding(chunk)
	first := chunk*meta.BlocksPerChunk + uint64(p*meta.BlocksPerPartition)
	if sp.GranOf(p) != meta.Gran64 || sp.PromoteMask(p, 1).GranOf(p) != meta.Gran512 {
		return nil
	}
	var entries []uint64
	for b := first; b < first+meta.BlocksPerPartition; b++ {
		if _, ok := m.data.get(b); ok {
			return nil
		}
		entries = append(entries, b)
	}
	m.TamperTable(chunk, sp.PromoteMask(p, 1))
	if m.unitCounter(first*meta.BlockSize, meta.Gran512) != 0 || m.Demote(chunk, p, 1) != nil {
		m.TamperTable(chunk, sp)
		return nil
	}
	return entries
}

// saveImage saves m and returns the image and the roots.
func saveImage(t *testing.T, m *Memory) ([]byte, []uint64) {
	t.Helper()
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), roots
}

// savedCounter reports whether img's counter section holds the entry
// (level, entry) with value val.
func savedCounter(img []byte, level, entry, val uint64) bool {
	at := sectionAt(img, secCounters)
	n := binary.LittleEndian.Uint64(img[at:])
	for i := uint64(0); i < n; i++ {
		e := img[at+8+int(i)*sectionEntry[secCounters]:]
		if binary.LittleEndian.Uint64(e) == level && binary.LittleEndian.Uint64(e[8:]) == entry && binary.LittleEndian.Uint64(e[16:]) == val {
			return true
		}
	}
	return false
}
