package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"unimem/internal/meta"
)

const region = 1 << 20 // 1MB keeps tests fast: 32 chunks

func newMem() *Memory { return New(region, 42) }

func block(fill byte) []byte {
	b := make([]byte, meta.BlockSize)
	for i := range b {
		b[i] = fill ^ byte(i)
	}
	return b
}

func mustWrite(t *testing.T, m *Memory, addr uint64, b []byte) {
	t.Helper()
	if err := m.Write(addr, b); err != nil {
		t.Fatalf("Write(%#x): %v", addr, err)
	}
}

func mustRead(t *testing.T, m *Memory, addr uint64) []byte {
	t.Helper()
	b, err := m.Read(addr)
	if err != nil {
		t.Fatalf("Read(%#x): %v", addr, err)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newMem()
	want := block(0xab)
	mustWrite(t, m, 0x1000, want)
	if got := mustRead(t, m, 0x1000); !bytes.Equal(got, want) {
		t.Fatal("round trip failed")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := newMem()
	got := mustRead(t, m, 0x2000)
	if !bytes.Equal(got, make([]byte, meta.BlockSize)) {
		t.Fatal("fresh memory not zero")
	}
}

func TestOverwrite(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	mustWrite(t, m, 0, block(2))
	if !bytes.Equal(mustRead(t, m, 0), block(2)) {
		t.Fatal("overwrite lost")
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	m := newMem()
	want := block(0x55)
	mustWrite(t, m, 0, want)
	if ct := m.data[0]; bytes.Equal(ct[:], want) {
		t.Fatal("data stored in plaintext")
	}
}

func TestDataTamperDetected(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0x40, block(9))
	m.TamperData(0x40)
	if _, err := m.Read(0x40); !errors.Is(err, ErrMAC) {
		t.Fatalf("tamper err = %v, want ErrMAC", err)
	}
}

func TestMACTamperDetected(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0x40, block(9))
	m.TamperMAC(0x40)
	if _, err := m.Read(0x40); !errors.Is(err, ErrMAC) {
		t.Fatalf("tamper err = %v, want ErrMAC", err)
	}
}

func TestCounterTamperDetected(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0x40, block(9))
	if !m.TamperCounter(0x40) {
		t.Fatal("fine-grained counter should be off chip and tamperable")
	}
	if _, err := m.Read(0x40); !errors.Is(err, ErrTree) {
		t.Fatalf("tamper err = %v, want ErrTree", err)
	}
}

func TestTamperCounterOnChipReportsImpossible(t *testing.T) {
	// A one-chunk region stores two tree levels, so promoting partitions
	// 0-7 to one 4KB unit puts its counter at level 2: the first on-chip
	// root level. The counter is out of the attacker's reach, and the
	// primitive must say so instead of landing a write off chip.
	m := New(meta.ChunkSize, 42)
	mustWrite(t, m, 0, block(1))
	if err := m.ApplyDetection(0, 0xff); err != nil {
		t.Fatal(err)
	}
	if g := m.GranOf(0); g != meta.Gran4K || g.Level() != m.geom.Levels() {
		t.Fatalf("unit %v at level %d, want Gran4K at the root level %d", g, g.Level(), m.geom.Levels())
	}
	before := m.Snapshot()
	if m.TamperCounter(0) {
		t.Fatal("TamperCounter claimed to land on an on-chip counter")
	}
	if !m.Snapshot().Equal(before) {
		t.Fatal("an impossible counter tamper changed off-chip state")
	}
	if err := m.Check(0); err != nil {
		t.Fatalf("no-op tamper must leave memory intact: %v", err)
	}
}

func TestSpliceDetected(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0x000, block(1))
	mustWrite(t, m, 0x400, block(2))
	m.SpliceData(0x000, 0x400)
	if _, err := m.Read(0x000); !errors.Is(err, ErrMAC) {
		t.Fatalf("splice err = %v, want ErrMAC", err)
	}
}

func TestReplayDetected(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0x80, block(1))
	snap := m.Snapshot()
	mustWrite(t, m, 0x80, block(2)) // victim updates the value
	m.Replay(snap)                  // attacker rolls memory back
	_, err := m.Read(0x80)
	if !errors.Is(err, ErrTree) {
		t.Fatalf("replay err = %v, want ErrTree", err)
	}
}

func TestReplayOfSiblingSubtreeDetected(t *testing.T) {
	// Rolling back only part of memory must still trip the shared levels.
	m := newMem()
	mustWrite(t, m, 0x0, block(1))
	mustWrite(t, m, meta.ChunkSize, block(3))
	snap := m.Snapshot()
	mustWrite(t, m, 0x0, block(2))
	m.Replay(snap)
	if _, err := m.Read(0x0); !errors.Is(err, ErrTree) {
		t.Fatalf("err = %v, want ErrTree", err)
	}
}

func TestPromotionRoundTrip(t *testing.T) {
	m := newMem()
	var want [][]byte
	for b := 0; b < meta.BlocksPerPartition; b++ {
		buf := block(byte(b))
		want = append(want, buf)
		mustWrite(t, m, uint64(b*meta.BlockSize), buf)
	}
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if g := m.GranOf(0); g != meta.Gran512 {
		t.Fatalf("gran = %v, want 512B", g)
	}
	for b := 0; b < meta.BlocksPerPartition; b++ {
		if !bytes.Equal(mustRead(t, m, uint64(b*meta.BlockSize)), want[b]) {
			t.Fatalf("block %d lost after promotion", b)
		}
	}
	if m.Stats.Promotions == 0 {
		t.Fatal("promotion not counted")
	}
}

// TestFailedPromotionLeavesImageIntact: a switch that fails verification
// part-way must leave the image as it found it. Tampering partition 1 makes
// Promote(0, 0, 2) fail on block 8, after partition 0's units verified;
// their MAC slots must survive, so partition 0 still reads back.
func TestFailedPromotionLeavesImageIntact(t *testing.T) {
	m := newMem()
	for b := 0; b < 2*meta.BlocksPerPartition; b++ {
		mustWrite(t, m, uint64(b*meta.BlockSize), block(byte(b)))
	}
	m.TamperData(meta.PartitionSize)
	pre := m.Snapshot()
	if err := m.Promote(0, 0, 2); !errors.Is(err, ErrMAC) {
		t.Fatalf("Promote over a tampered partition: err = %v, want ErrMAC", err)
	}
	if !m.Snapshot().Equal(pre) {
		t.Error("failed promotion changed the off-chip image")
	}
	if got := mustRead(t, m, 0); !bytes.Equal(got, block(0)) {
		t.Error("untampered block 0 reads back wrong after the failed promotion")
	}
}

func TestPromotionBumpsCounter(t *testing.T) {
	// Fig. 13(a): parent counter = max(leaf counters)+1.
	m := newMem()
	mustWrite(t, m, 0, block(1))
	mustWrite(t, m, 0, block(2)) // leaf counter now 2
	mustWrite(t, m, 64, block(3))
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	base, gran := m.unitOf(0)
	if got := m.unitCounter(base, gran); got != 3 {
		t.Fatalf("promoted counter = %d, want max(2,1)+1 = 3", got)
	}
}

func TestDemotionKeepsCiphertext(t *testing.T) {
	// Fig. 13(b): scale-down retains the counter value, so existing
	// ciphertext must stay byte-identical (no re-encryption needed).
	m := newMem()
	for b := 0; b < meta.BlocksPerPartition; b++ {
		mustWrite(t, m, uint64(b*meta.BlockSize), block(byte(b)))
	}
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	before := m.data[0x40]
	if err := m.Demote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	after := m.data[0x40]
	if before != after {
		t.Fatal("demotion re-encrypted data")
	}
	if g := m.GranOf(0); g != meta.Gran64 {
		t.Fatalf("gran = %v after demotion", g)
	}
	if !bytes.Equal(mustRead(t, m, 0x40), block(1)) {
		t.Fatal("data lost after demotion")
	}
	if m.Stats.Demotions == 0 {
		t.Fatal("demotion not counted")
	}
}

func TestPromoteTo32K(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(7))
	mustWrite(t, m, meta.ChunkSize-meta.BlockSize, block(8))
	if err := m.ApplyDetection(0, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	if g := m.GranOf(0); g != meta.Gran32K {
		t.Fatalf("gran = %v, want 32KB", g)
	}
	if !bytes.Equal(mustRead(t, m, 0), block(7)) {
		t.Fatal("block 0 lost")
	}
	if !bytes.Equal(mustRead(t, m, meta.ChunkSize-meta.BlockSize), block(8)) {
		t.Fatal("last block lost")
	}
	// Middle block was never written: reads as zero (materialized).
	if !bytes.Equal(mustRead(t, m, 0x4000), make([]byte, 64)) {
		t.Fatal("middle block not zero")
	}
}

func TestCoarseUnitWriteReencryptsUnit(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	mustWrite(t, m, 64, block(2))
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	ctBefore := m.data[64]
	mustWrite(t, m, 0, block(3)) // write sibling: shared counter bumps
	if m.data[64] == ctBefore {
		t.Fatal("coarse write did not re-encrypt sibling block")
	}
	if !bytes.Equal(mustRead(t, m, 64), block(2)) {
		t.Fatal("sibling data corrupted by coarse write")
	}
}

func TestTamperInsideCoarseUnitDetected(t *testing.T) {
	m := newMem()
	for b := 0; b < 8; b++ {
		mustWrite(t, m, uint64(b*64), block(byte(b)))
	}
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.TamperData(0x100) // some member block
	// Reading ANY member block must fail: the nested MAC covers the unit.
	if _, err := m.Read(0); !errors.Is(err, ErrMAC) {
		t.Fatalf("err = %v, want ErrMAC", err)
	}
}

func TestReplayAcrossPromotionDetected(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	snap := m.Snapshot()
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	m.Replay(snap)
	if _, err := m.Read(0); err == nil {
		t.Fatal("replay across promotion undetected")
	}
}

func TestMixedGranularityChunk(t *testing.T) {
	// Partitions 0-7 become one 4KB unit, partition 9 a 512B unit, rest fine.
	m := newMem()
	for b := 0; b < 128; b++ {
		mustWrite(t, m, uint64(b*64), block(byte(b)))
	}
	sp := meta.StreamPart(0xff) | 1<<9
	if err := m.ApplyDetection(0, sp); err != nil {
		t.Fatal(err)
	}
	if g := m.GranOf(0); g != meta.Gran4K {
		t.Fatalf("gran(0) = %v", g)
	}
	if g := m.GranOf(9 * meta.PartitionSize); g != meta.Gran512 {
		t.Fatalf("gran(part9) = %v", g)
	}
	if g := m.GranOf(8 * meta.PartitionSize); g != meta.Gran64 {
		t.Fatalf("gran(part8) = %v", g)
	}
	for b := 0; b < 128; b++ {
		if !bytes.Equal(mustRead(t, m, uint64(b*64)), block(byte(b))) {
			t.Fatalf("block %d lost in mixed switch", b)
		}
	}
}

func TestApplyDetectionIdempotent(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	if err := m.ApplyDetection(0, 0); err != nil {
		t.Fatal(err)
	}
	if m.Stats.Promotions != 0 && m.Stats.Demotions != 0 {
		t.Fatal("no-op detection switched something")
	}
}

func TestWriteAlignmentPanics(t *testing.T) {
	m := newMem()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned write did not panic")
		}
	}()
	_ = m.Write(1, block(0))
}

func TestOutOfRangePanics(t *testing.T) {
	m := newMem()
	mustRead(t, m, region-meta.BlockSize)
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "outside protected region") {
			t.Fatalf("read at the region end panicked with %v, want the region check", r)
		}
	}()
	_, _ = m.Read(region)
}

func TestGranOfDefault(t *testing.T) {
	m := newMem()
	if g := m.GranOf(0x8000); g != meta.Gran64 {
		t.Fatalf("default gran = %v, want 64B", g)
	}
}

func TestCheckHelper(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	if err := m.Check(0); err != nil {
		t.Fatal(err)
	}
	m.TamperData(0)
	if err := m.Check(0); err == nil {
		t.Fatal("Check missed tamper")
	}
}

// TestSnapshotReplayRoundTrip pins the snapshot/replay semantics under
// granularity switches. A snapshot restores bit-exact off-chip state
// (Snapshot.Equal after Replay), a replay with no intervening activity is
// invisible, and a replay of a genuinely stale image — writes and further
// switches happened in between — restores state that no longer chains to
// the on-chip roots, so verification must reject it.
func TestSnapshotReplayRoundTrip(t *testing.T) {
	m := New(2*meta.ChunkSize, 3)
	for b := uint64(0); b < 16; b++ {
		mustWrite(t, m, b*meta.BlockSize, block(byte(b)))
		mustWrite(t, m, meta.ChunkSize+b*meta.BlockSize, block(byte(0x80+b)))
	}
	if err := m.Promote(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	// Replay with nothing in between: a no-op, and everything still
	// verifies and decrypts to the written payloads.
	m.Replay(snap)
	if !m.Snapshot().Equal(snap) {
		t.Fatal("immediate replay changed off-chip state")
	}
	for b := uint64(0); b < 16; b++ {
		got, err := m.Read(b * meta.BlockSize)
		if err != nil {
			t.Fatalf("read after no-op replay: %v", err)
		}
		if !bytes.Equal(got, block(byte(b))) {
			t.Fatalf("block %d corrupted by no-op replay", b)
		}
	}

	// Advance past the snapshot: new data and more switches on both chunks.
	target := uint64(meta.ChunkSize + 2*meta.BlockSize)
	mustWrite(t, m, target, block(0xee))
	if err := m.Demote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Promote(1, 3, 2); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().Equal(snap) {
		t.Fatal("post-snapshot activity left off-chip state unchanged")
	}

	// Replay the stale image: off-chip state is restored exactly, but the
	// on-chip roots have advanced, so the stale tree must be rejected.
	m.Replay(snap)
	if !m.Snapshot().Equal(snap) {
		t.Fatal("replay did not restore the snapshot bit-exact")
	}
	if _, err := m.Read(target); !errors.Is(err, ErrTree) {
		t.Fatalf("stale replay of a written chunk verified (err=%v), want ErrTree", err)
	}
	if _, err := m.Read(0); !errors.Is(err, ErrTree) {
		t.Fatalf("stale replay across a switched chunk verified (err=%v), want ErrTree", err)
	}
}
