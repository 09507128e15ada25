package unimem

import (
	"bytes"
	"errors"
	"testing"
)

func TestProtectedRoundTripAndTamper(t *testing.T) {
	p := NewProtected(1<<20, 42)
	want := make([]byte, BlockSize)
	for i := range want {
		want[i] = byte(i)
	}
	if err := p.Write(0x1000, want); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(0x1000)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("round trip failed: %v", err)
	}
	p.TamperData(0x1000)
	if _, err := p.Read(0x1000); !errors.Is(err, ErrMAC) {
		t.Fatalf("tamper not detected: %v", err)
	}
}

func TestProtectedReplayDetected(t *testing.T) {
	p := NewProtected(1<<20, 1)
	blk := make([]byte, BlockSize)
	blk[0] = 1
	if err := p.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	blk[0] = 2
	if err := p.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	p.Restore(snap)
	if _, err := p.Read(0); !errors.Is(err, ErrTree) {
		t.Fatalf("replay not detected: %v", err)
	}
}

func TestProtectedAutoPromotion(t *testing.T) {
	p := NewProtected(1<<20, 7)
	blk := make([]byte, BlockSize)
	// Stream a whole chunk: the built-in tracker should detect and promote.
	for b := uint64(0); b < ChunkSize; b += BlockSize {
		if err := p.Write(b, blk); err != nil {
			t.Fatal(err)
		}
	}
	// One more access delivers the detection.
	if _, err := p.Read(0); err != nil {
		t.Fatal(err)
	}
	if g := p.GranOf(0); g == Gran64 {
		t.Fatalf("gran after full-chunk stream = %v, want promoted", g)
	}
	if _, err := p.Read(512); err != nil {
		t.Fatalf("read after promotion: %v", err)
	}
}

// TestProtectedSwitchErrorSurfaces: a granularity switch triggered by an
// access verifies the units it regroups. When that fails, the access must
// return the error and not happen: block 1 is tampered early in a chunk
// stream, and the write whose access promotes the chunk reports ErrMAC.
func TestProtectedSwitchErrorSurfaces(t *testing.T) {
	p := NewProtected(1<<20, 5)
	blk := make([]byte, BlockSize)
	last := ChunkSize/BlockSize - 1
	for i := 0; i < last; i++ {
		if err := p.Write(uint64(i)*BlockSize, blk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i == 5 {
			p.TamperData(BlockSize)
		}
	}
	pre := p.mem.Snapshot()
	if err := p.Write(uint64(last)*BlockSize, blk); !errors.Is(err, ErrMAC) {
		t.Fatalf("write %d, which promotes the tampered chunk: err = %v, want ErrMAC", last, err)
	}
	if !p.mem.Snapshot().Equal(pre) {
		t.Error("the failed write changed the off-chip image")
	}
	if g := p.GranOf(0); g != Gran64 {
		t.Errorf("gran after the failed promotion = %v, want 64B", g)
	}
}

func TestProtectedManualSwitching(t *testing.T) {
	p := NewProtected(1<<20, 3)
	if err := p.Promote(0, 0, 8); err != nil {
		t.Fatal(err)
	}
	if g := p.GranOf(0); g != Gran4K {
		t.Fatalf("gran = %v, want 4KB", g)
	}
	if err := p.Demote(0, 0, 8); err != nil {
		t.Fatal(err)
	}
	if g := p.GranOf(0); g != Gran64 {
		t.Fatalf("gran = %v, want 64B", g)
	}
	if err := p.Verify(0); err != nil {
		t.Fatal(err)
	}
}

func TestSimFacade(t *testing.T) {
	if len(AllScenarios()) != 250 || len(SelectedScenarios()) != 11 {
		t.Fatal("scenario enumeration broken")
	}
	if len(SampleScenarios(5)) != 5 {
		t.Fatal("sampling broken")
	}
	if len(Workloads()) != 16 {
		t.Fatalf("workloads = %d, want 16", len(Workloads()))
	}
	cfg := SimConfig{Scale: 0.03, Seed: 1}
	n := RunNormalized(SelectedScenarios()[0], Conventional, cfg)
	if n.Mean <= 1 {
		t.Fatalf("conventional normalized = %.3f", n.Mean)
	}
	if HWCost().TotalBytes != 850 {
		t.Fatal("hardware cost arithmetic broken")
	}
}

func TestSchemeNames(t *testing.T) {
	if Ours.String() != "Ours" || BMFUnusedOurs.String() != "BMF&Unused+Ours" {
		t.Fatal("scheme naming broken")
	}
	if len(Schemes) != 15 {
		t.Fatalf("schemes = %d", len(Schemes))
	}
	if !MGXVersioned.IsExtension() || Ours.IsExtension() {
		t.Fatal("extension flag broken")
	}
}

func TestProtectedSaveLoad(t *testing.T) {
	p := NewProtected(1<<20, 9)
	want := make([]byte, BlockSize)
	want[0] = 0x5a
	if err := p.Write(0x4000, want); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	roots, err := p.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := LoadProtected(&buf, 9, roots)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Read(0x4000)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("save/load lost data: %v", err)
	}
	// Stale-root replay across persistence is rejected.
	var buf2 bytes.Buffer
	if _, err := p2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := p2.Write(0x4000, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if _, err := p2.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProtected(&buf3, 9, roots); err == nil {
		t.Fatal("image accepted with stale roots")
	}
}
