package secmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"unimem/internal/meta"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0x1000, block(1))
	mustWrite(t, m, 0x8000, block(2))
	if err := m.Promote(0, 0, 8); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, m, 0x40, block(3))

	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) == 0 {
		t.Fatal("no roots returned")
	}

	m2, err := Load(&buf, 42, roots)
	if err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[uint64][]byte{0x1000: block(1), 0x8000: block(2), 0x40: block(3)} {
		got := mustRead(t, m2, addr)
		if !bytes.Equal(got, want) {
			t.Fatalf("addr %#x lost across save/load", addr)
		}
	}
	// Granularity table survived.
	if g := m2.GranOf(0x40); g != meta.Gran4K {
		t.Fatalf("granularity after load = %v, want 4KB", g)
	}
}

// TestSaveIsDeterministic: two Saves of the same memory must be
// byte-identical — every map section is emitted in sorted key order, so
// the image is a pure function of the protected state (attestation and
// artifact diffing depend on it).
func TestSaveIsDeterministic(t *testing.T) {
	m := newMem()
	for i := uint64(0); i < 24; i++ {
		mustWrite(t, m, i*0x400, block(byte(i)))
	}
	if err := m.Promote(0, 0, 8); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if _, err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		var buf bytes.Buffer
		if _, err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			t.Fatalf("save %d produced different image bytes (%d vs %d)", run, first.Len(), buf.Len())
		}
	}
}

func TestLoadRejectsWrongKey(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, 43, roots); err == nil {
		t.Fatal("image loaded under the wrong key")
	}
}

func TestLoadRejectsStaleRoots(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var pre bytes.Buffer
	oldRoots, err := m.Save(&pre)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, m, 0, block(2)) // image advances
	var buf bytes.Buffer
	if _, err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Offline replay: new image + old roots must not authenticate.
	if _, err := Load(&buf, 42, oldRoots); err == nil {
		t.Fatal("stale roots accepted")
	}
}

func TestLoadRejectsTamperedImage(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	img[len(img)/2] ^= 1 // flip a bit somewhere in the payload
	m2, err := Load(bytes.NewReader(img), 42, roots)
	if err != nil {
		return // rejected at load: good
	}
	// If the flip landed in data or a data MAC, the read must catch it.
	if _, err := m2.Read(0); err == nil {
		t.Fatal("tampered image loaded and read cleanly")
	}
}

// TestLoadVerifiesEveryTreeLine: Load authenticates the line of every
// stored counter, not one chain per top-level line. Blocks 0 and 64 share
// every line above level 0, so block 64's tampered counter sits in a line
// that only its own chain reaches.
func TestLoadVerifiesEveryTreeLine(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	mustWrite(t, m, 64*meta.BlockSize, block(2))
	if !m.TamperCounter(64 * meta.BlockSize) {
		t.Fatal("counter tamper did not land")
	}
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := Load(bytes.NewReader(buf.Bytes()), 42, roots); !errors.Is(err, ErrTree) {
			t.Fatalf("load %d: err = %v, want ErrTree", i, err)
		}
	}
}

// TestLoadAcceptsPromotedWrittenBlock: promoting a written fine block
// leaves its level-0 counter behind in a line sealed under the old parent
// value. No read verifies that line, so Load must not reject it either.
// Block 72 sits past the chunk's first 64 blocks, so Load must find its
// unit by the block's index within the chunk.
func TestLoadAcceptsPromotedWrittenBlock(t *testing.T) {
	m := newMem()
	blocks := []uint64{0, 72}
	for _, b := range blocks {
		mustWrite(t, m, b*meta.BlockSize, block(byte(b)))
		if err := m.Promote(0, int(b/meta.BlocksPerPartition), 1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		m2, err := Load(bytes.NewReader(buf.Bytes()), 42, roots)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		for _, b := range blocks {
			if got := mustRead(t, m2, b*meta.BlockSize); !bytes.Equal(got, block(byte(b))) {
				t.Fatalf("load %d: block %d lost", i, b)
			}
		}
	}
}

// TestLoadRejectsCounterOutsideTree: a counter entry beyond its level, or
// at a level the tree does not store, is a malformed image.
func TestLoadRejectsCounterOutsideTree(t *testing.T) {
	for name, k := range map[string]counterKey{
		"entry": {0, 1 << 40},
		"level": {9, 0},
	} {
		m := newMem()
		mustWrite(t, m, 0, block(1))
		m.counters[k] = 0 // a zero entry passes every pristine line up to the roots
		if err := saveLoad(t, m); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

// saveLoad saves m and loads the image back under the same key.
func saveLoad(t *testing.T, m *Memory) error {
	t.Helper()
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(&buf, 42, roots)
	return err
}

// TestLoadRejectsTableEntryOutsideRegion: a granularity entry names a
// chunk the region does not have.
func TestLoadRejectsTableEntryOutsideRegion(t *testing.T) {
	for name, chunk := range map[string]uint64{"first chunk past the end": region / meta.ChunkSize, "chunk 2^40": 1 << 40} {
		m := newMem()
		mustWrite(t, m, 0, block(1))
		m.table[chunk] = meta.AllStream
		if err := saveLoad(t, m); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

// TestLoadRejectsDataBlockOutsideRegion: a stored block lies past the
// region's end or off a 64B boundary.
func TestLoadRejectsDataBlockOutsideRegion(t *testing.T) {
	for name, addr := range map[string]uint64{"first block past the end": region, "1GB": 1 << 30, "misaligned": 0x1020} {
		m := newMem()
		mustWrite(t, m, 0, block(1))
		m.data[addr] = [meta.BlockSize]byte{1}
		if err := saveLoad(t, m); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an image")), 1, nil); !errors.Is(err, ErrImageFormat) {
		t.Fatalf("err = %v, want ErrImageFormat", err)
	}
	var empty bytes.Buffer
	if _, err := Load(&empty, 1, nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestSaveLoadEmptyImage(t *testing.T) {
	m := newMem()
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, 42, roots)
	if err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, m2, 0x2000)
	if !bytes.Equal(got, make([]byte, meta.BlockSize)) {
		t.Fatal("fresh loaded image not zero")
	}
}

// TestLoadRejectsBoundedCounterImage: format v1 keeps a counter-width word
// and a trailing major-epoch section from retired bounded counters. Save
// writes both empty; an image with a counter width or any major epoch was
// written under bounded counters and must not load.
func TestLoadRejectsBoundedCounterImage(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), 42, roots); err != nil {
		t.Fatalf("unpatched image: %v", err)
	}
	for name, patch := range map[string]func(img []byte){
		"counter width":       func(img []byte) { binary.LittleEndian.PutUint64(img[24:], 2) },
		"major-epoch section": func(img []byte) { binary.LittleEndian.PutUint64(img[len(img)-8:], 1) },
	} {
		img := bytes.Clone(buf.Bytes())
		patch(img)
		if _, err := Load(bytes.NewReader(img), 42, roots); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}
