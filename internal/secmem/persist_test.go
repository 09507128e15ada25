package secmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"unimem/internal/crypto"
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

	m2, err := Load(&buf, region, 42, roots)
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
// byte-identical — every section is emitted in slot order, so the image
// is a pure function of the protected state (attestation and artifact
// diffing depend on it).
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
	if _, err := Load(&buf, region, 43, roots); err == nil {
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
	if _, err := Load(&buf, region, 42, oldRoots); err == nil {
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
	m2, err := Load(bytes.NewReader(img), region, 42, roots)
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
// that only its own chain reaches. The region's last block sits in the
// last line of every level.
func TestLoadVerifiesEveryTreeLine(t *testing.T) {
	for _, b := range []uint64{64, region/meta.BlockSize - 1} {
		m := newMem()
		mustWrite(t, m, 0, block(1))
		mustWrite(t, m, b*meta.BlockSize, block(2))
		if !m.TamperCounter(b * meta.BlockSize) {
			t.Fatal("counter tamper did not land")
		}
		var buf bytes.Buffer
		roots, err := m.Save(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if _, err := Load(bytes.NewReader(buf.Bytes()), region, 42, roots); !errors.Is(err, ErrTree) {
				t.Fatalf("block %d, load %d: err = %v, want ErrTree", b, i, err)
			}
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
		m2, err := Load(bytes.NewReader(buf.Bytes()), region, 42, roots)
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

// sectionEntry is the size of one entry of each of the image's five
// sections, in image order.
var sectionEntry = [...]int{
	secData:     8 + meta.BlockSize, // address, ciphertext
	secCounters: 24,                 // level, entry, value
	secMACs:     8 + crypto.MACSize, // address, MAC
	secNodeMACs: 8 + crypto.MACSize, // address, MAC
	secTable:    16,                 // chunk, encoding
}

const (
	secData = iota
	secCounters
	secMACs
	secNodeMACs
	secTable
)

// sectionAt returns the offset of section s's count word in img.
func sectionAt(img []byte, s int) int {
	at := 32 // magic, version, region and counter width
	for i := 0; i < s; i++ {
		at += 8 + int(binary.LittleEndian.Uint64(img[at:]))*sectionEntry[i]
	}
	return at
}

// imageEntry encodes words and then tail as one image entry.
func imageEntry(tail []byte, words ...uint64) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return append(b, tail...)
}

// loadWithEntry saves a one-block image, appends e to section s, bumps
// that section's count and loads the result under the same key and roots.
func loadWithEntry(t *testing.T, s int, e []byte) error {
	t.Helper()
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	at := sectionAt(img, s)
	n := binary.LittleEndian.Uint64(img[at:])
	end := at + 8 + int(n)*sectionEntry[s]
	bad := append(bytes.Clone(img[:end]), e...)
	binary.LittleEndian.PutUint64(bad[at:], n+1)
	_, err = Load(bytes.NewReader(append(bad, img[end:]...)), region, 42, roots)
	return err
}

// TestLoadWithEntryAcceptsValidEntries: the image surgery the
// TestLoadRejects* tests use yields an image Load accepts when the entry
// it appends is in range, so their rejections come from the entry alone.
func TestLoadWithEntryAcceptsValidEntries(t *testing.T) {
	g := meta.NewGeometry(region)
	for s, e := range [...][]byte{
		secData:     imageEntry(make([]byte, meta.BlockSize), 0x1000),
		secCounters: imageEntry(nil, 0, 5, 0), // a zero counter in block 0's sealed line
		secMACs:     imageEntry(make([]byte, crypto.MACSize), g.MACBase+8*100),
		secNodeMACs: imageEntry(make([]byte, crypto.MACSize), g.GTBase-meta.BlockSize),
		secTable:    imageEntry(nil, 3, 0),
	} {
		if err := loadWithEntry(t, s, e); err != nil {
			t.Errorf("section %d: valid entry rejected: %v", s, err)
		}
	}
}

// TestLoadRejectsCounterOutsideTree: a counter entry beyond its level, or
// at a level the tree does not store, is a malformed image.
func TestLoadRejectsCounterOutsideTree(t *testing.T) {
	g := meta.NewGeometry(region)
	for name, k := range map[string][2]uint64{
		"entry":                    {0, 1 << 40},
		"first entry past the end": {0, g.CounterEntries(0)},
		"level":                    {9, 0},
		"first level past the top": {uint64(g.Levels()), 0},
	} {
		if err := loadWithEntry(t, secCounters, imageEntry(nil, k[0], k[1], 0)); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

// TestLoadRejectsTableEntryOutsideRegion: a granularity entry names a
// chunk the region does not have.
func TestLoadRejectsTableEntryOutsideRegion(t *testing.T) {
	for name, chunk := range map[string]uint64{"first chunk past the end": region / meta.ChunkSize, "chunk 2^40": 1 << 40} {
		if err := loadWithEntry(t, secTable, imageEntry(nil, chunk, uint64(meta.AllStream))); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

// TestLoadRejectsDataBlockOutsideRegion: a stored block lies past the
// region's end or off a 64B boundary.
func TestLoadRejectsDataBlockOutsideRegion(t *testing.T) {
	for name, addr := range map[string]uint64{"first block past the end": region, "1GB": 1 << 30, "misaligned": 0x1020} {
		ct := [meta.BlockSize]byte{1}
		if err := loadWithEntry(t, secData, imageEntry(ct[:], addr)); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

// TestLoadRejectsDataMACOutsideRegion: a data MAC lies outside the MAC
// region or off an 8B slot boundary.
func TestLoadRejectsDataMACOutsideRegion(t *testing.T) {
	g := meta.NewGeometry(region)
	for name, addr := range map[string]uint64{"0": 0, "first slot past the end": g.CounterBase, "2^40": 1 << 40, "misaligned": g.MACBase + 4} {
		mac := crypto.MAC{1}
		if err := loadWithEntry(t, secMACs, imageEntry(mac[:], addr)); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

// TestLoadRejectsNodeMACOutsideTree: a tree-node MAC lies outside the
// counter region or off a 64B line boundary.
func TestLoadRejectsNodeMACOutsideTree(t *testing.T) {
	g := meta.NewGeometry(region)
	for name, addr := range map[string]uint64{"0": 0, "first line past the end": g.GTBase, "2^40": 1 << 40, "misaligned": g.CounterBase + 8} {
		mac := crypto.MAC{1}
		if err := loadWithEntry(t, secNodeMACs, imageEntry(mac[:], addr)); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an image")), region, 1, nil); !errors.Is(err, ErrImageFormat) {
		t.Fatalf("err = %v, want ErrImageFormat", err)
	}
	var empty bytes.Buffer
	if _, err := Load(&empty, region, 1, nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

// TestLoadRejectsRegionOtherThanTrusted: the region comes from the
// caller, like the roots. A region word scaled by a power of 8 keeps the
// root count, so only the caller's region can reject it, and it must do so
// before Load allocates the declared region (2^62 bytes at k = 14).
func TestLoadRejectsRegionOtherThanTrusted(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 14; k++ {
		img := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(img[16:], region<<(3*k))
		if _, err := Load(bytes.NewReader(img), region, 42, roots); !errors.Is(err, ErrImageFormat) {
			t.Errorf("region word x8^%d: err = %v, want ErrImageFormat", k, err)
		}
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), 8*region, 42, roots); !errors.Is(err, ErrImageFormat) {
		t.Errorf("caller's region 8x the image's: err = %v, want ErrImageFormat", err)
	}
	// A region that is not a positive multiple of 32KB is rejected even
	// when the image repeats it, instead of panicking in the geometry.
	for _, bad := range []uint64{0, 1000, meta.ChunkSize + meta.BlockSize} {
		img := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(img[16:], bad)
		if _, err := Load(bytes.NewReader(img), bad, 42, roots); !errors.Is(err, ErrImageFormat) {
			t.Errorf("region %d: err = %v, want ErrImageFormat", bad, err)
		}
	}
}

func TestSaveLoadEmptyImage(t *testing.T) {
	m := newMem()
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, region, 42, roots)
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
	if _, err := Load(bytes.NewReader(buf.Bytes()), region, 42, roots); err != nil {
		t.Fatalf("unpatched image: %v", err)
	}
	for name, patch := range map[string]func(img []byte){
		"counter width":       func(img []byte) { binary.LittleEndian.PutUint64(img[24:], 2) },
		"major-epoch section": func(img []byte) { binary.LittleEndian.PutUint64(img[len(img)-8:], 1) },
	} {
		img := bytes.Clone(buf.Bytes())
		patch(img)
		if _, err := Load(bytes.NewReader(img), region, 42, roots); !errors.Is(err, ErrImageFormat) {
			t.Errorf("%s: err = %v, want ErrImageFormat", name, err)
		}
	}
}

// TestSaveAllocsIndependentOfImage: Save encodes every entry through one
// scratch buffer, so saving a full image allocates exactly as much as
// saving a one-block image.
func TestSaveAllocsIndependentOfImage(t *testing.T) {
	one, full := newMem(), newMem()
	mustWrite(t, one, 0, block(1))
	for b := uint64(0); b < region/meta.BlockSize; b++ {
		mustWrite(t, full, b*meta.BlockSize, block(byte(b)))
	}
	allocs := func(m *Memory) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := m.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(one), allocs(full); a != b {
		t.Fatalf("Save made %v allocations for a one-block image and %v for a full one", a, b)
	}
}
