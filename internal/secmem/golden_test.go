package secmem

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unimem/internal/meta"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/secmem -run TestGoldenImage -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenImage pins the exact off-chip bytes every rewrite path
// produces: a scripted mix of fine writes, promotions to each coarse
// granularity, writes into coarse units (including a never-written member
// block), a one-partition demotion and a mixed-to-mixed switch. After each
// step it records the sha256 of the saved image and the on-chip roots, so
// any change to ciphertext, MACs, counters, tree nodes, the granularity
// table or the image format shows up as a diff against
// testdata/image.golden.
func TestGoldenImage(t *testing.T) {
	m := newMem()
	var out strings.Builder
	record := func(step string) {
		t.Helper()
		var buf bytes.Buffer
		roots, err := m.Save(&buf)
		if err != nil {
			t.Fatalf("%s: Save: %v", step, err)
		}
		fmt.Fprintf(&out, "%-12s sha256=%x roots=%v\n", step, sha256.Sum256(buf.Bytes()), roots)
	}
	do := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	write := func(chunk uint64, blocks ...int) error {
		for _, b := range blocks {
			addr := chunk*meta.ChunkSize + uint64(b)*meta.BlockSize
			if err := m.Write(addr, block(byte(chunk)<<7^byte(b))); err != nil {
				return err
			}
		}
		return nil
	}

	do("fine", write(0, 0, 1, 2, 9, 17, 40, 100, 300, 511))
	do("fine", write(1, 0, 8, 64, 65, 200, 240))
	record("fine")

	do("promote-512", m.Promote(0, 0, 1)) // partition 0: one 512B unit
	record("promote-512")
	do("write-512", write(0, 3, 0)) // block 3 was never written
	record("write-512")

	do("promote-4K", m.Promote(0, 0, 8)) // group 0: one 4KB unit
	record("promote-4K")
	do("write-4K", write(0, 33)) // never written
	record("write-4K")

	do("promote-32K", m.Promote(0, 0, meta.PartsPerChunk))
	record("promote-32K")
	do("write-32K", write(0, 450)) // never written
	record("write-32K")

	do("demote", m.Demote(0, 8, 1)) // 32KB -> 4KB groups, 512B units, fine
	record("demote")

	// Chunk 1: a mixed encoding (4KB group 1, 512B partitions 0 and 25),
	// written into, then switched to another mixed encoding that scales
	// group 0 up, splits group 1 into 512B and fine units, keeps
	// partition 25 and promotes partition 30.
	mixedA := meta.StreamPart(0xff<<8 | 1 | 1<<25)
	do("mixed-a", m.ApplyDetection(1, mixedA))
	record("mixed-a")
	do("write-mixed", write(1, 1, 70, 201, 205))
	record("write-mixed")
	mixedB := meta.StreamPart(0xff | 0x0f<<8 | 1<<25 | 1<<30)
	do("mixed-b", m.ApplyDetection(1, mixedB))
	record("mixed-b")

	path := filepath.Join("testdata", "image.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("image bytes differ from %s (re-run with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s", path, out.String(), want)
	}
}
