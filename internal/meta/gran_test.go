package meta

import "testing"

func TestGranSizes(t *testing.T) {
	want := map[Gran]uint64{Gran64: 64, Gran512: 512, Gran4K: 4096, Gran32K: 32768}
	for g, b := range want {
		if g.Bytes() != b {
			t.Errorf("%v.Bytes() = %d, want %d", g, g.Bytes(), b)
		}
	}
}

func TestGranLevels(t *testing.T) {
	// Eq. 2: 512B prunes 1 level, 4KB prunes 2, 32KB prunes 3.
	want := map[Gran]int{Gran64: 0, Gran512: 1, Gran4K: 2, Gran32K: 3}
	for g, l := range want {
		if g.Level() != l {
			t.Errorf("%v.Level() = %d, want %d", g, g.Level(), l)
		}
	}
}

func TestGranBlocks(t *testing.T) {
	want := map[Gran]int{Gran64: 1, Gran512: 8, Gran4K: 64, Gran32K: 512}
	for g, n := range want {
		if g.Blocks() != n {
			t.Errorf("%v.Blocks() = %d, want %d", g, g.Blocks(), n)
		}
	}
}

func TestGranString(t *testing.T) {
	if Gran32K.String() != "32KB" || Gran(9).String() == "32KB" {
		t.Error("Gran.String broken")
	}
}

func TestAddressDecomposition(t *testing.T) {
	addr := uint64(3*ChunkSize + 17*PartitionSize + 5*BlockSize + 13)
	if ChunkIndex(addr) != 3 {
		t.Errorf("ChunkIndex = %d", ChunkIndex(addr))
	}
	if ChunkBase(addr) != 3*ChunkSize {
		t.Errorf("ChunkBase = %d", ChunkBase(addr))
	}
	if PartIndex(addr) != 17 {
		t.Errorf("PartIndex = %d", PartIndex(addr))
	}
	if BlockInChunk(addr) != 17*8+5 {
		t.Errorf("BlockInChunk = %d", BlockInChunk(addr))
	}
	if BlockIndex(addr) != (3*ChunkSize+17*PartitionSize+5*BlockSize)/64 {
		t.Errorf("BlockIndex = %d", BlockIndex(addr))
	}
}

func TestAlignGran(t *testing.T) {
	addr := uint64(ChunkSize + 4096 + 512 + 64 + 3)
	if AlignGran(addr, Gran64) != ChunkSize+4096+512+64 {
		t.Error("AlignGran 64B")
	}
	if AlignBlock(addr) != AlignGran(addr, Gran64) {
		t.Error("AlignBlock")
	}
	if AlignGran(addr, Gran512) != ChunkSize+4096+512 {
		t.Error("AlignGran 512B")
	}
	if AlignGran(addr, Gran4K) != ChunkSize+4096 {
		t.Error("AlignGran 4KB")
	}
	if AlignGran(addr, Gran32K) != ChunkSize {
		t.Error("AlignGran 32KB")
	}
}

func TestDerivedConstants(t *testing.T) {
	if PartsPerChunk != 64 || BlocksPerChunk != 512 || BlocksPerPartition != 8 || MACsPerLine != 8 {
		t.Fatal("geometry constants drifted from the paper's 8-arity design")
	}
}
