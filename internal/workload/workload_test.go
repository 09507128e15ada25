package workload

import (
	"testing"

	"unimem/internal/meta"
)

func TestDeterminism(t *testing.T) {
	a, _ := ByName("mcf", 0.1, 7)
	b, _ := ByName("mcf", 0.1, 7)
	ra, rb := Collect(a), Collect(b)
	if len(ra) != len(rb) {
		t.Fatalf("lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a, _ := ByName("mcf", 0.1, 7)
	b, _ := ByName("mcf", 0.1, 8)
	ra, rb := Collect(a), Collect(b)
	same := 0
	for i := range ra {
		if i < len(rb) && ra[i] == rb[i] {
			same++
		}
	}
	if same == len(ra) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := ByName("nope", 1, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAllProfilesWellFormed(t *testing.T) {
	for name, p := range Profiles {
		if p.Name != name {
			t.Errorf("%s: name mismatch %q", name, p.Name)
		}
		if p.Requests <= 0 || p.FootprintBytes == 0 || p.ReqSize < 64 {
			t.Errorf("%s: degenerate profile %+v", name, p)
		}
		if p.ReqSize%64 != 0 {
			t.Errorf("%s: request size %d not 64B-aligned", name, p.ReqSize)
		}
		if p.Stream512+p.Stream4K+p.Stream32K > 1000000 {
			t.Errorf("%s: stream mixture exceeds 1", name)
		}
		g := New(p, 0.02, 3)
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Addr%64 != 0 {
				t.Fatalf("%s: unaligned address %#x", name, r.Addr)
			}
			if r.Size <= 0 || r.Size%64 != 0 {
				t.Fatalf("%s: bad size %d", name, r.Size)
			}
			if r.Addr+uint64(r.Size) > p.FootprintBytes+meta.ChunkSize {
				t.Fatalf("%s: address %#x beyond footprint", name, r.Addr)
			}
		}
	}
}

func TestTableFourNamesRegistered(t *testing.T) {
	for _, lists := range [][]string{CPUNames, GPUNames, NPUNames} {
		for _, n := range lists {
			if _, ok := Profiles[n]; !ok {
				t.Errorf("workload %s not registered", n)
			}
		}
	}
	if len(CPUNames) != 5 || len(GPUNames) != 5 || len(NPUNames) != 4 {
		t.Fatal("Table 4 workload counts wrong")
	}
}

func TestClassAssignments(t *testing.T) {
	for _, n := range CPUNames {
		if Profiles[n].Class != CPU {
			t.Errorf("%s should be CPU", n)
		}
	}
	for _, n := range GPUNames {
		if Profiles[n].Class != GPU {
			t.Errorf("%s should be GPU", n)
		}
	}
	for _, n := range NPUNames {
		if Profiles[n].Class != NPU {
			t.Errorf("%s should be NPU", n)
		}
	}
}

func TestScaleControlsLength(t *testing.T) {
	small, _ := ByName("alex", 0.1, 1)
	big, _ := ByName("alex", 1.0, 1)
	ns, nb := len(Collect(small)), len(Collect(big))
	if nb <= ns {
		t.Fatalf("scale had no effect: %d vs %d", ns, nb)
	}
}

func TestStreamChunkMixOrdering(t *testing.T) {
	// Fig. 4 shape: alex is the coarsest (74.1% 32KB in the paper), CPU
	// workloads are dominated by 64B, NPUs are coarse overall.
	mix := func(name string) ChunkMix {
		g, _ := ByName(name, 0.5, 11)
		return AnalyzeStreamChunks(g, 0)
	}
	alex := mix("alex")
	gcc := mix("gcc")
	mm := mix("mm")
	pr := mix("pr")
	if alex.Frac[meta.Gran32K] < 0.5 {
		t.Fatalf("alex 32KB fraction = %.2f, want > 0.5", alex.Frac[meta.Gran32K])
	}
	if gcc.Frac[meta.Gran64] < 0.6 {
		t.Fatalf("gcc 64B fraction = %.2f, want > 0.6", gcc.Frac[meta.Gran64])
	}
	if mm.Coarse() < pr.Coarse() {
		t.Fatalf("mm coarse (%.2f) should exceed pr coarse (%.2f)", mm.Coarse(), pr.Coarse())
	}
	if alex.Coarse() < gcc.Coarse() {
		t.Fatal("NPU alex should be coarser than CPU gcc")
	}
}

func TestXalHas512BStreams(t *testing.T) {
	g, _ := ByName("xal", 0.5, 5)
	mix := AnalyzeStreamChunks(g, 0)
	if mix.Frac[meta.Gran512] < 0.05 {
		t.Fatalf("xal 512B fraction = %.3f, want >= 0.05 (paper: 19.5%%)", mix.Frac[meta.Gran512])
	}
}

func TestDepOnlyOnCPUWorkloads(t *testing.T) {
	for _, n := range append(append([]string{}, GPUNames...), NPUNames...) {
		if Profiles[n].DepFrac != 0 {
			t.Errorf("%s: non-CPU workload has dependent accesses", n)
		}
	}
}

func TestRNGBelowBounds(t *testing.T) {
	r := newRNG(0) // zero seed replaced internally
	always, never := 0, 0
	for i := 0; i < 1000; i++ {
		if r.below(1000000) {
			always++
		}
		if r.below(0) {
			never++
		}
	}
	if always != 1000 || never != 0 {
		t.Fatalf("below() broken: %d/%d", always, never)
	}
	if r.rangeN(0) != 0 {
		t.Fatal("rangeN(0) != 0")
	}
}

func TestClassString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" || NPU.String() != "NPU" || Class(9).String() != "unknown" {
		t.Fatal("class names broken")
	}
}
