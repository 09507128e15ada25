package workload

import "sort"

// Profiles registers the Table 4 workloads plus the two extra real-world
// stages of Table 6 (yt on the NPU, sc on the CPU).
//
// Calibration notes: the access-pattern class (ff/f/c/cc/d) maps to the
// stream mixture; the traffic class (s/m/l) maps to the mean compute gap;
// the CPU's latency sensitivity comes from high DepFrac (dependent loads);
// NPU burstiness comes from tile-sized requests. Absolute values are
// synthetic but ordered to match the paper's Figure 4 / Table 4
// characterisation.
var Profiles = map[string]Profile{
	// --- CPU (SPEC2017 / PARSEC), 64B cacheline misses -------------------
	"bw": {
		Name: "bw", Class: CPU, Requests: 24000, FootprintBytes: 8 << 20,
		Stream512: 5_200, ReqSize: 64, WriteFrac: 280_000,
		GapPs: 5000, DepFrac: 550_000, Revisit: 150_000,
		RandomRun: 4, HotFrac: 650_000, HotBytes: 1 << 20,
	},
	"gcc": {
		Name: "gcc", Class: CPU, Requests: 24000, FootprintBytes: 12 << 20,
		Stream512: 3_900, ReqSize: 64, WriteFrac: 320_000,
		GapPs: 5500, DepFrac: 600_000, Revisit: 200_000,
		RandomRun: 3, HotFrac: 700_000, HotBytes: 1 << 20,
	},
	"mcf": {
		Name: "mcf", Class: CPU, Requests: 32000, FootprintBytes: 16 << 20,
		Stream512: 5_200, ReqSize: 64, WriteFrac: 250_000,
		GapPs: 1800, DepFrac: 700_000, Revisit: 100_000,
		RandomRun: 4, HotFrac: 650_000, HotBytes: 1 << 20,
	},
	"xal": {
		Name: "xal", Class: CPU, Requests: 32000, FootprintBytes: 12 << 20,
		Stream512: 30_500, Stream4K: 590, ReqSize: 64, WriteFrac: 300_000,
		GapPs: 2200, DepFrac: 450_000, Revisit: 200_000,
		RandomRun: 4, HotFrac: 600_000, HotBytes: 1 << 20,
	},
	"ray": {
		Name: "ray", Class: CPU, Requests: 24000, FootprintBytes: 8 << 20,
		Stream512: 7_900, ReqSize: 64, WriteFrac: 200_000,
		GapPs: 4500, DepFrac: 500_000, Revisit: 250_000,
		RandomRun: 4, HotFrac: 650_000, HotBytes: 1 << 20,
	},
	"sc": {
		Name: "sc", Class: CPU, Requests: 28000, FootprintBytes: 8 << 20,
		Stream512: 36_300, Stream4K: 1_030, ReqSize: 64, WriteFrac: 350_000,
		GapPs: 2200, DepFrac: 350_000, Revisit: 300_000,
		RandomRun: 4, HotFrac: 600_000, HotBytes: 1 << 20,
	},

	// --- GPU (AMD APP SDK / Pannotia / SHOC / Polybench) -----------------
	"floyd": {
		Name: "floyd", Class: GPU, Requests: 9000, FootprintBytes: 32 << 20,
		Stream512: 312_000, Stream4K: 52_000, Stream32K: 11_400,
		ReqSize: 512, RandomSize: 256, WriteFrac: 300_000, GapPs: 420_000,
		Revisit: 250_000, HotFrac: 450_000, HotBytes: 4 << 20,
	},
	"mm": {
		Name: "mm", Class: GPU, Requests: 6500, FootprintBytes: 32 << 20,
		Stream4K: 390_000, Stream32K: 415_000,
		ReqSize: 4096, RandomSize: 512, WriteFrac: 220_000, GapPs: 1_900_000, Revisit: 400_000,
	},
	"pr": {
		Name: "pr", Class: GPU, Requests: 26000, FootprintBytes: 24 << 20,
		Stream512: 77_600, Stream4K: 2_100,
		ReqSize: 256, RandomSize: 256, WriteFrac: 220_000, GapPs: 150_000,
		Revisit: 120_000, HotFrac: 500_000, HotBytes: 4 << 20,
	},
	"sten": {
		Name: "sten", Class: GPU, Requests: 9000, FootprintBytes: 16 << 20,
		Stream4K: 693_000, Stream32K: 55_100,
		ReqSize: 2048, RandomSize: 1024, WriteFrac: 350_000, GapPs: 700_000, Revisit: 350_000,
	},
	"syr2k": {
		Name: "syr2k", Class: GPU, Requests: 24000, FootprintBytes: 24 << 20,
		Stream512: 52_600, ReqSize: 256, RandomSize: 256, WriteFrac: 260_000,
		GapPs: 170_000, Revisit: 150_000, RandomRun: 2, HotFrac: 550_000, HotBytes: 4 << 20,
	},

	// --- NPU (CNN / RNN / recommendation), scratchpad DMA tiles ----------
	"ncf": {
		Name: "ncf", Class: NPU, Requests: 1600, FootprintBytes: 12 << 20,
		Stream4K: 675_000, Stream32K: 132_600,
		ReqSize: 4096, RandomSize: 256, WriteFrac: 280_000, GapPs: 900_000, Revisit: 550_000,
	},
	"dlrm": {
		Name: "dlrm", Class: NPU, Requests: 1800, FootprintBytes: 16 << 20,
		Stream4K: 482_000, Stream32K: 132_600,
		ReqSize: 4096, RandomSize: 256, WriteFrac: 250_000, GapPs: 800_000,
		Revisit: 500_000,
	},
	"alex": {
		Name: "alex", Class: NPU, Requests: 1300, FootprintBytes: 16 << 20,
		Stream4K: 100_000, Stream32K: 750_000,
		ReqSize: 32768, RandomSize: 256, WriteFrac: 300_000, GapPs: 2_000_000, Revisit: 550_000,
	},
	"sfrnn": {
		Name: "sfrnn", Class: NPU, Requests: 3200, FootprintBytes: 16 << 20,
		Stream4K: 643_000, Stream32K: 143_000,
		ReqSize: 8192, RandomSize: 256, WriteFrac: 380_000, GapPs: 600_000, Revisit: 500_000,
	},
	"yt": {
		Name: "yt", Class: NPU, Requests: 1400, FootprintBytes: 16 << 20,
		Stream4K: 290_000, Stream32K: 449_000,
		ReqSize: 16384, RandomSize: 256, WriteFrac: 320_000, GapPs: 1_300_000, Revisit: 500_000,
	},
}

// CPUNames, GPUNames and NPUNames list the Table 4 workloads per device
// class in stable order (sc and yt are the extra Table 6 stages and are
// excluded from the 250-scenario enumeration, as in the paper).
var (
	CPUNames = []string{"bw", "gcc", "mcf", "xal", "ray"}
	GPUNames = []string{"floyd", "mm", "pr", "sten", "syr2k"}
	NPUNames = []string{"ncf", "dlrm", "alex", "sfrnn"}
)

// Names returns every registered workload name, sorted.
func Names() []string {
	out := make([]string, 0, len(Profiles))
	for n := range Profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
