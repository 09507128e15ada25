// Package hetero composes the full heterogeneous system of the paper's
// evaluation (section 5): one CPU, one GPU and two NPUs sharing one LPDDR4
// memory system behind one unified memory-protection engine. It owns the
// 250-scenario enumeration of Table 4, the 11 selected scenarios of
// section 5.4, and the real-world pipelines of Table 6.
package hetero

import (
	"fmt"

	"unimem/internal/workload"
)

// Scenario is one heterogeneous workload mix: one CPU, one GPU and two NPU
// workloads (Table 4).
type Scenario struct {
	// ID is a short name ("ff1".."cc3" for the selected scenarios, the
	// workload tuple otherwise).
	ID string
	// CPU, GPU, NPU1, NPU2 are Table 4 workload names.
	CPU, GPU, NPU1, NPU2 string
}

// DeviceSpec describes one processing unit of a scenario: its device class
// and the workload it runs. The harness derives device counts, models and
// address quadrants from this slice instead of a hardcoded 4-wide shape.
type DeviceSpec struct {
	Class    workload.Class
	Workload string
}

// Devices lists the scenario's processing units in device order (the
// paper's mix: CPU, GPU, then the NPUs).
func (s Scenario) Devices() []DeviceSpec {
	return []DeviceSpec{
		{Class: workload.CPU, Workload: s.CPU},
		{Class: workload.GPU, Workload: s.GPU},
		{Class: workload.NPU, Workload: s.NPU1},
		{Class: workload.NPU, Workload: s.NPU2},
	}
}

// Workloads lists the workload names in device order.
func (s Scenario) Workloads() []string {
	specs := s.Devices()
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Workload
	}
	return out
}

// String returns the scenario identifier.
func (s Scenario) String() string { return s.ID }

// AllScenarios enumerates the full evaluation space: 5 CPU x 5 GPU x
// multiset-of-2-from-4 NPU workloads = 250 scenarios (section 5.1).
func AllScenarios() []Scenario {
	var out []Scenario
	for _, c := range workload.CPUNames {
		for _, g := range workload.GPUNames {
			for i := 0; i < len(workload.NPUNames); i++ {
				for j := i; j < len(workload.NPUNames); j++ {
					n1, n2 := workload.NPUNames[i], workload.NPUNames[j]
					out = append(out, Scenario{
						ID:  fmt.Sprintf("%s+%s+%s+%s", c, g, n1, n2),
						CPU: c, GPU: g, NPU1: n1, NPU2: n2,
					})
				}
			}
		}
	}
	return out
}

// SelectedScenarios returns the 11 named scenarios of Table 4 (bottom),
// grouped fine (ff) to coarse (cc) for the section 5.4 analysis.
func SelectedScenarios() []Scenario {
	return []Scenario{
		{ID: "ff1", CPU: "bw", GPU: "syr2k", NPU1: "ncf", NPU2: "dlrm"},
		{ID: "ff2", CPU: "mcf", GPU: "syr2k", NPU1: "sfrnn", NPU2: "dlrm"},
		{ID: "ff3", CPU: "gcc", GPU: "floyd", NPU1: "sfrnn", NPU2: "ncf"},
		{ID: "f1", CPU: "xal", GPU: "pr", NPU1: "sfrnn", NPU2: "ncf"},
		{ID: "f2", CPU: "xal", GPU: "pr", NPU1: "ncf", NPU2: "ncf"},
		{ID: "c1", CPU: "gcc", GPU: "sten", NPU1: "alex", NPU2: "dlrm"},
		{ID: "c2", CPU: "bw", GPU: "sten", NPU1: "ncf", NPU2: "ncf"},
		{ID: "c3", CPU: "mcf", GPU: "sten", NPU1: "sfrnn", NPU2: "sfrnn"},
		{ID: "cc1", CPU: "xal", GPU: "mm", NPU1: "alex", NPU2: "dlrm"},
		{ID: "cc2", CPU: "ray", GPU: "mm", NPU1: "alex", NPU2: "alex"},
		{ID: "cc3", CPU: "ray", GPU: "floyd", NPU1: "alex", NPU2: "alex"},
	}
}

// SampleScenarios returns a deterministic spread of n scenarios from the
// full space (every k-th scenario), used by the scaled default benches.
func SampleScenarios(n int) []Scenario {
	all := AllScenarios()
	if n <= 0 || n >= len(all) {
		return all
	}
	out := make([]Scenario, 0, n)
	step := float64(len(all)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, all[int(float64(i)*step)])
	}
	return out
}

// ScenarioChunkMix aggregates the Fig. 19(b) stream-chunk distribution of
// a scenario: the per-workload mixes weighted by request count.
func ScenarioChunkMix(sc Scenario, scale float64, seed uint64) workload.ChunkMix {
	var agg workload.ChunkMix
	total := 0
	for i, name := range sc.Workloads() {
		g, err := workload.ByName(name, scale, seed+uint64(i))
		if err != nil {
			panic(err)
		}
		m := workload.AnalyzeStreamChunks(g, 0)
		for k := range agg.Frac {
			agg.Frac[k] += m.Frac[k] * float64(m.Requests)
		}
		total += m.Requests
	}
	if total > 0 {
		for k := range agg.Frac {
			agg.Frac[k] /= float64(total)
		}
	}
	agg.Requests = total
	return agg
}
