// Granularity walks through the dynamic detection machinery on a mixed
// access pattern: fine pointer chasing next to bulk streams, showing how
// the access tracker (paper Fig. 12 / Algorithm 1) classifies each region
// and what the protection pays per scheme.
package main

import (
	"fmt"

	"unimem"
)

func main() {
	p := unimem.NewProtected(4<<20, 1)
	buf := make([]byte, unimem.BlockSize)

	// Region A (chunk 0): strict streaming — every block in order.
	for a := uint64(0); a < unimem.ChunkSize; a += unimem.BlockSize {
		must(p.Write(a, buf))
	}
	// Region B (chunk 1): only the first 512B partition streams.
	for a := uint64(unimem.ChunkSize); a < unimem.ChunkSize+512; a += unimem.BlockSize {
		must(p.Write(a, buf))
	}
	// Region C (chunk 2): sparse pokes.
	for i := 0; i < 8; i++ {
		must(p.Write(uint64(2*unimem.ChunkSize+i*1536), buf))
	}
	// Flush tracker windows so the detections land.
	must(p.FlushDetection())

	fmt.Println("detected granularities (paper section 4.4):")
	fmt.Printf("  streamed chunk      : %v\n", p.GranOf(0))
	fmt.Printf("  streamed partition  : %v\n", p.GranOf(unimem.ChunkSize))
	fmt.Printf("  sparse partition    : %v\n", p.GranOf(2*unimem.ChunkSize+1536))

	// The same classification drives the timing engine; compare what two
	// schemes pay for an alex-like NPU workload.
	fmt.Println("\ntiming view (alex-like scenario cc2, scale 0.1):")
	cfg := unimem.SimConfig{Scale: 0.1, Seed: 3}
	sc := unimem.SelectedScenarios()[9] // cc2: ray+mm+alex+alex
	for _, s := range []unimem.Scheme{unimem.Conventional, unimem.Ours, unimem.BMFUnusedOurs} {
		n := unimem.RunNormalized(sc, s, cfg)
		fmt.Printf("  %-18v normalized exec %.3f, traffic %.3fx, %d detections\n",
			s, n.Mean, n.TrafficRatio, n.Raw.Detections)
	}

	hw := unimem.HWCost()
	fmt.Printf("\nhardware cost (paper section 4.5): %dB on-chip, %.3f%% area, %.2f%% power of an Orin-class SoC\n",
		hw.TotalBytes, hw.AreaOverheadPct, hw.PowerOverheadPct)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
