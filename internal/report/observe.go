package report

import (
	"fmt"

	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/mem"
	"unimem/internal/probe"
	"unimem/internal/stats"
)

// Probe-backed extension experiments. Both read one sweep of the selected
// scenarios with Config.Collect, so every engine event is reduced into a
// probe.Summary, then print the distributions the paper argues with but
// flat end-of-run counters cannot show: the verification-path length
// histogram (Fig. 13) and the DRAM-traffic split by metadata type
// (Fig. 5). Their schemes are selectedSchemes: the conventional baseline,
// the paper's scheme, and the fully composed one.

// collectSelected merges each scheme's summaries over the collected sweep
// of the selected scenarios.
func collectSelected(o Options) map[core.Scheme]*probe.Summary {
	out := map[core.Scheme]*probe.Summary{}
	for _, s := range selectedSchemes {
		out[s] = &probe.Summary{}
	}
	for _, r := range sweep(o, hetero.SelectedScenarios(), selectedSchemes, true) {
		for _, s := range selectedSchemes {
			out[s].Merge(r.ByScheme[s].Raw.Probe)
		}
	}
	return out
}

// walkHistCols is the histogram width of the ext-walklen table; the 4GB
// geometry stores 9 tree levels, so longer walks cannot occur.
const walkHistCols = 10

// ExtWalkLen regenerates the Fig. 13-style verification-path analysis from
// probe events: the distribution of tree-walk lengths per scheme. Counter
// delegation (promoted units start their walk higher) and the subtree
// optimizations show up as mass moving toward short walks.
func ExtWalkLen(o Options) Figure {
	o = o.fill()
	sums := collectSelected(o)
	cols := []string{"scheme", "walks", "mean lv", "pruned %", "subtree %"}
	for l := 0; l < walkHistCols; l++ {
		cols = append(cols, fmt.Sprintf("L%d %%", l))
	}
	t := stats.NewTable(cols...)
	for _, s := range selectedSchemes {
		sum := sums[s]
		row := []interface{}{s.String(), sum.Walks, sum.MeanWalkLevels()}
		pct := func(v uint64) float64 {
			if sum.Walks == 0 {
				return 0
			}
			return 100 * float64(v) / float64(sum.Walks)
		}
		row = append(row, pct(sum.Pruned), pct(sum.SubtreeHits))
		for l := 0; l < walkHistCols; l++ {
			n := sum.WalkHist[l]
			if l == walkHistCols-1 {
				for i := walkHistCols; i <= probe.MaxWalkLevels; i++ {
					n += sum.WalkHist[i]
				}
			}
			row = append(row, pct(n))
		}
		t.Row(row...)
	}
	return Figure{
		ID:    "ext-walklen",
		Title: "extension: tree-walk length distribution per scheme (probe events, selected scenarios)",
		Table: t,
	}
}

// ExtBreakdown regenerates the Fig. 5-style DRAM-traffic split from probe
// events: bytes by metadata type, plus the switch-class totals the Table 2
// taxonomy charges them to.
func ExtBreakdown(o Options) Figure {
	o = o.fill()
	sums := collectSelected(o)
	t := stats.NewTable("scheme", "total MB", "data %", "mac %", "counter %", "gtable %", "switch %", "overfetch beats", "mac merges")
	for _, s := range selectedSchemes {
		sum := sums[s]
		t.Row(s.String(),
			float64(sum.TotalBytes())/1e6,
			100*sum.TrafficShare(mem.Data),
			100*sum.TrafficShare(mem.MAC),
			100*sum.TrafficShare(mem.Counter),
			100*sum.TrafficShare(mem.GranTable),
			100*sum.TrafficShare(mem.Switch),
			sum.OverfetchBeats,
			sum.MACMerges)
	}
	return Figure{
		ID:    "ext-breakdown",
		Title: "extension: DRAM traffic split by metadata type (probe events, selected scenarios)",
		Table: t,
	}
}
