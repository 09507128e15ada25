package core

import (
	"fmt"
	"testing"

	"unimem/internal/mem"
	"unimem/internal/probe"
	"unimem/internal/tracker"
)

// TestProbeSummaryMatchesStats pins the accounting contract of the probe
// seam (observe.go): every engine counter with a probe event has an
// emission next to it, and every DRAM transaction goes through
// memRead/memWrite, so a Collector attached through Options.Probe reduces
// the event stream to exactly the engine's Stats and the memory's beat
// counts. It runs two switch-cycle batches of TestSubmitSteadyStateZeroAlloc
// under every scheme. Across the table the batch overfetches, walks the
// tree (pruned and subtree-hit walks included), routes detections and
// charges every Table 2 class, so a dropped probeOverfetch, probeWalk,
// probeSwitch or probeDetect, or a raw mem call, fails here directly
// rather than only through a hashed golden that an intended behaviour
// change would regenerate.
func TestProbeSummaryMatchesStats(t *testing.T) {
	type pair struct {
		name         string
		stats, probe uint64
	}
	exercised := map[string]bool{}
	for _, s := range Schemes {
		t.Run(s.String(), func(t *testing.T) {
			c := probe.NewCollector(2)
			r := newRig(s, Options{Tracker: tracker.Config{Entries: 4}, Probe: c})
			batch := switchCycleBatch(r)
			batch()
			batch()
			st, sw, sum := r.en.Stats, r.en.Stats.Switches, c.Summary
			pairs := []pair{
				{"Requests", st.Requests, sum.Requests},
				{"Reads", st.Reads, sum.Reads},
				{"Writes", st.Writes, sum.Writes},
				{"OverfetchBeats", st.OverfetchBeats, sum.OverfetchBeats},
				{"WalkLevels", st.WalkLevels, sum.WalkLevels},
				{"PrunedWalks", st.PrunedWalks, sum.Pruned},
				{"SubtreeHits", st.SubtreeHits, sum.SubtreeHits},
				{"Detections", st.Detections, sum.Detections},
				{"DownAll", sw.DownAll, sum.Switches[probe.SwDownAll]},
				{"UpWAR", sw.UpWAR, sum.Switches[probe.SwUpWAR]},
				{"UpWAW", sw.UpWAW, sum.Switches[probe.SwUpWAW]},
				{"UpRAR", sw.UpRAR, sum.Switches[probe.SwUpRAR]},
				{"UpRAW", sw.UpRAW, sum.Switches[probe.SwUpRAW]},
				{"MACDownRO", sw.MACDownRO, sum.Switches[probe.SwMACDownRO]},
				{"MACDownRW", sw.MACDownRW, sum.Switches[probe.SwMACDownRW]},
				{"MACUpLazy", sw.MACUpLazy, sum.Switches[probe.SwMACUpLazy]},
			}
			for k := mem.Kind(0); int(k) < probe.NumTrafficKinds; k++ {
				pairs = append(pairs,
					pair{fmt.Sprintf("%v read beats", k), r.mm.Stats.Reads[k], sum.Traffic[k].ReadBeats},
					pair{fmt.Sprintf("%v write beats", k), r.mm.Stats.Writes[k], sum.Traffic[k].WriteBeats})
			}
			for _, p := range pairs {
				if p.stats != p.probe {
					t.Errorf("%s: engine counted %d, probe summary %d", p.name, p.stats, p.probe)
				}
				if p.stats > 0 {
					exercised[p.name] = true
				}
			}
		})
	}
	for _, name := range []string{"OverfetchBeats", "WalkLevels", "PrunedWalks", "SubtreeHits", "Detections",
		"DownAll", "UpWAR", "UpWAW", "UpRAR", "UpRAW", "MACDownRO", "MACDownRW", "MACUpLazy"} {
		if !exercised[name] {
			t.Errorf("no scheme advanced %s: the batch no longer exercises its probe emission", name)
		}
	}
}
