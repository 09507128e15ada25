package core

import (
	"fmt"
	"testing"

	"unimem/internal/mem"
	"unimem/internal/meta"
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

// Every protection unit still gets its own EvWalk and EvMACFetch although
// the engine walks and looks up MACs once per line: a 4KB read is 64 units
// of 64B on 8 flat MAC lines; under a mixed 512B encoding its 15 units hold
// 15 compacted slots on 2 lines; at a static 512B granularity its 8 units
// hold one flat line each.
func TestEveryUnitEmitsItsEvents(t *testing.T) {
	var mixed512 meta.StreamPart
	for g := 0; g < 8; g++ {
		mixed512 |= meta.StreamPart(0x7f) << (uint(g) * 8)
	}
	for _, tc := range []struct {
		name           string
		scheme         Scheme
		opts           Options
		sp             meta.StreamPart
		walks, fetches uint64
		merges         uint64
	}{
		{name: "Conventional", scheme: Conventional, walks: 64, fetches: 8, merges: 56},
		{name: "512B-mixed", scheme: PerPartitionOracle, sp: mixed512, walks: 15, fetches: 2, merges: 13},
		{name: "static 512B", scheme: StaticDeviceBest, opts: Options{StaticGran: []meta.Gran{meta.Gran512}}, walks: 8, fetches: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := probe.NewCollector(1)
			tc.opts.Probe = c
			if tc.scheme == PerPartitionOracle {
				tbl := meta.NewTable()
				tbl.SetNext(0, tc.sp)
				tbl.CommitAll(0)
				tc.opts.FixedTable = tbl
			}
			r := newRig(tc.scheme, tc.opts)
			r.do(Request{Addr: 0, Size: 4096})
			r.do(Request{Addr: 0, Size: 4096}) // warm: first-level hits repeat
			s := c.Summary
			if s.Walks != 2*tc.walks || s.MACFetches != 2*tc.fetches || s.MACMerges != 2*tc.merges {
				t.Fatalf("%d walks, %d MAC fetches, %d merges; want %d, %d, %d",
					s.Walks, s.MACFetches, s.MACMerges, 2*tc.walks, 2*tc.fetches, 2*tc.merges)
			}
			if s.WalkLevels != r.en.Stats.WalkLevels {
				t.Fatalf("probe walk levels %d, engine %d", s.WalkLevels, r.en.Stats.WalkLevels)
			}
		})
	}
}
