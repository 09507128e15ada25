package core

import (
	"testing"

	"unimem/internal/check"
	"unimem/internal/meta"
	"unimem/internal/sim"
	"unimem/internal/tracker"
)

// TestSubmitSteadyStateZeroAlloc pins the probe-off hot path at zero
// allocations per request for every registered scheme. The engine pools its
// per-request continuation state (chunkOp/splitOp) and collects units, walk
// fetches, detections and MAC lines into reusable scratch, and policies must
// not allocate (see Policy), so once caches, maps, op pools and the event
// heap are warm, a steady-state Submit must not touch the heap. A
// regression here means a closure, boxing or append crept back into the
// pipeline or into one scheme's policy.
//
// The batch cycles every chunk through a promotion and a demotion, so the
// measured window charges each Table 2 switch class the scheme's traits
// allow; the test asserts that those classes advance, so the guard cannot
// quietly stop covering the switching paths.
func TestSubmitSteadyStateZeroAlloc(t *testing.T) {
	if check.Enabled {
		t.Skip("invariants build: armed assertions are allowed to allocate")
	}
	for _, s := range Schemes {
		t.Run(s.String(), func(t *testing.T) {
			// Four tracker entries let eight chunks evict each other's
			// windows (LRU), which delivers the fine-access detections.
			r := newRig(s, Options{Tracker: tracker.Config{Entries: 4}})
			batch := switchCycleBatch(r)
			// Op pools, per-op serial chains and maps keep growing for a
			// few batches; warm until one batch allocates nothing.
			for warm := 0; testing.AllocsPerRun(1, batch) != 0; warm++ {
				if warm == 100 {
					t.Fatal("Submit still allocates after 100 warmup batches")
				}
			}
			before := switchCounts(r.en.spec, r.en.Stats.Switches)
			if avg := testing.AllocsPerRun(10, batch); avg != 0 {
				t.Fatalf("steady-state Submit allocates %.2f times per batch, want 0", avg)
			}
			for class, n := range switchCounts(r.en.spec, r.en.Stats.Switches) {
				if n == before[class] {
					t.Errorf("switch class %s did not advance in the measured window", class)
				}
			}
		})
	}
}

// switchCycleBatch returns one batch of requests over eight chunks. Each
// chunk is streamed twice by an accelerator: the first stream fills a
// tracker window (a stream detection), the second commits the promotion.
// The chunk's role (index mod 4) picks the two streams' access types, so
// the batch covers read-after-read, read-after-write, write-after-read and
// write-after-write scale-ups; no other request touches a chunk between
// its two streams, which those classes need. Role 0 is never written, so
// its demotion is read-only. Three rounds of CPU probes then touch one block per chunk; the
// windows they leave refute the 32KB unit, and the second refuting window
// confirms a demotion that the next access commits.
func switchCycleBatch(r *rig) func() {
	const chunks = 8
	done := func(sim.Time) {}
	submit := func(dev int, addr uint64, size int, write bool) {
		r.en.Submit(Request{Device: dev, Addr: addr, Size: size, Write: write}, done)
	}
	return func() {
		for stream := 0; stream < 2; stream++ {
			for c := uint64(0); c < chunks; c++ {
				role := c % 4
				write := role == 3 || role == 1 && stream == 0 || role == 2 && stream == 1
				submit(1, c*meta.ChunkSize, meta.ChunkSize, write)
			}
		}
		for round := 0; round < 3; round++ {
			for c := uint64(0); c < chunks; c++ {
				base := c * meta.ChunkSize
				submit(0, base+320, meta.BlockSize, false)
				// A chunk-crossing request exercises the splitOp pool.
				if round == 0 && c > 0 {
					submit(1, base-meta.BlockSize, 2*meta.BlockSize, false)
				}
			}
		}
		r.se.RunAll()
	}
}

// switchCounts returns the Table 2 class counters a scheme with traits sp
// charges: none when switches are free or never happen, the counter side
// with MultiCTR, the MAC side with MultiMAC.
func switchCounts(sp Spec, s SwitchStats) map[string]uint64 {
	m := map[string]uint64{}
	if !sp.UseTable || sp.Oracle || sp.FreeSwitch {
		return m
	}
	if sp.MultiCTR {
		m["DownAll"], m["UpWAR"], m["UpWAW"], m["UpRAR"], m["UpRAW"] = s.DownAll, s.UpWAR, s.UpWAW, s.UpRAR, s.UpRAW
	}
	if sp.MultiMAC {
		m["MACDownRO"], m["MACDownRW"], m["MACUpLazy"] = s.MACDownRO, s.MACDownRW, s.MACUpLazy
	}
	return m
}
