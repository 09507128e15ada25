package core

import (
	"math"
	"testing"

	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/sim"
)

const regionBytes = 4 << 20 // 4MB: 128 chunks

type rig struct {
	se *sim.Engine
	mm *mem.Memory
	en *Engine
}

func newRig(s Scheme, opts Options) *rig {
	se := sim.NewEngine()
	mm := mem.New(se, mem.OrinConfig())
	return &rig{se: se, mm: mm, en: New(se, mm, regionBytes, s, opts)}
}

// do issues a request and runs the simulation until it completes,
// returning the completion time.
func (r *rig) do(req Request) sim.Time {
	var at sim.Time = -1
	r.en.Submit(req, func(t sim.Time) { at = t })
	r.se.RunAll()
	if at < 0 {
		panic("request never completed")
	}
	return at
}

func TestUnsecureOnlyDataTraffic(t *testing.T) {
	r := newRig(Unsecure, Options{})
	r.do(Request{Addr: 0, Size: 64})
	if r.mm.Stats.Reads[mem.Data] != 1 {
		t.Fatalf("data beats = %d, want 1", r.mm.Stats.Reads[mem.Data])
	}
	if r.mm.Stats.MetadataBytes() != 0 {
		t.Fatal("unsecure scheme produced metadata traffic")
	}
}

func TestConventionalColdReadFetchesMetadata(t *testing.T) {
	r := newRig(Conventional, Options{})
	r.do(Request{Addr: 0, Size: 64})
	s := &r.mm.Stats
	if s.Reads[mem.Data] != 1 {
		t.Fatalf("data beats = %d", s.Reads[mem.Data])
	}
	if s.Reads[mem.Counter] == 0 {
		t.Fatal("no counter traffic on cold read")
	}
	if s.Reads[mem.MAC] != 1 {
		t.Fatalf("MAC beats = %d, want 1", s.Reads[mem.MAC])
	}
	// Walk covers every stored level on a cold read.
	if int(r.en.Stats.WalkLevels) != r.en.Geometry().Levels() {
		t.Fatalf("walk levels = %d, want %d", r.en.Stats.WalkLevels, r.en.Geometry().Levels())
	}
}

func TestConventionalWarmReadHitsCaches(t *testing.T) {
	r := newRig(Conventional, Options{})
	r.do(Request{Addr: 0, Size: 64})
	ctr := r.mm.Stats.Reads[mem.Counter]
	mac := r.mm.Stats.Reads[mem.MAC]
	r.do(Request{Addr: 0, Size: 64})
	if r.mm.Stats.Reads[mem.Counter] != ctr || r.mm.Stats.Reads[mem.MAC] != mac {
		t.Fatal("warm read still fetched metadata")
	}
}

// TestSubmitQueuesOneEvent guards the join fold: mem returns a parallel
// fetch's completion time at issue, so the fetch schedules nothing. After
// Submit, a request whose fetches all join in parallel (a write, or a read
// whose walk hits) queues its retire alone, and a read whose walk misses
// queues the first fetch of its serialized chain alone.
func TestSubmitQueuesOneEvent(t *testing.T) {
	r := newRig(Ours, Options{})
	var retired sim.Time
	done := func(at sim.Time) { retired = at }
	for _, c := range []struct {
		name        string
		req         Request
		cold, chain bool
	}{
		{"cold read", Request{Addr: 0, Size: 64}, true, true},
		{"warm read", Request{Addr: 0, Size: 64}, false, false},
		{"cold write", Request{Addr: meta.ChunkSize, Size: 64, Write: true}, true, false},
	} {
		retired = -1
		metaBytes := r.mm.Stats.MetadataBytes()
		r.en.Submit(c.req, done)
		if n := r.se.Pending(); n != 1 {
			t.Fatalf("%s: %d events queued after Submit, want 1", c.name, n)
		}
		r.se.Step()
		if c.chain && retired >= 0 {
			t.Fatalf("%s: retired at the first event, want the chain's first fetch there", c.name)
		}
		if !c.chain && retired < 0 {
			t.Fatalf("%s: the one queued event was not the retire", c.name)
		}
		r.se.RunAll()
		if cold := r.mm.Stats.MetadataBytes() > metaBytes; cold != c.cold {
			t.Fatalf("%s: fetched metadata = %v, want %v", c.name, cold, c.cold)
		}
	}
}

func TestSecureReadSlowerThanUnsecure(t *testing.T) {
	u := newRig(Unsecure, Options{})
	c := newRig(Conventional, Options{})
	tu := u.do(Request{Addr: 0, Size: 64})
	tc := c.do(Request{Addr: 0, Size: 64})
	if tc <= tu {
		t.Fatalf("secure %d <= unsecure %d", tc, tu)
	}
}

func TestBulkFineVsCoarseMetadataTraffic(t *testing.T) {
	// A 32KB read: Conventional needs 64 counter lines (plus uppers) and
	// 64 MAC lines; a 32KB-promoted chunk under the oracle needs 1 + 1.
	conv := newRig(Conventional, Options{})
	conv.do(Request{Addr: 0, Size: meta.ChunkSize})
	fineCtr := conv.mm.Stats.Reads[mem.Counter]
	fineMAC := conv.mm.Stats.Reads[mem.MAC]
	if fineCtr < 64 || fineMAC != 64 {
		t.Fatalf("conventional bulk: ctr=%d mac=%d", fineCtr, fineMAC)
	}

	tbl := meta.NewTable()
	tbl.SetNext(0, meta.AllStream)
	tbl.CommitAll(0)
	ours := newRig(PerPartitionOracle, Options{FixedTable: tbl})
	ours.do(Request{Addr: 0, Size: meta.ChunkSize})
	coarseCtr := ours.mm.Stats.Reads[mem.Counter]
	coarseMAC := ours.mm.Stats.Reads[mem.MAC]
	if coarseCtr > 2 || coarseMAC != 1 {
		t.Fatalf("promoted bulk: ctr=%d mac=%d, want <=2 / 1", coarseCtr, coarseMAC)
	}
}

func TestPromotedWalkShorter(t *testing.T) {
	tbl := meta.NewTable()
	tbl.SetNext(0, meta.AllStream)
	tbl.CommitAll(0)
	r := newRig(PerPartitionOracle, Options{FixedTable: tbl})
	r.do(Request{Addr: 0, Size: meta.ChunkSize})
	if got, want := int(r.en.Stats.WalkLevels), r.en.Geometry().Levels()-meta.Gran32K.Level(); got != want {
		t.Fatalf("promoted walk levels = %d, want %d", got, want)
	}
}

func TestWriteWalksToRoot(t *testing.T) {
	r := newRig(Conventional, Options{})
	r.do(Request{Addr: 0, Size: 64, Write: true})
	if int(r.en.Stats.WalkLevels) != r.en.Geometry().Levels() {
		t.Fatalf("write walk levels = %d, want %d", r.en.Stats.WalkLevels, r.en.Geometry().Levels())
	}
	if r.mm.Stats.Writes[mem.Data] != 1 {
		t.Fatalf("data write beats = %d", r.mm.Stats.Writes[mem.Data])
	}
}

func TestDetectionPromotesAfterStreaming(t *testing.T) {
	r := newRig(Ours, Options{})
	// Stream the whole chunk once: the tracker entry fills and evicts,
	// detection writes AllStream into the table (as next).
	r.do(Request{Addr: 0, Size: meta.ChunkSize})
	if r.en.Table().Next(0) != meta.AllStream {
		t.Fatalf("next = %#x, want all-stream", uint64(r.en.Table().Next(0)))
	}
	if r.en.Stats.Detections == 0 {
		t.Fatal("no detections")
	}
	// The next access lazily commits the switch.
	r.do(Request{Addr: 0, Size: meta.ChunkSize})
	if r.en.Table().Current(0) != meta.AllStream {
		t.Fatal("lazy switch did not commit")
	}
}

func TestSwitchClassificationRAR(t *testing.T) {
	r := newRig(Ours, Options{})
	r.do(Request{Addr: 0, Size: meta.ChunkSize}) // read stream -> detection
	r.do(Request{Addr: 0, Size: meta.ChunkSize}) // read again -> scale-up RAR
	if r.en.Stats.Switches.UpRAR == 0 {
		t.Fatalf("switches = %+v, want RAR", r.en.Stats.Switches)
	}
	if r.en.Stats.Switches.MACUpLazy == 0 {
		t.Fatal("MAC scale-up not counted lazy")
	}
}

func TestSwitchClassificationWAR(t *testing.T) {
	r := newRig(Ours, Options{})
	r.do(Request{Addr: 0, Size: meta.ChunkSize})              // read stream
	r.do(Request{Addr: 0, Size: meta.ChunkSize, Write: true}) // write commits: WAR
	if r.en.Stats.Switches.UpWAR == 0 {
		t.Fatalf("switches = %+v, want WAR", r.en.Stats.Switches)
	}
}

func TestCorrectPredictionCounted(t *testing.T) {
	r := newRig(Ours, Options{})
	r.do(Request{Addr: 0, Size: 64})
	r.do(Request{Addr: 0, Size: 64})
	if r.en.Stats.Switches.Correct != 2 {
		t.Fatalf("correct = %d, want 2", r.en.Stats.Switches.Correct)
	}
}

func TestScaleDownChargesDataFetchForWrittenUnit(t *testing.T) {
	r := newRig(Ours, Options{})
	// Promote chunk 0 via streamed WRITE (marks partitions written).
	r.do(Request{Addr: 0, Size: meta.ChunkSize, Write: true})
	r.do(Request{Addr: 0, Size: meta.ChunkSize, Write: true}) // commits scale-up (WAW/WAR)
	// Two consecutive sparse windows: demotion requires confirmation
	// (two-strike hysteresis).
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			r.do(Request{Addr: uint64(i * 1536), Size: 64})
		}
		r.en.Finish()
	}
	before := r.mm.Stats.Reads[mem.Switch]
	r.do(Request{Addr: 0, Size: 64})
	if r.en.Stats.Switches.MACDownRW == 0 {
		t.Fatalf("switches = %+v, want MACDownRW", r.en.Stats.Switches)
	}
	if r.mm.Stats.Reads[mem.Switch] == before {
		t.Fatal("scale-down of written unit charged no data-chunk fetch")
	}
}

func TestOverfetchOnFineReadOfCoarseUnit(t *testing.T) {
	tbl := meta.NewTable()
	tbl.SetNext(0, meta.AllStream)
	tbl.CommitAll(0)
	tbl.SetNext(1, meta.AllStream)
	tbl.CommitAll(1)
	r := newRig(PerPartitionOracle, Options{FixedTable: tbl, OpenUnits: 1})
	// Write the whole unit first: written units cannot fall back to the
	// retained fine MACs, so a cold unaligned fine read must fetch the
	// unit. Touch another chunk in between to evict the open-unit entry.
	r.do(Request{Addr: 0, Size: meta.ChunkSize, Write: true})
	r.do(Request{Addr: meta.ChunkSize, Size: meta.ChunkSize})
	r.do(Request{Addr: 64, Size: 64})
	if r.en.Stats.OverfetchBeats == 0 {
		t.Fatal("fine read of written 32KB unit fetched no extra data")
	}
	if r.mm.Stats.Reads[mem.Data] != 2*meta.BlocksPerChunk {
		t.Fatalf("data beats = %d, want %d", r.mm.Stats.Reads[mem.Data], 2*meta.BlocksPerChunk)
	}
}

func TestFineMACFallbackOnReadOnlyUnit(t *testing.T) {
	// oracleRig serves chunk 0 as one never-written 32KB unit.
	oracleRig := func(p probe.Probe) *rig {
		tbl := meta.NewTable()
		tbl.SetNext(0, meta.AllStream)
		tbl.CommitAll(0)
		return newRig(PerPartitionOracle, Options{FixedTable: tbl, OpenUnits: 1, Probe: p})
	}
	r := oracleRig(nil)
	// Never-written unit: an unaligned fine read verifies against the
	// retained fine MAC instead of fetching the whole unit.
	r.do(Request{Addr: 64, Size: 64})
	if r.en.Stats.OverfetchBeats != 0 {
		t.Fatalf("read-only fine probe overfetched %d beats", r.en.Stats.OverfetchBeats)
	}
	if r.mm.Stats.Reads[mem.Data] != 1 {
		t.Fatalf("data beats = %d, want 1", r.mm.Stats.Reads[mem.Data])
	}
	if r.mm.Stats.Reads[mem.MAC] < 2 {
		t.Fatalf("MAC beats = %d, want coarse + retained fine", r.mm.Stats.Reads[mem.MAC])
	}

	// Blocks 0-7 share a MAC line, so block 1 cannot tell a block index
	// from a partition index. Block 9's retained fine MAC is Fig. 9 slot
	// 9, on the chunk's second MAC line; exactly one read must fetch it.
	var macReads []uint64
	r = oracleRig(probe.Func(func(e probe.Event) {
		if e.Kind == probe.EvMemRead && e.Class == uint8(mem.MAC) {
			macReads = append(macReads, e.Addr)
		}
	}))
	r.do(Request{Addr: 9 * meta.BlockSize, Size: 64})
	line := r.en.Geometry().MACLineAddr(0, 9)
	hits := 0
	for _, a := range macReads {
		if a == line {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("MAC reads %#x fetch block 9's fine-MAC line %#x %d times, want once", macReads, line, hits)
	}
}

func TestOpenUnitSuppressesRefetch(t *testing.T) {
	tbl := meta.NewTable()
	tbl.SetNext(0, meta.AllStream)
	tbl.CommitAll(0)
	r := newRig(PerPartitionOracle, Options{FixedTable: tbl})
	r.do(Request{Addr: 0, Size: 64}) // opens the unit (overfetch once)
	beats := r.mm.Stats.Reads[mem.Data]
	r.do(Request{Addr: 64, Size: 64})
	if got := r.mm.Stats.Reads[mem.Data]; got != beats+1 {
		t.Fatalf("second member read fetched %d beats, want 1", got-beats)
	}
}

func TestCommonCTRSharedLimit(t *testing.T) {
	r := newRig(CommonCTR, Options{})
	// Stream two chunks more than the shared-counter budget; only the
	// budget's worth gain shared counters.
	for c := uint64(0); c < sharedCounters+2; c++ {
		r.do(Request{Addr: c * meta.ChunkSize, Size: meta.ChunkSize})
	}
	if len(r.en.shared) != sharedCounters {
		t.Fatalf("shared chunks = %d, want %d", len(r.en.shared), sharedCounters)
	}
	// Shared chunks skip counter traffic on re-access; each of the
	// request's 64B counter units counts one shared hit.
	ctr, hits := r.mm.Stats.Reads[mem.Counter], r.en.Stats.SharedCTRHits
	r.do(Request{Addr: 0, Size: meta.ChunkSize})
	if r.mm.Stats.Reads[mem.Counter] != ctr {
		t.Fatal("shared-counter chunk still walked the tree")
	}
	if got := r.en.Stats.SharedCTRHits - hits; got != meta.BlocksPerChunk {
		t.Fatalf("shared hits = %d, want %d", got, meta.BlocksPerChunk)
	}
}

func TestStaticGranularityRMWPenalty(t *testing.T) {
	// Static 32KB granularity + a lone 64B write: read-modify-write of the
	// whole unit (the per-device-granularity drawback of Fig. 6).
	r := newRig(StaticDeviceBest, Options{StaticGran: []meta.Gran{meta.Gran32K}})
	r.do(Request{Device: 0, Addr: 128, Size: 64, Write: true})
	if r.mm.Stats.Reads[mem.Data] != meta.BlocksPerChunk {
		t.Fatalf("RMW read beats = %d, want %d", r.mm.Stats.Reads[mem.Data], meta.BlocksPerChunk)
	}
	if r.mm.Stats.Writes[mem.Data] != meta.BlocksPerChunk {
		t.Fatalf("RMW write beats = %d, want %d", r.mm.Stats.Writes[mem.Data], meta.BlocksPerChunk)
	}
	// A scheme without Spec.StaticGran ignores Options.StaticGran.
	c := newRig(Conventional, Options{StaticGran: []meta.Gran{meta.Gran32K}})
	c.do(Request{Device: 0, Addr: 128, Size: 64, Write: true})
	if c.mm.Stats.Reads[mem.Data] != 0 || c.mm.Stats.Writes[mem.Data] != 1 {
		t.Fatalf("Conventional data beats read %d / written %d, want 0 / 1",
			c.mm.Stats.Reads[mem.Data], c.mm.Stats.Writes[mem.Data])
	}
}

func TestCrossChunkRequestSplit(t *testing.T) {
	r := newRig(Conventional, Options{})
	r.do(Request{Addr: meta.ChunkSize - 64, Size: 128})
	if r.en.Stats.Requests != 2 {
		t.Fatalf("requests = %d, want 2 (split)", r.en.Stats.Requests)
	}
}

func TestAdaptiveDoubleStore(t *testing.T) {
	r := newRig(Adaptive, Options{})
	// Stream the whole chunk by writes: detection promotes the MAC side
	// (capped at 4KB for Adaptive), and subsequent coarse MAC updates
	// store both granularities.
	r.do(Request{Addr: 0, Size: meta.ChunkSize, Write: true})
	r.do(Request{Addr: 0, Size: meta.ChunkSize, Write: true}) // commit
	r.do(Request{Addr: 0, Size: meta.ChunkSize, Write: true}) // double store
	if r.mm.Stats.Writes[mem.MAC] == 0 {
		t.Fatal("adaptive wrote no MAC traffic")
	}
	// Counters stay fine-grained under Adaptive: full leaf coverage.
	if r.mm.Stats.Reads[mem.Counter] < 64 {
		t.Fatalf("adaptive counter beats = %d, want >= 64 (fixed 64B counters)",
			r.mm.Stats.Reads[mem.Counter])
	}
}

func TestSubtreeSchemeShortensWalks(t *testing.T) {
	plain := newRig(Conventional, Options{})
	bmf := newRig(BMFUnused, Options{})
	for i := 0; i < 50; i++ {
		// Chunk 0 gets written (instantiated); chunks 1-3 are only read and
		// stay pruned under PENGLAI-style unused-region handling.
		addr := uint64(i%4) * meta.ChunkSize
		plain.do(Request{Addr: addr, Size: 64, Write: i == 0})
		bmf.do(Request{Addr: addr, Size: 64, Write: i == 0})
	}
	if bmf.en.Stats.PrunedWalks == 0 {
		t.Fatal("unused pruning never triggered")
	}
	if bmf.en.Stats.WalkLevels >= plain.en.Stats.WalkLevels {
		t.Fatalf("subtree walks (%d) not shorter than conventional (%d)",
			bmf.en.Stats.WalkLevels, plain.en.Stats.WalkLevels)
	}
}

func TestMeanWalkLevels(t *testing.T) {
	r := newRig(Conventional, Options{})
	if r.en.MeanWalkLevels() != 0 {
		t.Fatal("idle mean walk nonzero")
	}
	r.do(Request{Addr: 0, Size: 64})
	if r.en.MeanWalkLevels() <= 0 {
		t.Fatal("mean walk not positive after request")
	}
}

func TestSecurityCacheMissesCounted(t *testing.T) {
	r := newRig(Ours, Options{})
	r.do(Request{Addr: 0, Size: 64})
	if r.en.SecurityCacheMisses() == 0 {
		t.Fatal("cold access produced no security cache misses")
	}
	if r.en.metaCache == nil || r.en.macCache == nil || r.en.gtCache == nil {
		t.Fatal("Ours runs without one of its three security caches")
	}
	if sum := r.en.metaCache.Stats.Misses + r.en.macCache.Stats.Misses + r.en.gtCache.Stats.Misses; sum != r.en.SecurityCacheMisses() {
		t.Fatalf("security-cache misses %d, the three caches miss %d", r.en.SecurityCacheMisses(), sum)
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range Schemes {
		if s.String() == "unknown" {
			t.Fatalf("scheme %d has no name", s)
		}
	}
	if Scheme(99).String() != "unknown" {
		t.Fatal("bogus scheme named")
	}
}

func TestHWCost(t *testing.T) {
	c := ComputeHWCost(12)
	// Section 4.5: 12 x 561 bits tracker + 64-bit buffer = 850B after
	// rounding: 6732+64 = 6796 bits = 849.5B -> 850B.
	if c.TrackerBits != 6732 {
		t.Fatalf("tracker bits = %d, want 6732", c.TrackerBits)
	}
	if c.TotalBytes != 850 {
		t.Fatalf("total = %dB, want 850B", c.TotalBytes)
	}
	if math.Abs(c.AreaOverheadPct-0.029) > 0.001 {
		t.Fatalf("area overhead = %.4f%%, want ~0.029%%", c.AreaOverheadPct)
	}
	if math.Abs(c.PowerOverheadPct-0.71) > 0.01 {
		t.Fatalf("power overhead = %.3f%%, want ~0.71%%", c.PowerOverheadPct)
	}
}

func TestSwitchStatsTotal(t *testing.T) {
	s := SwitchStats{DownAll: 1, UpWAR: 2, UpWAW: 3, UpRAR: 4, UpRAW: 5, Correct: 10}
	if s.Total() != 25 {
		t.Fatalf("total = %d, want 25", s.Total())
	}
}
