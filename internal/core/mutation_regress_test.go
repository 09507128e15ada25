package core

// Regression tests pinning defects an mgmutate campaign proved invisible
// to the suite (see DESIGN.md, "Mutation testing"). Each test names the
// operator and site of the surviving mutant it kills.

import (
	"testing"

	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/sim"
)

// Kills the off-by-one mutants on Options.fill's default guards
// (engine.go): an explicit value of 1 sits exactly on the <=0 boundary
// and must survive filling, for every guarded field.
func TestOptionsFillPreservesExplicitValues(t *testing.T) {
	o := Options{Devices: 1, MetaCacheBytes: 1, OpenUnits: 1}
	o.fill()
	if o.Devices != 1 || o.MetaCacheBytes != 1 || o.OpenUnits != 1 {
		t.Fatalf("fill clobbered explicit values: %+v", o)
	}
	var zero Options
	zero.fill()
	if zero.Devices != 4 || zero.OpenUnits != 16 {
		t.Fatalf("fill defaults off: %+v", zero)
	}
}

// Kills the off-by-one mutant on chunkOp.child's join-time update
// (pipeline.go): a child completing exactly one tick after the current
// latest must advance the join time, and an earlier child must not move
// it back.
func TestChunkOpChildAdvancesJoinTime(t *testing.T) {
	r := newRig(Ours, Options{})
	op := r.en.getOp(Request{Size: 64}, func(sim.Time) {})
	op.slot()
	op.slot()
	op.slot()
	op.child(100)
	if op.latest != 100 {
		t.Fatalf("latest = %d after child(100), want 100", op.latest)
	}
	op.child(101)
	if op.latest != 101 {
		t.Fatalf("latest = %d, want 101: a child one tick later must move the join", op.latest)
	}
	op.child(50)
	if op.latest != 101 {
		t.Fatalf("latest = %d, want 101: an earlier child must not move the join back", op.latest)
	}
	if op.pending != 0 {
		t.Fatalf("pending = %d after all children, want 0", op.pending)
	}
}

// Kills the swap-ineq mutants on the per-device statistics guards
// (latency.go): a request from a device index one past Options.Devices
// completes and is counted only in the engine-wide statistics.
func TestRequestFromDevicePastRangeCompletes(t *testing.T) {
	r := newRig(Ours, Options{Devices: 2})
	r.do(Request{Device: 2, Addr: 0, Size: 64})
	if r.en.Stats.Requests != 1 {
		t.Fatalf("requests = %d, want 1", r.en.Stats.Requests)
	}
	for i := 0; i < 3; i++ {
		if d := r.en.DeviceStats(i); d != (DeviceStats{}) {
			t.Fatalf("device %d stats = %+v, want none", i, d)
		}
	}
}

// Kills the off-by-one mutant on the sub-unit write fetch (pipeline.go):
// a write one block short of its 512B unit over-fetches a single beat,
// and must still read the whole covering unit.
func TestSubUnitWriteOneBlockShortReadsUnit(t *testing.T) {
	r := newRig(StaticDeviceBest, Options{StaticGran: []meta.Gran{meta.Gran512}})
	r.do(Request{Addr: meta.BlockSize, Size: meta.PartitionSize - meta.BlockSize, Write: true})
	if got := r.mm.Stats.Reads[mem.Data]; got != meta.BlocksPerPartition {
		t.Fatalf("data read beats = %d, want %d (the covering 512B unit)", got, meta.BlocksPerPartition)
	}
}

// Kills the off-by-one mutant on splitOp.child's join-time update
// (pipeline.go): a chunk-crossing request completes with its latest
// chunk, also when that chunk finishes one tick after the previous latest.
func TestSplitOpChildAdvancesJoinTime(t *testing.T) {
	r := newRig(Ours, Options{})
	var at sim.Time = -1
	sp := r.en.getSplit(func(t sim.Time) { at = t })
	sp.pending = 3
	sp.child(100)
	sp.child(101)
	sp.sealed = true
	sp.child(50)
	if at != 101 {
		t.Fatalf("split completed at %d, want 101 (its latest chunk)", at)
	}
}

// Kills the unit-swap mutant on Submit's default size (pipeline.go): a
// request without a size moves one 64B block.
func TestZeroSizeRequestMovesOneBlock(t *testing.T) {
	r := newRig(Unsecure, Options{})
	r.do(Request{Addr: 0})
	if got := r.mm.Stats.Reads[mem.Data]; got != 1 {
		t.Fatalf("data beats = %d, want 1", got)
	}
}

// Kills the drop-window mutant on the misprediction demotion
// (pipeline.go): a cold unaligned write into a coarse unit demotes that
// unit from the current encoding. A promotion pending elsewhere in the
// chunk must not land with it: nothing has charged its switch.
func TestMispredictionDemotesFromCurrentEncoding(t *testing.T) {
	r := newRig(Ours, Options{})
	tb := r.en.Table()
	tb.SetNext(0, 0xff) // partitions 0-7: one 4KB unit
	tb.CommitAll(0)
	tb.SetNext(0, 0xffff) // partitions 8-15 promoted too, still pending
	r.do(Request{Addr: 2 * meta.BlockSize, Size: meta.BlockSize, Write: true})
	if g := tb.Current(0).GranOf(0); g != meta.Gran64 {
		t.Fatalf("mispredicted unit is %v, want demoted to 64B", g)
	}
	if g := tb.Current(0).GranOf(8); g != meta.Gran64 {
		t.Fatalf("partitions 8-15 are %v: the pending promotion landed with the demotion", g)
	}
}

// Kills the swap-ineq mutant in beatsOf (observe.go): the probe's beat
// count mirrors mem's rounding for every size, a non-positive one too.
func TestBeatsOfMirrorsMem(t *testing.T) {
	for _, size := range []int{-1, 0, 1, 64, 65, 4096} {
		se := sim.NewEngine()
		mm := mem.New(se, mem.OrinConfig())
		mm.Read(0, size, mem.Data, func(sim.Time) {})
		se.RunAll()
		if got, want := beatsOf(size), int(mm.Stats.Reads[mem.Data]); got != want {
			t.Errorf("beatsOf(%d) = %d, mem issued %d beats", size, got, want)
		}
	}
}

// Kills the swap-ineq mutant in partMask (pipeline.go): the partition
// holding the last byte of a span must be part of the mask.
func TestPartMaskCoversLastPartition(t *testing.T) {
	if got := partMask(0, 0, meta.PartitionSize); got != 0b1 {
		t.Fatalf("partMask one partition = %#b, want 0b1", got)
	}
	if got := partMask(0, 0, 2*meta.PartitionSize); got != 0b11 {
		t.Fatalf("partMask two partitions = %#b, want 0b11", got)
	}
	if got := partMask(0, meta.PartitionSize-64, 128); got != 0b11 {
		t.Fatalf("partMask straddling span = %#b, want 0b11", got)
	}
}

// Kills the unit-swap mutant on the MACDownRW data-fetch base
// (switching.go): demoting a written sub-chunk coarse unit must fetch
// that unit's own bytes, not an address scaled past the chunk. The
// scenario promotes only the second 4KB group of chunk 0 so the unit
// base block is nonzero — a whole-chunk unit has base 0 and hides any
// base-scaling defect.
func TestScaleDownFetchStaysInsideChunk(t *testing.T) {
	var captured []probe.Event
	armed := false
	pr := probe.Func(func(ev probe.Event) {
		if armed && ev.Kind == probe.EvMemRead && mem.Kind(ev.Class) == mem.Switch {
			captured = append(captured, ev)
		}
	})
	se := sim.NewEngine()
	mm := mem.New(se, mem.OrinConfig())
	en := New(se, mm, regionBytes, Ours, Options{Probe: pr})
	do := func(req Request) {
		t.Helper()
		done := false
		en.Submit(req, func(sim.Time) { done = true })
		se.RunAll()
		if !done {
			t.Fatalf("request %+v never completed", req)
		}
	}

	// Stream-write one 4KB unit at offset 4KB; the flush turns the
	// window into a detection (next = coarse group 1), the second write
	// commits the scale-up lazily.
	do(Request{Addr: 4096, Size: 4096, Write: true})
	en.Finish()
	if g := en.Table().Next(0).GranOf(8); g != meta.Gran4K {
		t.Fatalf("detected gran = %v, want Gran4K", g)
	}
	do(Request{Addr: 4096, Size: 4096, Write: true})
	en.Finish()
	if g := en.Table().Current(0).GranOf(8); g != meta.Gran4K {
		t.Fatalf("committed gran = %v, want Gran4K", g)
	}

	// Two sparse windows into the unit confirm the demotion
	// (two-strike hysteresis).
	for round := 0; round < 2; round++ {
		for _, a := range []uint64{4608, 6144, 7680} {
			do(Request{Addr: a, Size: 64})
		}
		en.Finish()
	}
	if g := en.Table().Next(0).GranOf(8); g != meta.Gran64 {
		t.Fatalf("demotion not pending: next gran = %v", g)
	}

	armed = true
	do(Request{Addr: 4096, Size: 64})
	if en.Stats.Switches.MACDownRW == 0 {
		t.Fatalf("switches = %+v, want MACDownRW", en.Stats.Switches)
	}
	if len(captured) == 0 {
		t.Fatal("demoting a written unit charged no switch fetch")
	}
	for _, ev := range captured {
		if ev.Addr+uint64(ev.Size) > meta.ChunkSize {
			t.Fatalf("switch fetch [%#x,+%d) escapes chunk 0", ev.Addr, ev.Size)
		}
	}
}
