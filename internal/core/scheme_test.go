package core

import (
	"testing"

	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/sim"
)

// TestRegistryDriftGuard keeps the scheme constants and the registry in
// lock-step: every Scheme constant below nSchemes must have a registry row
// with a unique non-empty name and unit rules on both metadata sides,
// Schemes must enumerate exactly the registered constants, and String must
// agree with the row. A missing row is a test failure here, not a runtime
// panic.
func TestRegistryDriftGuard(t *testing.T) {
	if len(Schemes) != int(nSchemes) {
		t.Fatalf("Schemes lists %d schemes, constants declare %d", len(Schemes), int(nSchemes))
	}
	seen := map[string]Scheme{}
	for i, s := range Schemes {
		if s != Scheme(i) {
			t.Errorf("Schemes[%d] = %v, want constant order", i, s)
		}
		ent := registry[s]
		if ent.name == "" {
			t.Errorf("scheme constant %d has no registry name", int(s))
			continue
		}
		if ent.ctr == (granRule{}) || ent.mac == (granRule{}) {
			t.Errorf("%s lacks a counter- or MAC-side unit rule", ent.name)
			continue
		}
		if got := s.String(); got != ent.name {
			t.Errorf("Scheme(%d).String() = %q, registry says %q", int(s), got, ent.name)
		}
		if prev, dup := seen[ent.name]; dup {
			t.Errorf("name %q registered for both %v and %v", ent.name, prev, s)
		}
		seen[ent.name] = s
	}
	if Scheme(-1).String() != "unknown" || nSchemes.String() != "unknown" {
		t.Error("out-of-range Scheme.String() should be \"unknown\"")
	}
	if Scheme(-1).IsExtension() || nSchemes.IsExtension() {
		t.Error("out-of-range schemes must not report as extensions")
	}
	if !MGXVersioned.IsExtension() {
		t.Error("MGXVersioned should be flagged as an extension")
	}
	if Ours.IsExtension() || Conventional.IsExtension() {
		t.Error("paper schemes must not be flagged as extensions")
	}
}

// TestSpecMatrix pins the registry row of every scheme — its trait sheet
// and its counter- and MAC-side unit rules: changing a row must be a
// deliberate act.
func TestSpecMatrix(t *testing.T) {
	cases := []struct {
		s        Scheme
		want     Spec
		ctr, mac granRule
	}{
		{Unsecure, Spec{}, fixed64, fixed64},
		{Conventional, Spec{Protect: true}, fixed64, fixed64},
		{StaticDeviceBest, Spec{Protect: true, StaticGran: true}, fixed64, fixed64},
		{MultiCTROnly, Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true}, table32K, fixed64},
		{Ours, Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true}, table32K, table32K},
		{Adaptive, Spec{Protect: true, UseTable: true, Detect: true, MultiMAC: true, DoubleStore: true}, fixed64, table4K},
		{CommonCTR, Spec{Protect: true, UseTable: true, Detect: true, DualOnly: true, Counters: CountersShared}, fixed64, fixed64},
		{BMFUnused, Spec{Protect: true, Subtree: true}, fixed64, fixed64},
		{BMFUnusedOurs, Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, Subtree: true}, table32K, table32K},
		{OursDual, Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, DualOnly: true}, table32K, table32K},
		{OursNoSwitch, Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true}, table32K, table32K},
		{BMFUnusedOursNoSwitch, Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true, Subtree: true}, table32K, table32K},
		{PerPartitionOracle, Spec{Protect: true, UseTable: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true, Oracle: true}, table32K, table32K},
		{MACOnly, Spec{Protect: true, Counters: CountersNone}, fixed64, fixed64},
		{MGXVersioned, Spec{Protect: true, Counters: CountersCPUTree}, fixed64, fixed64},
	}
	for _, c := range cases {
		if got := SchemeSpec(c.s); got != c.want {
			t.Errorf("%v spec = %+v, want %+v", c.s, got, c.want)
		}
		if row := registry[c.s]; row.ctr != c.ctr || row.mac != c.mac {
			t.Errorf("%v rules = %+v/%+v, want %+v/%+v", c.s, row.ctr, row.mac, c.ctr, c.mac)
		}
	}
	if len(cases) != len(Schemes) {
		t.Fatalf("spec matrix covers %d schemes, registry has %d", len(cases), len(Schemes))
	}
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SchemeSpec(nSchemes) did not panic")
		}
	}()
	SchemeSpec(nSchemes)
}

// TestEverySchemeServesBulkAndFine drives every scheme through a mixed
// request pattern and checks basic conservation: all requests complete,
// data read beats at least cover the requested bytes, and protected
// schemes move metadata.
func TestEverySchemeServesBulkAndFine(t *testing.T) {
	for _, s := range Schemes {
		opts := Options{}
		if s == StaticDeviceBest {
			opts.StaticGran = []meta.Gran{meta.Gran4K}
		}
		r := newRig(s, opts)
		reqs := []Request{
			{Addr: 0, Size: meta.ChunkSize},              // bulk read
			{Addr: 0, Size: meta.ChunkSize, Write: true}, // bulk write
			{Addr: 64, Size: 64},                         // fine read
			{Addr: meta.ChunkSize + 512, Size: 64, Write: true},
			{Addr: 2*meta.ChunkSize - 64, Size: 128}, // crosses chunks
		}
		done := 0
		for _, req := range reqs {
			r.en.Submit(req, func(sim.Time) { done++ })
		}
		r.se.RunAll()
		if done != len(reqs) {
			t.Errorf("%v: %d/%d requests completed", s, done, len(reqs))
		}
		wantBeats := uint64((meta.ChunkSize + 64 + 128) / 64)
		if got := r.mm.Stats.Reads[mem.Data]; got < wantBeats {
			t.Errorf("%v: data read beats %d < requested %d", s, got, wantBeats)
		}
		if s != Unsecure && r.mm.Stats.MetadataBytes() == 0 {
			t.Errorf("%v: protected scheme moved no metadata", s)
		}
		if s == Unsecure && r.mm.Stats.MetadataBytes() != 0 {
			t.Errorf("unsecure moved metadata")
		}
	}
}

// TestWalkDepthPerGranularity pins Eq. 2: the promoted start level prunes
// exactly gran.Level() levels off a cold walk.
func TestWalkDepthPerGranularity(t *testing.T) {
	for _, g := range meta.Grans {
		tbl := meta.NewTable()
		var sp meta.StreamPart
		switch g {
		case meta.Gran64:
			sp = 0
		case meta.Gran512:
			sp = meta.StreamPart(0b1)
		case meta.Gran4K:
			sp = meta.StreamPart(0xff)
		case meta.Gran32K:
			sp = meta.AllStream
		}
		tbl.SetNext(0, sp)
		tbl.CommitAll(0)
		r := newRig(PerPartitionOracle, Options{FixedTable: tbl})
		r.do(Request{Addr: 0, Size: int(g.Bytes())})
		want := r.en.Geometry().Levels() - g.Level()
		if got := int(r.en.Stats.WalkLevels); got != want {
			t.Errorf("%v: cold walk %d levels, want %d", g, got, want)
		}
	}
}

// TestMACLinesPerGranularity pins the Fig. 9 compaction: reading the
// first 4KB of a chunk touches 8 MAC lines fine-grained, 2 lines under
// the mixed 512B encoding (7 coarse + 8 fine slots), and 1 line at
// 4KB or 32KB granularity.
func TestMACLinesPerGranularity(t *testing.T) {
	// 0x7f per group: partitions 0-6 stream (512B units), partition 7 fine.
	var mixed512 meta.StreamPart
	for g := 0; g < 8; g++ {
		mixed512 |= meta.StreamPart(0x7f) << (uint(g) * 8)
	}
	cases := []struct {
		name  string
		sp    meta.StreamPart
		lines uint64
	}{
		{"fine", 0, 8},              // 64 fine slots = 8 lines
		{"512B-mixed", mixed512, 2}, // 15 slots = 2 lines
		{"4KB", meta.StreamPart(0xff), 1},
		{"32KB", meta.AllStream, 1},
	}
	for _, c := range cases {
		tbl := meta.NewTable()
		tbl.SetNext(0, c.sp)
		tbl.CommitAll(0)
		r := newRig(PerPartitionOracle, Options{FixedTable: tbl})
		r.do(Request{Addr: 0, Size: 4096})
		if got := r.mm.Stats.Reads[mem.MAC]; got != c.lines {
			t.Errorf("%s: MAC lines %d, want %d", c.name, got, c.lines)
		}
	}
}
