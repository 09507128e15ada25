package probe

import (
	"strings"
	"testing"

	"unimem/internal/mem"
	"unimem/internal/sim"
)

// countProbe records how many events it saw (test helper).
type countProbe struct{ n int }

func (c *countProbe) Event(Event) { c.n++ }

func TestMultiDropsNilAndUnwraps(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() of nothing must be nil (keeps the disabled fast path)")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) must be nil")
	}
	a := &countProbe{}
	if got := Multi(nil, a, nil); got != Probe(a) {
		t.Fatalf("single survivor must be unwrapped, got %T", got)
	}
	b := &countProbe{}
	m := Multi(a, nil, b)
	m.Event(Event{Kind: EvIssue})
	m.Event(Event{Kind: EvRetire})
	if a.n != 2 || b.n != 2 {
		t.Fatalf("fan-out mismatch: a=%d b=%d, want 2/2", a.n, b.n)
	}
}

func TestKindLabelsAreStableAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < nKinds; k++ {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Fatalf("kind %d has no label", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind label %q", s)
		}
		seen[s] = true
	}
	for c := CacheKind(0); c < nCacheKinds; c++ {
		if c.String() == "unknown" {
			t.Fatalf("cache kind %d has no label", c)
		}
	}
	for s := SwitchClass(0); s < nSwitchClasses; s++ {
		if s.String() == "unknown" {
			t.Fatalf("switch class %d has no label", s)
		}
	}
}

func TestClassLabelByKind(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: EvMemRead, Class: uint8(mem.Counter)}, "counter"},
		{Event{Kind: EvMemWrite, Class: uint8(mem.MAC)}, "mac"},
		{Event{Kind: EvCache, Class: uint8(CacheGT)}, "gtcache"},
		{Event{Kind: EvSwitch, Class: uint8(SwUpRAW)}, "up-raw"},
		{Event{Kind: EvIssue, Class: 3}, ""},
		{Event{Kind: EvWalk, Class: WalkPruned}, ""},
	}
	for _, c := range cases {
		if got := c.e.ClassLabel(); got != c.want {
			t.Errorf("ClassLabel(%v/%d) = %q, want %q", c.e.Kind, c.e.Class, got, c.want)
		}
	}
}

func TestCollectorReducesEveryKind(t *testing.T) {
	c := NewCollector(2)
	feed := []Event{
		{Kind: EvIssue, Device: 0, Write: false},
		{Kind: EvIssue, Device: 1, Write: true},
		{Kind: EvIssue, Device: 1, Write: false},
		{Kind: EvRetire, Device: 0, Val: 1_500_000},              // 1500ns read
		{Kind: EvRetire, Device: 1, Write: true, Val: 9_000_000}, // writes don't histogram
		{Kind: EvWalk, Device: 0, Val: 3, Aux: 1},
		{Kind: EvWalk, Device: 0, Val: 0, Class: WalkPruned},
		{Kind: EvWalk, Device: 1, Val: 2, Aux: 2, Class: WalkSubtree},
		{Kind: EvCache, Class: uint8(CacheGT), Val: 1},
		{Kind: EvCache, Class: uint8(CacheGT), Val: 0},
		{Kind: EvCache, Class: uint8(CacheOpenUnit), Val: 1},
		{Kind: EvMACFetch, Val: 0},
		{Kind: EvMACFetch, Val: 1},
		{Kind: EvMACFetch, Val: 1},
		{Kind: EvSwitch, Class: uint8(SwUpWAR)},
		{Kind: EvSwitch, Class: uint8(SwMACDownRW)},
		{Kind: EvOverfetch, Val: 7},
		{Kind: EvMemRead, Class: uint8(mem.Data), Val: 4},
		{Kind: EvMemWrite, Class: uint8(mem.Counter), Val: 2},
	}
	for _, e := range feed {
		c.Event(e)
	}
	s := &c.Summary

	if s.Events != uint64(len(feed)) {
		t.Errorf("Events = %d, want %d", s.Events, len(feed))
	}
	if s.Requests != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Errorf("requests/reads/writes = %d/%d/%d, want 3/2/1", s.Requests, s.Reads, s.Writes)
	}
	if s.PerDevice[0].Requests != 1 || s.PerDevice[1].Requests != 2 {
		t.Errorf("per-device requests = %d/%d, want 1/2", s.PerDevice[0].Requests, s.PerDevice[1].Requests)
	}
	if s.Walks != 3 || s.WalkLevels != 5 || s.WalkMisses != 3 {
		t.Errorf("walks/levels/misses = %d/%d/%d, want 3/5/3", s.Walks, s.WalkLevels, s.WalkMisses)
	}
	if s.WalkHist[0] != 1 || s.WalkHist[2] != 1 || s.WalkHist[3] != 1 {
		t.Errorf("walk histogram %v misplaced", s.WalkHist[:4])
	}
	if s.Pruned != 1 || s.SubtreeHits != 1 {
		t.Errorf("pruned/subtree = %d/%d, want 1/1", s.Pruned, s.SubtreeHits)
	}
	// Meta cache: 5 levels touched, 3 missed.
	if m := s.Caches[CacheMeta]; m.Hits != 2 || m.Misses != 3 {
		t.Errorf("meta cache = %+v, want 2 hits / 3 misses", m)
	}
	if g := s.Caches[CacheGT]; g.Hits != 1 || g.Misses != 1 {
		t.Errorf("gt cache = %+v, want 1/1", g)
	}
	if s.MACFetches != 1 || s.MACMerges != 2 {
		t.Errorf("mac fetch/merge = %d/%d, want 1/2", s.MACFetches, s.MACMerges)
	}
	if s.Switches[SwUpWAR] != 1 || s.Switches[SwMACDownRW] != 1 || s.SwitchTotal() != 2 {
		t.Errorf("switch classes %v wrong", s.Switches)
	}
	if s.OverfetchBeats != 7 {
		t.Errorf("overfetch = %d, want 7", s.OverfetchBeats)
	}
	if s.Traffic[mem.Data].ReadBeats != 4 || s.Traffic[mem.Counter].WriteBeats != 2 {
		t.Errorf("traffic %v wrong", s.Traffic)
	}
	if got := s.TotalBytes(); got != 6*mem.BlockSize {
		t.Errorf("TotalBytes = %d, want %d", got, 6*mem.BlockSize)
	}
	if got := s.TrafficBytes(mem.Data); got != 4*mem.BlockSize {
		t.Errorf("TrafficBytes(data) = %d, want %d", got, 4*mem.BlockSize)
	}
	if got := s.TrafficShare(mem.Counter); got != 2.0/6.0 {
		t.Errorf("TrafficShare(counter) = %v, want 1/3", got)
	}
	if got := s.MeanWalkLevels(); got != 5.0/3.0 {
		t.Errorf("MeanWalkLevels = %v, want 5/3", got)
	}
	// 1500ns lands in bucket [1024, 2048) -> percentile upper bound 2048.
	if got := s.LatencyHist.Percentile(50); got != 2048 {
		t.Errorf("LatencyHist.Percentile(50) = %d, want 2048", got)
	}
}

func TestCollectorToleratesStrayDeviceAndClass(t *testing.T) {
	c := NewCollector(1)
	c.Event(Event{Kind: EvIssue, Device: 7})                      // grows
	c.Event(Event{Kind: EvIssue, Device: -3})                     // clamps to 0
	c.Event(Event{Kind: EvCache, Class: 200, Val: 1})             // ignored
	c.Event(Event{Kind: EvSwitch, Class: 200})                    // ignored
	c.Event(Event{Kind: EvMemRead, Class: 200, Val: 5})           // ignored
	c.Event(Event{Kind: EvWalk, Val: MaxWalkLevels + 10, Aux: 0}) // clamps bucket
	if len(c.PerDevice) != 8 || c.PerDevice[7].Requests != 1 || c.PerDevice[0].Requests != 1 {
		t.Fatalf("device growth wrong: %v", c.PerDevice)
	}
	if c.SwitchTotal() != 0 || c.TotalBytes() != 0 {
		t.Fatal("out-of-range classes must be ignored")
	}
	if c.WalkHist[MaxWalkLevels] != 1 {
		t.Fatal("over-long walk must land in the last bucket")
	}
}

func TestSummaryMerge(t *testing.T) {
	a, b := NewCollector(1), NewCollector(3)
	for _, e := range []Event{
		{Kind: EvIssue, Device: 0},
		{Kind: EvWalk, Val: 2, Aux: 1},
		{Kind: EvMemRead, Class: uint8(mem.MAC), Val: 3},
	} {
		a.Event(e)
	}
	for _, e := range []Event{
		{Kind: EvIssue, Device: 2, Write: true},
		{Kind: EvWalk, Val: 4, Aux: 0, Class: WalkSubtree},
		{Kind: EvMemWrite, Class: uint8(mem.MAC), Val: 1},
		{Kind: EvOverfetch, Val: 2},
	} {
		b.Event(e)
	}
	var m Summary
	m.Merge(&a.Summary)
	m.Merge(&b.Summary)
	if m.Requests != 2 || m.Reads != 1 || m.Writes != 1 {
		t.Errorf("merged requests = %d/%d/%d", m.Requests, m.Reads, m.Writes)
	}
	if m.Walks != 2 || m.WalkLevels != 6 || m.SubtreeHits != 1 {
		t.Errorf("merged walks = %d/%d/%d", m.Walks, m.WalkLevels, m.SubtreeHits)
	}
	if m.Traffic[mem.MAC].ReadBeats != 3 || m.Traffic[mem.MAC].WriteBeats != 1 {
		t.Errorf("merged traffic = %+v", m.Traffic[mem.MAC])
	}
	if m.OverfetchBeats != 2 || m.Events != 7 {
		t.Errorf("merged overfetch/events = %d/%d", m.OverfetchBeats, m.Events)
	}
	if len(m.PerDevice) != 3 || m.PerDevice[0].Requests != 1 || m.PerDevice[2].Requests != 1 {
		t.Errorf("merged per-device = %v", m.PerDevice)
	}
}

func TestLatencyHistogramBuckets(t *testing.T) {
	cases := []struct {
		ps   sim.Time
		want int
	}{
		{-5, 0}, {0, 0}, {999, 0}, {1000, 1}, {1999, 1}, {2000, 2},
		{1_000_000, 10}, {1 << 62, LatencyBuckets - 1},
	}
	for _, c := range cases {
		var h LatencyHistogram
		h.Add(c.ps)
		if h[c.want] != 1 || h.Total() != 1 {
			t.Errorf("Add(%d) filled %v, want bucket %d", c.ps, h, c.want)
		}
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Event(Event{Kind: EvIssue, Addr: uint64(i)})
	}
	if tr.Len() != 3 || tr.Seen() != 5 {
		t.Fatalf("len/seen = %d/%d, want 3/5", tr.Len(), tr.Seen())
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.Addr != uint64(i+2) {
			t.Fatalf("event %d has addr %d, want %d (oldest-first tail)", i, e.Addr, i+2)
		}
	}
	// Events() must return a copy, not the ring's backing array.
	evs[0].Addr = 999
	if tr.Events()[0].Addr == 999 {
		t.Fatal("Events() must copy the retained events")
	}
}

func TestTraceCapacityFloor(t *testing.T) {
	tr := NewTrace(0)
	tr.Event(Event{Addr: 1})
	tr.Event(Event{Addr: 2})
	if tr.Len() != 1 || tr.Events()[0].Addr != 2 {
		t.Fatalf("capacity floor of 1 must retain only the newest event")
	}
}

func TestTraceCSVGlobalSequence(t *testing.T) {
	tr := NewTrace(2)
	for i := 0; i < 4; i++ {
		tr.Event(Event{At: sim.Time(10 * i), Kind: EvMemRead, Device: 1,
			Addr: 0x40, Size: 64, Class: uint8(mem.Data), Val: 1})
	}
	var sb strings.Builder
	if err := tr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), sb.String())
	}
	if lines[0] != csvHeader {
		t.Fatalf("header = %q", lines[0])
	}
	// Two events were dropped: retained rows keep global sequence 3 and 4.
	if !strings.HasPrefix(lines[1], "3,20,memrd,1,0x40,64,0,data,1,0") ||
		!strings.HasPrefix(lines[2], "4,30,") {
		t.Fatalf("rows lost their global sequence:\n%s", sb.String())
	}
}
