package mem

import (
	"math"
	"math/rand"
	"testing"

	"unimem/internal/sim"
)

func newTestMem() (*sim.Engine, *Memory) {
	eng := sim.NewEngine()
	return eng, New(eng, Config{Channels: 2, SlotPs: 1000, LatencyPs: 5000})
}

func TestSingleReadLatency(t *testing.T) {
	eng, m := newTestMem()
	var doneAt sim.Time
	m.Read(0, 64, Data, func(at sim.Time) { doneAt = at })
	eng.RunAll()
	// slot (1000) + latency (5000)
	if doneAt != 6000 {
		t.Fatalf("doneAt = %d, want 6000", doneAt)
	}
}

func TestChannelInterleaving(t *testing.T) {
	eng, m := newTestMem()
	var a, b sim.Time
	// addr 0 -> channel 0, addr 64 -> channel 1: fully parallel.
	m.Read(0, 64, Data, func(at sim.Time) { a = at })
	m.Read(64, 64, Data, func(at sim.Time) { b = at })
	eng.RunAll()
	if a != 6000 || b != 6000 {
		t.Fatalf("parallel channels: a=%d b=%d, want both 6000", a, b)
	}
}

func TestSameChannelSerializes(t *testing.T) {
	eng, m := newTestMem()
	var a, b sim.Time
	// addr 0 and 128 both map to channel 0 with 2 channels.
	m.Read(0, 64, Data, func(at sim.Time) { a = at })
	m.Read(128, 64, Data, func(at sim.Time) { b = at })
	eng.RunAll()
	if a != 6000 {
		t.Fatalf("a = %d, want 6000", a)
	}
	if b != 7000 { // queued behind the first beat
		t.Fatalf("b = %d, want 7000", b)
	}
}

func TestBurstSpansChannels(t *testing.T) {
	eng, m := newTestMem()
	var doneAt sim.Time
	// 256B = 4 beats over 2 channels = 2 serial beats per channel.
	m.Read(0, 256, Data, func(at sim.Time) { doneAt = at })
	eng.RunAll()
	if doneAt != 7000 { // 2 slots + latency
		t.Fatalf("doneAt = %d, want 7000", doneAt)
	}
	if m.Stats.Reads[Data] != 4 {
		t.Fatalf("beats = %d, want 4", m.Stats.Reads[Data])
	}
}

func TestSizeRoundsUp(t *testing.T) {
	eng, m := newTestMem()
	m.Read(0, 1, Data, nil)
	m.Read(0, 65, Data, nil)
	eng.RunAll()
	if m.Stats.Reads[Data] != 3 { // 1 + 2 beats
		t.Fatalf("beats = %d, want 3", m.Stats.Reads[Data])
	}
}

func TestWriteAccounting(t *testing.T) {
	eng, m := newTestMem()
	m.Write(0, 128, MAC, nil)
	eng.RunAll()
	if m.Stats.Writes[MAC] != 2 {
		t.Fatalf("MAC write beats = %d, want 2", m.Stats.Writes[MAC])
	}
	if got := m.Stats.BytesKind(MAC); got != 128 {
		t.Fatalf("MAC bytes = %d, want 128", got)
	}
	if got := m.Stats.MetadataBytes(); got != 128 {
		t.Fatalf("metadata bytes = %d, want 128", got)
	}
}

func TestQueueingDelayUnderLoad(t *testing.T) {
	eng, m := newTestMem()
	const n = 100
	var last sim.Time
	for i := 0; i < n; i++ {
		// all on channel 0
		m.Read(uint64(i)*128, 64, Data, func(at sim.Time) { last = at })
	}
	eng.RunAll()
	// n serial slots + latency
	want := sim.Time(n*1000 + 5000)
	if last != want {
		t.Fatalf("last = %d, want %d", last, want)
	}
	if m.Stats.BusyPs != n*1000 {
		t.Fatalf("busy = %d, want %d", m.Stats.BusyPs, n*1000)
	}
}

// TestOrinBandwidth: a long burst on the Table 3 configuration streams at
// 17 GB/s once the fixed latency is paid.
func TestOrinBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	cfg := OrinConfig()
	m := New(eng, cfg)
	const bytes = 1 << 20
	var doneAt sim.Time
	m.Read(0, bytes, Data, func(at sim.Time) { doneAt = at })
	eng.RunAll()
	bw := bytes / (float64(doneAt-sim.Time(cfg.LatencyPs)) * 1e-12)
	if math.Abs(bw-17e9)/17e9 > 0.01 {
		t.Fatalf("Orin bandwidth = %.3g, want ~17e9 within 1%%", bw)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{Data: "data", Counter: "counter", MAC: "mac", GranTable: "grantable", Switch: "switch", nKinds: "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestStatsBytesTotals(t *testing.T) {
	eng, m := newTestMem()
	m.Read(0, 64, Data, nil)
	m.Read(64, 64, Counter, nil)
	m.Write(128, 64, Data, nil)
	eng.RunAll()
	if got := m.Stats.Bytes(); got != 192 {
		t.Fatalf("total bytes = %d, want 192", got)
	}
}

// Read and Write return the time their done callback receives: on an idle
// channel and queued behind an earlier beat, for one beat and for beats
// over both channels. With a nil done they return the same times and
// queue nothing.
func TestAccessReturnsCompletionTime(t *testing.T) {
	cases := []struct {
		name string
		addr uint64
		size int
		want sim.Time
	}{
		{"one beat, idle channel 0", 0, 64, 6000},
		{"one beat, queued on channel 0", 128, 64, 7000},
		{"one beat, idle channel 1", 64, 64, 6000},
		{"four beats over both channels, queued", 0, 256, 9000},
	}
	for _, write := range []bool{false, true} {
		access := func(m *Memory, addr uint64, size int, done func(sim.Time)) sim.Time {
			if write {
				return m.Write(addr, size, Data, done)
			}
			return m.Read(addr, size, Data, done)
		}
		eng, m := newTestMem()
		got := make([]sim.Time, len(cases))
		for i, c := range cases {
			if ret := access(m, c.addr, c.size, func(at sim.Time) { got[i] = at }); ret != c.want {
				t.Errorf("write=%v %s: returned %d, want %d", write, c.name, ret, c.want)
			}
		}
		eng.RunAll()
		for i, c := range cases {
			if got[i] != c.want {
				t.Errorf("write=%v %s: done received %d, want %d", write, c.name, got[i], c.want)
			}
		}

		eng, m = newTestMem()
		for _, c := range cases {
			if ret := access(m, c.addr, c.size, nil); ret != c.want {
				t.Errorf("write=%v %s, nil done: returned %d, want %d", write, c.name, ret, c.want)
			}
			if n := eng.Pending(); n != 0 {
				t.Fatalf("write=%v %s: a nil done queued %d events", write, c.name, n)
			}
		}
	}
}

// refMemory is the per-beat model that Memory.access replaced: each beat
// queues on its own channel in turn. It is the exactness reference for the
// per-channel shortcut.
type refMemory struct {
	cfg  Config
	free []sim.Time
	busy int64
}

// access charges one transaction issued at now and returns its completion
// time.
func (r *refMemory) access(now sim.Time, addr uint64, size int) sim.Time {
	if size <= 0 {
		size = BlockSize
	}
	var last sim.Time
	for i := 0; i < (size+BlockSize-1)/BlockSize; i++ {
		ch := int((addr+uint64(i*BlockSize))/BlockSize) % r.cfg.Channels
		end := max(r.free[ch], now) + sim.Time(r.cfg.SlotPs)
		r.free[ch] = end
		r.busy += r.cfg.SlotPs
		last = max(last, end)
	}
	return last + sim.Time(r.cfg.LatencyPs)
}

// Every access matches the per-beat reference in each channel's free time,
// the busy time, the beat counts and the completion time, on random
// addresses (aligned or not), sizes (non-positive, partial and multi-beat
// up to a 32KB tile and beyond) and channel counts.
func TestAccessMatchesPerBeatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		cfg := Config{Channels: 1 + rng.Intn(5), SlotPs: 1 + rng.Int63n(9000), LatencyPs: rng.Int63n(50000)}
		eng := sim.NewEngine()
		m := New(eng, cfg)
		ref := &refMemory{cfg: cfg, free: make([]sim.Time, cfg.Channels)}
		var want, got []sim.Time
		var beats uint64
		for i := 0; i < 60; i++ {
			now := eng.Now() + sim.Time(rng.Int63n(4*cfg.SlotPs))
			eng.Run(now) // completions due by now fire first
			eng.At(now, func(sim.Time) {})
			eng.Run(now)
			addr := uint64(rng.Int63n(1 << 26))
			if rng.Intn(2) == 0 {
				addr &^= BlockSize - 1
			}
			size := rng.Intn(600*BlockSize) - BlockSize
			want = append(want, ref.access(now, addr, size))
			got = append(got, -1)
			done := func(at sim.Time) { got[i] = at }
			var ret sim.Time
			if rng.Intn(2) == 0 {
				ret = m.Read(addr, size, Counter, done)
			} else {
				ret = m.Write(addr, size, MAC, done)
			}
			if ret != want[i] {
				t.Fatalf("trial %d access %d (%+v): returned %d, reference %d", trial, i, cfg, ret, want[i])
			}
			beats += uint64((max(size, 1) + BlockSize - 1) / BlockSize)
			for ch := range ref.free {
				if m.free[ch] != ref.free[ch] {
					t.Fatalf("trial %d access %d (%+v, addr %#x, size %d): channel %d free at %d, reference %d",
						trial, i, cfg, addr, size, ch, m.free[ch], ref.free[ch])
				}
			}
		}
		eng.RunAll()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d access %d (%+v): completed at %d, reference %d", trial, i, cfg, got[i], want[i])
			}
		}
		if m.Stats.BusyPs != ref.busy || m.Stats.Reads[Counter]+m.Stats.Writes[MAC] != beats {
			t.Fatalf("trial %d: busy %d beats %d, reference %d and %d",
				trial, m.Stats.BusyPs, m.Stats.Reads[Counter]+m.Stats.Writes[MAC], ref.busy, beats)
		}
	}
}
