package core

import (
	"testing"

	"unimem/internal/meta"
	"unimem/internal/probe"
)

func TestLatencyHistogram(t *testing.T) {
	var h LatencyHistogram
	h.Add(1_000)   // 1 ns  -> bucket 1
	h.Add(100_000) // 100ns -> bucket 7
	h.Add(100_000)
	h.Add(1 << 60) // saturates last bucket
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	if p := h.Percentile(50); p > 256 {
		t.Fatalf("p50 = %dns, want <= 256", p)
	}
	if p := h.Percentile(100); p != 1<<(probe.LatencyBuckets-1) {
		t.Fatalf("p100 = %d", p)
	}
	var empty LatencyHistogram
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

func TestPerDeviceStats(t *testing.T) {
	r := newRig(Conventional, Options{Devices: 2})
	r.do(Request{Device: 0, Addr: 0, Size: 64})
	r.do(Request{Device: 1, Addr: meta.ChunkSize, Size: 64, Write: true})
	r.do(Request{Device: 0, Addr: 64, Size: 64})
	d0 := r.en.DeviceStats(0)
	d1 := r.en.DeviceStats(1)
	if d0.Reads != 2 || d0.Writes != 0 {
		t.Fatalf("dev0 = %+v", d0)
	}
	if d1.Writes != 1 {
		t.Fatalf("dev1 = %+v", d1)
	}
	if d0.MeanReadLatencyPs() <= 0 || d0.MaxReadLatencyPs <= 0 {
		t.Fatalf("dev0 latency not recorded: %+v", d0)
	}
	if r.en.Latencies().Total() != 2 {
		t.Fatalf("histogram samples = %d", r.en.Latencies().Total())
	}
	if out := r.en.DeviceStats(5); out.Requests != 0 {
		t.Fatal("out-of-range device stats not zero")
	}
}

func TestSecureLatencyTailLonger(t *testing.T) {
	un := newRig(Unsecure, Options{})
	cv := newRig(Conventional, Options{})
	for i := 0; i < 50; i++ {
		addr := uint64(i) * 4096
		un.do(Request{Addr: addr, Size: 64})
		cv.do(Request{Addr: addr, Size: 64})
	}
	if cv.en.Latencies().Percentile(90) <= un.en.Latencies().Percentile(90) {
		t.Fatal("protection did not lengthen the latency tail")
	}
}
