// Package mem models the shared off-chip LPDDR4 memory system of the
// simulated SoC (paper Table 3: 2 channels x 8.5 GB/s = 17 GB/s, 2.4 GHz).
//
// The model is deliberately at the level the paper's mechanism reacts to:
// execution-time differences between protection schemes come from (a) the
// total number of 64B bursts competing for fixed channel bandwidth and
// (b) the serialized latency of integrity-tree walks. Each channel is a
// pipelined FIFO that serves one 64B beat per slot time with a fixed access
// latency in front; queueing delay emerges when offered traffic approaches
// channel bandwidth, which reproduces the paper's observation that "stalled
// memory requests recursively delay subsequent memory requests" (section 3.2).
package mem

import (
	"unimem/internal/sim"
)

// BlockSize is the memory burst granularity in bytes (one cacheline).
const BlockSize = 64

// Kind labels traffic for the paper's traffic-breakdown figures.
type Kind uint8

// Traffic kinds. Data is program data; Counter is integrity-tree counter
// traffic (leaf and intermediate nodes); MAC is MAC fetch/writeback
// traffic; GranTable is granularity-table traffic (our scheme only);
// Switch is extra traffic caused by granularity switching.
const (
	Data Kind = iota
	Counter
	MAC
	GranTable
	Switch
	nKinds
)

// String returns the kind label used in reports.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Counter:
		return "counter"
	case MAC:
		return "mac"
	case GranTable:
		return "grantable"
	case Switch:
		return "switch"
	}
	return "unknown"
}

// Config describes one memory system.
type Config struct {
	// Channels is the number of independent channels.
	Channels int
	// SlotPs is the time one channel needs to transfer one 64B beat.
	// 64B / 8.5 GB/s = 7529 ps.
	SlotPs int64
	// LatencyPs is the fixed access latency (activation + CAS + bus) paid
	// once per request in front of the pipeline.
	LatencyPs int64
}

// OrinConfig returns the LPDDR4 configuration of paper Table 3.
func OrinConfig() Config {
	return Config{
		Channels:  2,
		SlotPs:    7529,  // 64B at 8.5 GB/s per channel
		LatencyPs: 45000, // ~45 ns LPDDR4 random-access latency
	}
}

// Stats aggregates memory-system activity.
type Stats struct {
	// Reads and Writes count 64B beats by traffic kind.
	Reads  [nKinds]uint64
	Writes [nKinds]uint64
	// BusyPs accumulates per-channel busy time.
	BusyPs int64
}

// Bytes returns total bytes moved (reads + writes).
func (s *Stats) Bytes() uint64 {
	var beats uint64
	for k := Kind(0); k < nKinds; k++ {
		beats += s.Reads[k] + s.Writes[k]
	}
	return beats * BlockSize
}

// BytesKind returns bytes moved for one traffic kind.
func (s *Stats) BytesKind(k Kind) uint64 {
	return (s.Reads[k] + s.Writes[k]) * BlockSize
}

// MetadataBytes returns bytes of security metadata traffic (everything
// except program data).
func (s *Stats) MetadataBytes() uint64 {
	return s.Bytes() - s.BytesKind(Data)
}

// Memory is the shared off-chip memory timing model.
type Memory struct {
	eng  *sim.Engine
	cfg  Config
	free []sim.Time // earliest bus start time per channel
	// Stats is the running traffic account.
	Stats Stats
}

// New returns a memory system bound to an engine.
func New(eng *sim.Engine, cfg Config) *Memory {
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	return &Memory{eng: eng, cfg: cfg, free: make([]sim.Time, cfg.Channels)}
}

// Read requests size bytes starting at addr and calls done when the last
// beat has arrived on chip. size is rounded up to whole 64B beats. The
// callback receives the completion time.
func (m *Memory) Read(addr uint64, size int, kind Kind, done func(sim.Time)) {
	m.access(addr, size, kind, false, done)
}

// Write issues size bytes starting at addr. Writes are posted: they consume
// bandwidth (delaying later reads on the same channel) but the done callback,
// if non-nil, fires when the write has drained.
func (m *Memory) Write(addr uint64, size int, kind Kind, done func(sim.Time)) {
	m.access(addr, size, kind, true, done)
}

// access charges one transaction. Its beats interleave across the channels
// at 64B granularity starting from addr's channel, and each channel serves
// its share back to back from the later of its free time and now, so the
// cost is one step per channel, not per beat.
func (m *Memory) access(addr uint64, size int, kind Kind, write bool, done func(sim.Time)) {
	if size <= 0 {
		size = BlockSize
	}
	beats := (size + BlockSize - 1) / BlockSize
	chans := m.cfg.Channels
	per, extra := beats/chans, beats%chans
	first := int(addr/BlockSize) % chans
	now := m.eng.Now()
	var last sim.Time
	for i := 0; i < min(chans, beats); i++ {
		n := per
		if i < extra {
			n++
		}
		ch := (first + i) % chans
		end := max(m.free[ch], now) + sim.Time(int64(n)*m.cfg.SlotPs)
		m.free[ch] = end
		last = max(last, end)
	}
	m.Stats.BusyPs += int64(beats) * m.cfg.SlotPs
	if write {
		m.Stats.Writes[kind] += uint64(beats)
	} else {
		m.Stats.Reads[kind] += uint64(beats)
	}
	if done != nil {
		m.eng.At(last+sim.Time(m.cfg.LatencyPs), done)
	}
}
