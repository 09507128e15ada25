package probe

import (
	"math/bits"

	"unimem/internal/mem"
	"unimem/internal/sim"
)

// MaxWalkLevels caps the walk-length histogram; walks longer than this
// (impossible under the paper's 4GB geometry, which stores ~9 levels) land
// in the last bucket.
const MaxWalkLevels = 16

// LatencyBuckets is the read-latency histogram resolution: bucket i holds
// reads with latency in [2^i, 2^(i+1)) nanoseconds, the last bucket is
// open-ended.
const LatencyBuckets = 24

// LatencyHistogram is a power-of-two histogram of read latencies.
type LatencyHistogram [LatencyBuckets]uint64

// Add records one latency.
func (h *LatencyHistogram) Add(d sim.Time) {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d) / 1000)
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	h[b]++
}

// Total returns the number of recorded samples.
func (h *LatencyHistogram) Total() uint64 {
	var t uint64
	for _, v := range h {
		t += v
	}
	return t
}

// Percentile returns an upper bound of the p-th percentile latency in
// nanoseconds (bucket resolution).
func (h *LatencyHistogram) Percentile(p float64) uint64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	want := uint64(p / 100 * float64(total))
	if want == 0 {
		want = 1
	}
	var seen uint64
	for i, v := range h {
		seen += v
		if seen >= want {
			return 1 << uint(i) // upper bound of bucket i-1 span
		}
	}
	return 1 << (LatencyBuckets - 1)
}

// NumTrafficKinds is the number of DRAM traffic kinds accounted (mirrors
// mem: data, counter, mac, grantable, switch).
const NumTrafficKinds = int(mem.Switch) + 1

// KindTraffic is the beat count of one traffic kind and direction.
type KindTraffic struct {
	ReadBeats  uint64
	WriteBeats uint64
}

// Beats returns the total beats moved.
func (t KindTraffic) Beats() uint64 { return t.ReadBeats + t.WriteBeats }

// CacheCounts is the hit/miss account of one security cache.
type CacheCounts struct {
	Hits   uint64
	Misses uint64
}

// DeviceSummary is one processing unit's share of the event stream.
type DeviceSummary struct {
	Requests uint64
	Reads    uint64
	Writes   uint64
	// ReadLatencyPs accumulates read-retire latencies.
	ReadLatencyPs int64
}

// Summary is the reduced form of an event stream: every distribution the
// paper's breakdown figures need, as plain value data that can be copied
// into results and merged across runs.
type Summary struct {
	Requests uint64
	Reads    uint64
	Writes   uint64
	// Walks counts integrity-tree walks; WalkHist[l] counts walks that
	// touched exactly l stored levels (pruned walks land at 0). WalkLevels
	// and WalkMisses accumulate touched levels and counter-line fetches.
	Walks       uint64
	WalkHist    [MaxWalkLevels + 1]uint64
	WalkLevels  uint64
	WalkMisses  uint64
	Pruned      uint64
	SubtreeHits uint64
	// LatencyHist is the read-retire latency histogram.
	LatencyHist LatencyHistogram
	// Switches counts committed granularity switches by Table 2 class.
	Switches [NumSwitchClasses]uint64
	// Traffic is the DRAM beat breakdown by traffic kind.
	Traffic [NumTrafficKinds]KindTraffic
	// Caches is the hit/miss account per security-cache kind (CacheMeta is
	// derived from walk events).
	Caches [NumCacheKinds]CacheCounts
	// MACFetches / MACMerges count MAC-line lookups and same-line merges.
	MACFetches uint64
	MACMerges  uint64
	// Detections counts routed granularity detections (EvDetect).
	Detections uint64
	// OverfetchBeats counts extra data beats from over-coarse units.
	OverfetchBeats uint64
	// Events is the total number of events reduced.
	Events uint64
	// PerDevice is indexed by the issuing device.
	PerDevice []DeviceSummary
}

// NumSwitchClasses / NumCacheKinds export the class-space sizes.
const (
	NumSwitchClasses = int(nSwitchClasses)
	NumCacheKinds    = int(nCacheKinds)
)

// Collector reduces an event stream into a Summary. It belongs to one
// simulation run and one goroutine.
type Collector struct {
	Summary
}

// NewCollector builds a collector sized for devices processing units.
func NewCollector(devices int) *Collector {
	if devices < 1 {
		devices = 1
	}
	c := &Collector{}
	c.PerDevice = make([]DeviceSummary, devices)
	return c
}

// dev returns the per-device slot, growing for out-of-range indices so a
// stray device id can never panic the collector.
func (c *Collector) dev(i int) *DeviceSummary {
	if i < 0 {
		i = 0
	}
	for i >= len(c.PerDevice) {
		c.PerDevice = append(c.PerDevice, DeviceSummary{})
	}
	return &c.PerDevice[i]
}

// Event reduces one event.
func (c *Collector) Event(e Event) {
	c.Events++
	switch e.Kind {
	case EvIssue:
		c.Requests++
		d := c.dev(e.Device)
		d.Requests++
		if e.Write {
			c.Writes++
			d.Writes++
		} else {
			c.Reads++
			d.Reads++
		}
	case EvRetire:
		if !e.Write {
			c.LatencyHist.Add(sim.Time(e.Val))
			c.dev(e.Device).ReadLatencyPs += e.Val
		}
	case EvWalk:
		c.Walks++
		l := int(e.Val)
		if l > MaxWalkLevels {
			l = MaxWalkLevels
		}
		c.WalkHist[l]++
		c.WalkLevels += uint64(e.Val)
		c.WalkMisses += uint64(e.Aux)
		if e.Class&WalkPruned != 0 {
			c.Pruned++
		}
		if e.Class&WalkSubtree != 0 {
			c.SubtreeHits++
		}
		// The shared metadata cache is accessed once per touched level; the
		// misses became counter-line fetches.
		c.Caches[CacheMeta].Hits += uint64(e.Val - e.Aux)
		c.Caches[CacheMeta].Misses += uint64(e.Aux)
	case EvCache:
		if int(e.Class) < NumCacheKinds {
			if e.Val != 0 {
				c.Caches[e.Class].Hits++
			} else {
				c.Caches[e.Class].Misses++
			}
		}
	case EvMACFetch:
		if e.Val != 0 {
			c.MACMerges++
		} else {
			c.MACFetches++
		}
	case EvSwitch:
		if int(e.Class) < NumSwitchClasses {
			c.Switches[e.Class]++
		}
	case EvOverfetch:
		c.OverfetchBeats += uint64(e.Val)
	case EvDetect:
		c.Detections++
	case EvMemRead:
		if int(e.Class) < NumTrafficKinds {
			c.Traffic[e.Class].ReadBeats += uint64(e.Val)
		}
	case EvMemWrite:
		if int(e.Class) < NumTrafficKinds {
			c.Traffic[e.Class].WriteBeats += uint64(e.Val)
		}
	}
}

// Merge folds another summary into s (for cross-run aggregation).
func (s *Summary) Merge(o *Summary) {
	s.Requests += o.Requests
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Walks += o.Walks
	for i := range s.WalkHist {
		s.WalkHist[i] += o.WalkHist[i]
	}
	s.WalkLevels += o.WalkLevels
	s.WalkMisses += o.WalkMisses
	s.Pruned += o.Pruned
	s.SubtreeHits += o.SubtreeHits
	for i := range s.LatencyHist {
		s.LatencyHist[i] += o.LatencyHist[i]
	}
	for i := range s.Switches {
		s.Switches[i] += o.Switches[i]
	}
	for i := range s.Traffic {
		s.Traffic[i].ReadBeats += o.Traffic[i].ReadBeats
		s.Traffic[i].WriteBeats += o.Traffic[i].WriteBeats
	}
	for i := range s.Caches {
		s.Caches[i].Hits += o.Caches[i].Hits
		s.Caches[i].Misses += o.Caches[i].Misses
	}
	s.MACFetches += o.MACFetches
	s.MACMerges += o.MACMerges
	s.Detections += o.Detections
	s.OverfetchBeats += o.OverfetchBeats
	s.Events += o.Events
	for i, d := range o.PerDevice {
		for i >= len(s.PerDevice) {
			s.PerDevice = append(s.PerDevice, DeviceSummary{})
		}
		s.PerDevice[i].Requests += d.Requests
		s.PerDevice[i].Reads += d.Reads
		s.PerDevice[i].Writes += d.Writes
		s.PerDevice[i].ReadLatencyPs += d.ReadLatencyPs
	}
}

// MeanWalkLevels returns the average validation-path length over all walks.
func (s *Summary) MeanWalkLevels() float64 {
	if s.Walks == 0 {
		return 0
	}
	return float64(s.WalkLevels) / float64(s.Walks)
}

// TrafficBytes returns bytes moved for one traffic kind.
func (s *Summary) TrafficBytes(k mem.Kind) uint64 {
	if int(k) >= NumTrafficKinds {
		return 0
	}
	return s.Traffic[k].Beats() * mem.BlockSize
}

// TotalBytes returns bytes moved across all kinds.
func (s *Summary) TotalBytes() uint64 {
	var beats uint64
	for _, t := range s.Traffic {
		beats += t.Beats()
	}
	return beats * mem.BlockSize
}

// TrafficShare returns kind k's fraction of total traffic (0 when idle).
func (s *Summary) TrafficShare(k mem.Kind) float64 {
	total := s.TotalBytes()
	if total == 0 {
		return 0
	}
	return float64(s.TrafficBytes(k)) / float64(total)
}

// SwitchTotal returns the number of charged switch events.
func (s *Summary) SwitchTotal() uint64 {
	var n uint64
	for _, v := range s.Switches {
		n += v
	}
	return n
}
