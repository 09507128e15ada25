// Package workload generates the synthetic memory-access traces that stand
// in for the paper's ChampSim/MGPUSim/mNPUsim traces (the substitution is
// documented in DESIGN.md section 2). Each of the paper's Table 4
// workloads is encoded as a deterministic generator whose stream-chunk
// mixture, request size, read/write mix, dependence structure and traffic
// intensity are calibrated to the classes the paper reports
// (ff/f/c/cc/d access patterns, s/m/l traffic).
package workload

import (
	"fmt"

	"unimem/internal/meta"
	"unimem/internal/sim"
)

// Request is one LLC-miss-level memory transaction of a trace.
type Request struct {
	// Addr is the byte address (64B aligned), relative to the workload's
	// own address space; the device model adds its region base.
	Addr uint64
	// Size in bytes (always a multiple of 64).
	Size int
	// Write marks stores / output tiles.
	Write bool
	// GapPs is the compute time that must elapse before this request can
	// issue (measured from the previous issue, or from the previous
	// completion when Dep is set).
	GapPs sim.Time
	// Dep marks a dependent access (pointer chasing): it cannot issue
	// until all earlier requests completed.
	Dep bool
}

// Generator produces a finite deterministic request stream.
type Generator interface {
	// Next returns the next request, or ok=false at end of trace.
	Next() (r Request, ok bool)
	// Name identifies the workload.
	Name() string
}

// rng is a xorshift64* PRNG: deterministic, seedable, dependency-free.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// below reports an event with probability p in 1e6.
func (r *rng) below(p uint64) bool { return r.next()%1000000 < p }

// rangeN returns a value in [0, n).
func (r *rng) rangeN(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// Profile parameterises one synthetic workload.
type Profile struct {
	// Name is the Table 4 short name (bw, mm, alex, ...).
	Name string
	// Class is the device type the workload runs on.
	Class Class
	// Requests is the nominal trace length at scale 1.0 (number of
	// generator requests; bulk requests move more bytes each).
	Requests int
	// FootprintBytes is the touched address range.
	FootprintBytes uint64
	// StreamMix gives the probability (in 1e6) that the generator starts a
	// stream of each coarse chunk size; the remainder is fine random
	// access.
	Stream512, Stream4K, Stream32K uint64
	// ReqSize is the natural transaction size in bytes: 64 for cacheline
	// misses, larger for coalesced GPU bursts and NPU DMA tiles.
	ReqSize int
	// WriteFrac is the store fraction (in 1e6).
	WriteFrac uint64
	// GapPs is the mean compute gap between issues (traffic intensity).
	GapPs sim.Time
	// DepFrac is the pointer-chasing fraction (in 1e6; CPU only).
	DepFrac uint64
	// Revisit is the probability (in 1e6) that a new stream region
	// revisits a previously streamed region instead of a fresh one
	// (creates temporal reuse so coarse regions are accessed repeatedly).
	Revisit uint64
	// RandomRun is the spatial-locality run length of non-stream accesses
	// in 64B blocks: LLC-miss streams of real workloads arrive in short
	// sequential runs, which is what lets the 8-counter metadata lines
	// amortize (default 1 = no runs). Runs start block-aligned but not
	// partition-aligned, so they rarely complete a 512B stream partition.
	RandomRun int
	// HotFrac (in 1e6) of random accesses fall in a hot region of
	// HotBytes at the start of the footprint (temporal locality).
	HotFrac  uint64
	HotBytes uint64
	// RandomSize is the transaction size of non-stream accesses (default
	// 64; GPUs coalesce to 256B).
	RandomSize int
	// InitFrac (in 1e6) of the trace is an initialization phase that
	// writes the streamed zone fine-grained (weight loading, im2col
	// layout) before the bulk phase streams it — the phase change the
	// paper's dynamic detection adapts to and static per-device
	// granularity cannot (section 3.3, Fig. 6).
	InitFrac uint64
}

// Class is the processing-unit type of a workload.
type Class int

// Device classes.
const (
	CPU Class = iota
	GPU
	NPU
)

// String names the class.
func (c Class) String() string {
	switch c {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case NPU:
		return "NPU"
	}
	return "unknown"
}

// gen is the mixture generator implementing Profile.
type gen struct {
	p       Profile
	rnd     *rng
	emitted int
	total   int

	// current stream state
	streamLeft  int    // bytes left in the current stream run
	streamAddr  uint64 // next address of the stream
	streamWr    bool
	streamFirst bool

	// current random-run state
	runLeft int
	runAddr uint64

	// init-phase state
	initLeft int
	initRun  int
	initAddr uint64

	regions []uint64 // previously streamed region bases for revisits
}

// New instantiates a profile at a scale factor (1.0 = nominal length) with
// a seed; identical (profile, scale, seed) triples produce identical
// traces.
func New(p Profile, scale float64, seed uint64) Generator {
	total := int(float64(p.Requests) * scale)
	if total < 1 {
		total = 1
	}
	g := &gen{p: p, rnd: newRNG(seed ^ hashName(p.Name)), total: total}
	g.initLeft = int(uint64(total) * p.InitFrac / 1000000)
	return g
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (g *gen) Name() string { return g.p.Name }

func (g *gen) Next() (Request, bool) {
	if g.emitted >= g.total {
		return Request{}, false
	}
	g.emitted++

	if g.initLeft > 0 {
		g.initLeft--
		return g.initStep(), true
	}
	if g.streamLeft > 0 {
		return g.streamStep(), true
	}

	// Choose the next access class.
	roll := g.rnd.next() % 1000000
	switch {
	case roll < g.p.Stream32K:
		g.startStream(meta.Gran32K)
	case roll < g.p.Stream32K+g.p.Stream4K:
		g.startStream(meta.Gran4K)
	case roll < g.p.Stream32K+g.p.Stream4K+g.p.Stream512:
		g.startStream(meta.Gran512)
	default:
		return g.randomStep(), true
	}
	return g.streamStep(), true
}

// streamLo returns the base of the streamed-allocation zone: programs
// place bulk arrays/tensors and pointer-chased heaps in different
// allocations, so streams draw from the upper 60% of the footprint while
// random accesses draw from the lower 50% — the 10% overlap produces the
// granularity mispredictions the paper measures (26.5%), without making
// every region bimodal.
func (g *gen) streamLo() uint64 {
	return g.p.FootprintBytes / 5 * 2
}

// startStream begins a new sequential run over one chunk-size region.
func (g *gen) startStream(gr meta.Gran) {
	size := gr.Bytes()
	var base uint64
	if len(g.regions) > 0 && g.rnd.below(g.p.Revisit) {
		// Revisited allocations are aligned to the new stream's own size,
		// as real tensors/arrays are; otherwise a coarse re-stream of a
		// finer region would straddle two chunks.
		base = meta.AlignGran(g.regions[g.rnd.rangeN(uint64(len(g.regions)))], gr)
	} else {
		lo := g.streamLo() / size * size
		span := (g.p.FootprintBytes - lo) / size
		if span == 0 {
			span = 1
			lo = 0
		}
		base = lo + g.rnd.rangeN(span)*size
		if len(g.regions) < 64 {
			g.regions = append(g.regions, base)
		} else {
			g.regions[g.rnd.rangeN(64)] = base
		}
	}
	g.streamAddr = base
	g.streamLeft = int(size)
	g.streamWr = g.rnd.below(g.p.WriteFrac)
	g.streamFirst = true
}

func (g *gen) streamStep() Request {
	size := g.p.ReqSize
	if size > g.streamLeft {
		size = g.streamLeft
	}
	gap := g.gap()
	if !g.streamFirst {
		// Within a stream the transfers are pipelined DMA beats: most of
		// the compute gap is paid once per stream, making the traffic
		// bursty (the NPU behaviour of section 5.4).
		gap /= 4
	}
	g.streamFirst = false
	r := Request{
		Addr:  g.streamAddr,
		Size:  size,
		Write: g.streamWr,
		GapPs: gap,
	}
	g.streamAddr += uint64(size)
	g.streamLeft -= size
	return r
}

// initStep emits the initialization phase: fine-grained 64B writes laying
// out the streamed zone in short partition-sized runs.
func (g *gen) initStep() Request {
	if g.initRun == 0 {
		lo := g.streamLo() / meta.PartitionSize
		span := g.p.FootprintBytes/meta.PartitionSize - lo
		if span == 0 {
			span = 1
			lo = 0
		}
		g.initAddr = (lo + g.rnd.rangeN(span)) * meta.PartitionSize
		g.initRun = meta.BlocksPerPartition
	}
	addr := g.initAddr
	g.initAddr += meta.BlockSize
	g.initRun--
	return Request{
		Addr:  addr,
		Size:  meta.BlockSize,
		Write: true,
		GapPs: g.gap() / 2,
	}
}

func (g *gen) randomStep() Request {
	size := g.p.RandomSize
	if size < meta.BlockSize {
		size = meta.BlockSize
	}
	if g.runLeft > 0 {
		addr := g.runAddr
		g.runAddr += uint64(size)
		g.runLeft--
		return Request{
			Addr:  addr,
			Size:  size,
			Write: g.rnd.below(g.p.WriteFrac),
			GapPs: g.gap(),
			Dep:   g.rnd.below(g.p.DepFrac),
		}
	}
	// A quarter of cold random accesses range over the whole footprint,
	// including the streamed zone: real data structures are bimodal —
	// tensors get both tiled DMA reads and stray element accesses (the
	// paper's im2col example) — and this is what defeats static per-device
	// granularity (Fig. 6) while dynamic detection absorbs it.
	span := g.p.FootprintBytes / 2
	if g.rnd.below(250_000) {
		span = g.p.FootprintBytes
	}
	if g.p.HotBytes > 0 && g.p.HotBytes < span && g.rnd.below(g.p.HotFrac) {
		span = g.p.HotBytes
	}
	// Coalesced accesses are naturally aligned to their own size.
	slots := span / uint64(size)
	if slots == 0 {
		slots = 1
	}
	addr := g.rnd.rangeN(slots) * uint64(size)
	if g.p.RandomRun > 1 {
		// Continue sequentially for RandomRun transactions total.
		g.runLeft = g.p.RandomRun - 1
		// The run continues at the end of this naturally aligned
		// transaction, which is itself size-aligned.
		g.runAddr = addr + uint64(size)
	}
	return Request{
		Addr:  addr,
		Size:  size,
		Write: g.rnd.below(g.p.WriteFrac),
		GapPs: g.gap(),
		Dep:   g.rnd.below(g.p.DepFrac),
	}
}

// gap jitters the mean compute gap by +/-50% to avoid lockstep artifacts.
func (g *gen) gap() sim.Time {
	meanPs := int64(g.p.GapPs)
	if meanPs <= 0 {
		return 0
	}
	return sim.Time(meanPs/2 + int64(g.rnd.rangeN(uint64(meanPs))))
}

// Collect drains a generator into a slice (for analysis tools and tests).
func Collect(g Generator) []Request {
	var out []Request
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Lookup returns a registered workload's profile (see registry.go).
func Lookup(name string) (Profile, error) {
	p, ok := Profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown workload %q", name)
	}
	return p, nil
}

// ByName instantiates a registered workload.
func ByName(name string, scale float64, seed uint64) (Generator, error) {
	p, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return New(p, scale, seed), nil
}
