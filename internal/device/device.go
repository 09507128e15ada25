// Package device implements the trace-driven request issuer shared by the
// CPU, GPU and NPU models. The issuer owns the mechanics every processing
// unit needs — outstanding-request windows, compute gaps, dependent loads,
// kernel barriers — while internal/cpu, internal/gpu and internal/npu
// configure it to their microarchitectural shape (paper Table 3) and are
// what the heterogeneous harness composes.
package device

import (
	"unimem/internal/core"
	"unimem/internal/sim"
	"unimem/internal/workload"
)

// Submitter accepts memory transactions; the protection engine
// (internal/core) implements it.
type Submitter interface {
	Submit(r core.Request, done func(sim.Time))
}

// Config shapes one processing unit.
type Config struct {
	// Name labels the device in reports (e.g. "CPU/mcf").
	Name string
	// Index is the device id passed to the protection engine.
	Index int
	// Base offsets the workload's addresses into the shared address space.
	Base uint64
	// MLP is the maximum number of outstanding memory transactions
	// (memory-level parallelism window).
	MLP int
	// IssueSlots is the number of concurrent compute-gap timers — >1
	// models multiple SMs issuing independently.
	IssueSlots int
	// HonorDeps makes dependent requests (pointer chasing) wait for all
	// earlier requests; CPU-only behaviour.
	HonorDeps bool
	// BarrierEvery inserts a full drain every N issued requests (GPU
	// kernel boundaries); 0 disables.
	BarrierEvery int
}

// Stats counts issuer activity.
type Stats struct {
	Issued     uint64
	ReadBytes  uint64
	WriteBytes uint64
	DepStalls  uint64
	Barriers   uint64
}

// Issuer drives one generator through a Submitter on the event engine.
type Issuer struct {
	eng *sim.Engine
	sub Submitter
	gen workload.Generator
	cfg Config

	outstanding int
	inFlightGap int
	havePending bool
	pending     workload.Request
	exhausted   bool
	barrier     bool
	sinceBar    int

	done   bool
	finish sim.Time

	// Issuing allocates nothing: the gap timers are pooled (at most
	// IssueSlots are ever armed) and the completion callback is bound once.
	freeGaps  *gapTimer
	completed func(sim.Time)

	// Stats is the running account.
	Stats Stats
}

// gapTimer is one armed compute gap: when it fires, its request issues.
// Each timer binds its callback once, when first allocated.
type gapTimer struct {
	d    *Issuer
	r    workload.Request
	next *gapTimer // free-list link
	fire func(sim.Time)
}

// New builds an issuer. MLP and IssueSlots default to 1.
func New(eng *sim.Engine, sub Submitter, gen workload.Generator, cfg Config) *Issuer {
	if cfg.MLP <= 0 {
		cfg.MLP = 1
	}
	if cfg.IssueSlots <= 0 {
		cfg.IssueSlots = 1
	}
	d := &Issuer{eng: eng, sub: sub, gen: gen, cfg: cfg}
	d.completed = d.complete
	return d
}

// Name returns the device label.
func (d *Issuer) Name() string { return d.cfg.Name }

// Start schedules the first issue; call once before running the engine.
func (d *Issuer) Start() {
	d.eng.At(d.eng.Now(), func(sim.Time) { d.pump() })
}

// Done reports whether the trace has fully drained.
func (d *Issuer) Done() bool { return d.done }

// FinishTime returns the drain time (valid once Done).
func (d *Issuer) FinishTime() sim.Time { return d.finish }

func (d *Issuer) pump() {
	if d.done {
		return
	}
	for d.inFlightGap < d.cfg.IssueSlots && d.outstanding+d.inFlightGap < d.cfg.MLP {
		if d.barrier {
			if d.outstanding+d.inFlightGap > 0 {
				return // drain before the next kernel
			}
			d.barrier = false
		}
		if !d.havePending {
			r, ok := d.gen.Next()
			if !ok {
				d.exhausted = true
				d.maybeFinish()
				return
			}
			d.pending = r
			d.havePending = true
		}
		if d.cfg.HonorDeps && d.pending.Dep && d.outstanding+d.inFlightGap > 0 {
			d.Stats.DepStalls++
			return // completions re-pump
		}
		r := d.pending
		d.havePending = false
		d.inFlightGap++
		// Kernel boundaries are decided when the request is scheduled, so
		// requests after the boundary cannot slip past it through already
		// armed issue slots.
		d.sinceBar++
		if d.cfg.BarrierEvery > 0 && d.sinceBar >= d.cfg.BarrierEvery {
			d.sinceBar = 0
			d.barrier = true
			d.Stats.Barriers++
		}
		g := d.freeGaps
		if g == nil {
			g = &gapTimer{d: d}
			g.fire = g.expire
		} else {
			d.freeGaps = g.next
		}
		g.r = r
		d.eng.After(r.GapPs, g.fire)
	}
}

// expire returns the timer to the pool, then issues its request (which may
// arm the timer again).
func (g *gapTimer) expire(sim.Time) {
	d, r := g.d, g.r
	g.next, d.freeGaps = d.freeGaps, g
	d.issue(r)
}

func (d *Issuer) issue(r workload.Request) {
	d.inFlightGap--
	d.outstanding++
	d.Stats.Issued++
	if r.Write {
		d.Stats.WriteBytes += uint64(r.Size)
	} else {
		d.Stats.ReadBytes += uint64(r.Size)
	}
	req := core.Request{
		Device: d.cfg.Index,
		Addr:   d.cfg.Base + r.Addr,
		Size:   r.Size,
		Write:  r.Write,
	}
	d.sub.Submit(req, d.completed)
	d.pump()
}

// complete is the Submitter's completion callback for every request.
func (d *Issuer) complete(sim.Time) {
	d.outstanding--
	d.maybeFinish()
	d.pump()
}

func (d *Issuer) maybeFinish() {
	if d.exhausted && !d.havePending && d.outstanding == 0 && d.inFlightGap == 0 && !d.done {
		d.done = true
		d.finish = d.eng.Now()
	}
}
