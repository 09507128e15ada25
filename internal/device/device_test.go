package device

import (
	"testing"

	"unimem/internal/core"
	"unimem/internal/mem"
	"unimem/internal/sim"
	"unimem/internal/workload"
)

// fixedGen emits a fixed list of requests.
type fixedGen struct {
	reqs []workload.Request
	i    int
}

func (f *fixedGen) Next() (workload.Request, bool) {
	if f.i >= len(f.reqs) {
		return workload.Request{}, false
	}
	r := f.reqs[f.i]
	f.i++
	return r, true
}
func (f *fixedGen) Name() string { return "fixed" }

// recordSub records submissions and completes each after a fixed delay.
type recordSub struct {
	eng     *sim.Engine
	delay   sim.Time
	reqs    []core.Request
	current int // currently outstanding
	maxConc int
}

func (s *recordSub) Submit(r core.Request, done func(sim.Time)) {
	s.reqs = append(s.reqs, r)
	s.current++
	if s.current > s.maxConc {
		s.maxConc = s.current
	}
	s.eng.After(s.delay, func(at sim.Time) {
		s.current--
		done(at)
	})
}

func run(reqs []workload.Request, cfg Config, delay sim.Time) (*Issuer, *recordSub, *sim.Engine) {
	eng := sim.NewEngine()
	sub := &recordSub{eng: eng, delay: delay}
	d := New(eng, sub, &fixedGen{reqs: reqs}, cfg)
	d.Start()
	eng.RunAll()
	return d, sub, eng
}

func req(addr uint64, gap sim.Time, dep bool) workload.Request {
	return workload.Request{Addr: addr, Size: 64, GapPs: gap, Dep: dep}
}

func TestDrainAndFinish(t *testing.T) {
	d, sub, _ := run([]workload.Request{req(0, 10, false), req(64, 10, false)}, Config{MLP: 2}, 100)
	if !d.Done() {
		t.Fatal("issuer not done")
	}
	if len(sub.reqs) != 2 || d.Stats.Issued != 2 {
		t.Fatalf("issued %d, want 2", len(sub.reqs))
	}
	if d.FinishTime() <= 0 {
		t.Fatal("finish time not recorded")
	}
}

func TestMLPWindowRespected(t *testing.T) {
	var reqs []workload.Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, req(uint64(i*64), 0, false))
	}
	_, sub, _ := run(reqs, Config{MLP: 3, IssueSlots: 3}, 1000)
	if sub.maxConc > 3 {
		t.Fatalf("max concurrency %d exceeds MLP 3", sub.maxConc)
	}
	if sub.maxConc < 2 {
		t.Fatalf("max concurrency %d: window never filled", sub.maxConc)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	reqs := []workload.Request{req(0, 0, false), req(64, 0, true), req(128, 0, true)}
	d, sub, _ := run(reqs, Config{MLP: 8, HonorDeps: true}, 500)
	if sub.maxConc != 1 {
		t.Fatalf("dependent chain overlapped: maxConc=%d", sub.maxConc)
	}
	if d.Stats.DepStalls == 0 {
		t.Fatal("dep stalls not counted")
	}
}

func TestDepsIgnoredWhenNotHonored(t *testing.T) {
	reqs := []workload.Request{req(0, 0, false), req(64, 0, true), req(128, 0, true)}
	_, sub, _ := run(reqs, Config{MLP: 8}, 500)
	if sub.maxConc < 2 {
		t.Fatalf("GPU-style issuer serialized dependent loads: maxConc=%d", sub.maxConc)
	}
}

func TestComputeGapsDelayIssue(t *testing.T) {
	d, _, eng := run([]workload.Request{req(0, 1000, false), req(64, 1000, false)}, Config{MLP: 1}, 50)
	_ = d
	// Two serialized gaps (1000 each) + two completions (50 each).
	if eng.Now() < 2100 {
		t.Fatalf("finished at %d, gaps not applied", eng.Now())
	}
}

func TestBarrierDrains(t *testing.T) {
	var reqs []workload.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, req(uint64(i*64), 0, false))
	}
	d, sub, _ := run(reqs, Config{MLP: 8, IssueSlots: 8, BarrierEvery: 2}, 300)
	if d.Stats.Barriers != 4 {
		t.Fatalf("barriers = %d, want 4", d.Stats.Barriers)
	}
	if sub.maxConc > 2 {
		t.Fatalf("barrier every 2 allowed %d concurrent", sub.maxConc)
	}
}

func TestBaseOffsetApplied(t *testing.T) {
	_, sub, _ := run([]workload.Request{req(0x40, 0, false)}, Config{Base: 1 << 30, Index: 3}, 10)
	if sub.reqs[0].Addr != 1<<30+0x40 {
		t.Fatalf("addr = %#x", sub.reqs[0].Addr)
	}
	if sub.reqs[0].Device != 3 {
		t.Fatalf("device = %d", sub.reqs[0].Device)
	}
}

func TestByteAccounting(t *testing.T) {
	reqs := []workload.Request{
		{Addr: 0, Size: 128, GapPs: 0},
		{Addr: 256, Size: 64, GapPs: 0, Write: true},
	}
	d, _, _ := run(reqs, Config{MLP: 2}, 10)
	if d.Stats.ReadBytes != 128 || d.Stats.WriteBytes != 64 {
		t.Fatalf("bytes = %d/%d", d.Stats.ReadBytes, d.Stats.WriteBytes)
	}
}

// loopGen cycles through a fixed request list forever without allocating.
type loopGen struct {
	reqs []workload.Request
	i    int
}

func (g *loopGen) Next() (workload.Request, bool) {
	r := g.reqs[g.i%len(g.reqs)]
	g.i++
	return r, true
}
func (g *loopGen) Name() string { return "loop" }

// delaySub completes every request a fixed delay after submission by
// scheduling the issuer's own callback, so it allocates nothing.
type delaySub struct {
	eng   *sim.Engine
	delay sim.Time
}

func (s delaySub) Submit(_ core.Request, done func(sim.Time)) { s.eng.After(s.delay, done) }

// Once the event heap and the gap-timer pool have grown, issuing allocates
// nothing: no closure per gap timer or per completion. The request mix
// takes every path of pump: compute gaps on several issue slots, dependent
// loads, writes and kernel barriers.
func TestIssueSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	gen := &loopGen{reqs: []workload.Request{
		req(0, 700, false), req(64, 0, true), {Addr: 4096, Size: 4096, GapPs: 300, Write: true}, req(128, 1500, false),
	}}
	d := New(eng, delaySub{eng, 2000}, gen, Config{MLP: 6, IssueSlots: 3, HonorDeps: true, BarrierEvery: 5})
	d.Start()
	const window = 100_000
	var deadline sim.Time
	run := func() {
		deadline += window
		eng.Run(deadline)
	}
	for i := 0; i < 10; i++ {
		run()
	}
	before := d.Stats
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("issuing allocates %.2f times per %d ps window, want 0", avg, window)
	}
	issued := d.Stats.Issued - before.Issued
	if issued < 51*50 || d.Stats.DepStalls == before.DepStalls || d.Stats.Barriers == before.Barriers {
		t.Fatalf("measured windows issued %d requests, %d dep stalls, %d barriers: the mix did not exercise the issuer",
			issued, d.Stats.DepStalls-before.DepStalls, d.Stats.Barriers-before.Barriers)
	}
}

// Integration: a real workload through the real protection engine drains
// completely on every scheme.
func TestIntegrationAllSchemesDrain(t *testing.T) {
	for _, s := range []core.Scheme{core.Unsecure, core.Conventional, core.Ours, core.BMFUnusedOurs, core.CommonCTR, core.Adaptive} {
		eng := sim.NewEngine()
		mm := mem.New(eng, mem.OrinConfig())
		en := core.New(eng, mm, 1<<30, s, core.Options{})
		gen, err := workload.ByName("alex", 0.05, 9)
		if err != nil {
			t.Fatal(err)
		}
		d := New(eng, en, gen, Config{MLP: 2, Name: "npu"})
		d.Start()
		eng.RunAll()
		if !d.Done() {
			t.Fatalf("%v: device never drained", s)
		}
		if d.FinishTime() <= 0 {
			t.Fatalf("%v: no finish time", s)
		}
	}
}

func TestSecureSlowerIntegration(t *testing.T) {
	finish := func(s core.Scheme) sim.Time {
		eng := sim.NewEngine()
		mm := mem.New(eng, mem.OrinConfig())
		en := core.New(eng, mm, 1<<30, s, core.Options{})
		gen, _ := workload.ByName("mcf", 0.05, 9)
		d := New(eng, en, gen, Config{MLP: 4, HonorDeps: true, Name: "cpu"})
		d.Start()
		eng.RunAll()
		return d.FinishTime()
	}
	un := finish(core.Unsecure)
	conv := finish(core.Conventional)
	if conv <= un {
		t.Fatalf("conventional (%d) not slower than unsecure (%d)", conv, un)
	}
}
