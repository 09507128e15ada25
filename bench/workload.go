package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"time"

	"unimem"
	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/meta"
	"unimem/internal/sim"
)

// workload is one closed-loop benchmark workload: a single client that
// issues its next operation only after the previous one returned.
type workload interface {
	// setup builds the workload's state from scratch and returns the host
	// time that took; the checks it runs afterwards are not timed. The
	// first setup (i == 0) also warms up and fixes the determinism digests.
	setup(i int) (time.Duration, error)
	// op runs one operation and returns its host duration and the number
	// of protected memory requests it carried.
	op() (time.Duration, uint64, error)
}

// errImage marks a workload whose protected image diverged from the
// reference; it fails every operation of the run, not just one.
var errImage = errors.New("protected image differs from its reference digest")

// spec names a workload and builds it. short selects the reduced sizes the
// package tests run. An untraced run sets the workload up setups times.
type spec struct {
	name   string
	setups int
	build  func(seed uint64, short bool, exp *expect) workload
}

// workloads are the benchmark's workloads in the order "all" runs them.
// BENCHMARK.json and README.md give the reason each exists.
var workloads = []spec{
	{"cc1-ours", traces, func(seed uint64, short bool, exp *expect) workload {
		return newTiming("cc1-ours", "cc1", core.Ours, pick(short, 0.01, 0.08), seed, exp)
	}},
	{"ff1-conv", traces, func(seed uint64, short bool, exp *expect) workload {
		return newTiming("ff1-conv", "ff1", core.Conventional, pick(short, 0.01, 0.08), seed, exp)
	}},
	{"sweep-fig17", 3, func(seed uint64, short bool, exp *expect) workload {
		n, scale := 24, 0.12
		if short {
			n, scale = 2, 0.02
		}
		return &sweepWorkload{
			scs:     hetero.SampleScenarios(n),
			schemes: sweepSchemes,
			cfg:     hetero.Config{Scale: scale, Seed: seed},
			exp:     exp,
		}
	}},
	{"func-stream", 3, func(seed uint64, short bool, exp *expect) workload {
		size := uint64(1 << 20)
		if short {
			size = 64 << 10
		}
		return &funcWorkload{name: "func-stream", image: size, seed: seed, writeOdds: 5,
			checkpoint: int(pick(short, 64, 1000)), exp: exp}
	}},
	{"func-random", 3, func(seed uint64, short bool, exp *expect) workload {
		size := uint64(8 << 20)
		if short {
			size = 256 << 10
		}
		return &funcWorkload{name: "func-random", image: size, seed: seed, writeOdds: 4, random: true,
			checkpoint: int(pick(short, 500, 20000)), exp: exp}
	}},
}

// sweepSchemes are the scaled Fig. 17 sweep's schemes (mgbench's default).
var sweepSchemes = []core.Scheme{core.Conventional, core.Ours, core.BMFUnusedOurs}

func pick(short bool, small, full float64) float64 {
	if short {
		return small
	}
	return full
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sweepWorkers is the sweep's worker count: at most two, and never more
// than the host has CPUs.
func sweepWorkers() int {
	return min(2, runtime.NumCPU())
}

// --- digests ---------------------------------------------------------------

// expect checks digests against the reference for this seed; a key with no
// reference is fixed by the first digest seen, so later ones must repeat it.
type expect struct {
	want map[string]string
}

func newExpect(ref map[string]string) *expect {
	e := &expect{want: map[string]string{}}
	for k, v := range ref {
		e.want[k] = v
	}
	return e
}

func (e *expect) check(key, got string) error {
	want, ok := e.want[key]
	if !ok {
		e.want[key] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("%s: digest %.12s, want %.12s", key, got, want)
	}
	return nil
}

func putU64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// writeRun folds the outputs of one simulation run into h: per-device
// finish time and issue count, DRAM traffic, security-cache misses,
// switches, detections and the read-latency histogram.
func writeRun(h hash.Hash, r *hetero.RunResult) {
	putU64(h, uint64(len(r.Devices)))
	for _, d := range r.Devices {
		putU64(h, uint64(d.FinishPs), d.Issued)
	}
	s := r.Switches
	putU64(h, r.TotalBytes, r.DataBytes, r.MetaBytes, r.SecCacheMisses, r.Detections,
		s.DownAll, s.UpWAR, s.UpWAW, s.UpRAR, s.UpRAW, s.MACDownRO, s.MACDownRW, s.MACUpLazy, s.Correct)
	putU64(h, r.Latency[:]...)
}

func runDigest(r *hetero.RunResult) string {
	h := sha256.New()
	writeRun(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// issued is the number of device requests a run simulated.
func issued(r *hetero.RunResult) uint64 {
	var n uint64
	for _, d := range r.Devices {
		n += d.Issued
	}
	return n
}

// --- timing workloads ------------------------------------------------------

// traces is how many input traces a timing workload rotates through: op i
// simulates trace i mod traces. How much work a trace makes depends on its
// seed (cc1's security-cache accesses differ by a third between seeds), so
// rotating through many keeps a run's cost from hinging on one seed.
const traces = 16

// timingWorkload runs one scenario under one scheme per op.
type timingWorkload struct {
	name   string
	sc     hetero.Scenario
	scheme core.Scheme
	scale  float64
	seed   uint64
	exp    *expect
	next   int // trace of the next op
	// makespan is the last run's simulated end time.
	makespan sim.Time
}

func newTiming(name, scenario string, scheme core.Scheme, scale float64, seed uint64, exp *expect) *timingWorkload {
	w := &timingWorkload{name: name, scheme: scheme, scale: scale, seed: seed, exp: exp}
	for _, sc := range hetero.SelectedScenarios() {
		if sc.ID == scenario {
			w.sc = sc
		}
	}
	return w
}

// config is the run configuration of trace i: seeds seed*traces ...
// seed*traces+traces-1, so different seeds never share a trace.
func (w *timingWorkload) config(i int) hetero.Config {
	return hetero.Config{Scale: w.scale, Seed: w.seed*traces + uint64(i%traces)}
}

func (w *timingWorkload) check(r *hetero.RunResult, i int) error {
	if r.Err != nil {
		return r.Err
	}
	w.makespan = r.MaxFinish()
	return w.exp.check(fmt.Sprintf("%s/%d", w.name, i%traces), runDigest(r))
}

func (w *timingWorkload) info() string {
	return fmt.Sprintf("%s under %v, %d traces, simulated makespan %.3f us", w.sc.ID, w.scheme, traces, float64(w.makespan)/1e6)
}

func (w *timingWorkload) run(i int) (time.Duration, uint64, error) {
	start := time.Now()
	r := hetero.Run(w.sc, w.scheme, w.config(i))
	d := time.Since(start)
	return d, issued(&r), w.check(&r, i)
}

// setup is one cold run of trace i: it fills the process's caches and
// fixes the trace's digest.
func (w *timingWorkload) setup(i int) (time.Duration, error) {
	d, _, err := w.run(i)
	return d, err
}

func (w *timingWorkload) op() (time.Duration, uint64, error) {
	w.next++
	return w.run(w.next - 1)
}

// --- sweep workload --------------------------------------------------------

// sweepWorkload runs one parallel scenario sweep per op.
type sweepWorkload struct {
	scs     []hetero.Scenario
	schemes []core.Scheme
	cfg     hetero.Config
	exp     *expect
	// jobs holds the digest of every run of the first sweep, in jobList
	// order, for the traced sweep to reproduce; oursExec is that sweep's
	// mean normalized execution time under Ours.
	jobs     []string
	oursExec float64
}

// sweepJob is one simulation run of a sweep: a scenario's unsecured
// baseline or one of its scheme runs.
type sweepJob struct {
	sc     hetero.Scenario
	scheme core.Scheme
}

// jobList enumerates the sweep's runs in the order digests cover them.
func (w *sweepWorkload) jobList() []sweepJob {
	var out []sweepJob
	for _, sc := range w.scs {
		out = append(out, sweepJob{sc, core.Unsecure})
		for _, s := range w.schemes {
			out = append(out, sweepJob{sc, s})
		}
	}
	return out
}

// sweepRuns returns the sweep's runs in jobList order.
func (w *sweepWorkload) sweepRuns(rs []hetero.SweepResult) []*hetero.RunResult {
	var out []*hetero.RunResult
	for i := range rs {
		out = append(out, &rs[i].Unsecure)
		for _, s := range w.schemes {
			n := rs[i].ByScheme[s]
			out = append(out, &n.Raw)
		}
	}
	return out
}

func (w *sweepWorkload) setup(int) (time.Duration, error) {
	d, _, err := w.op()
	return d, err
}

func (w *sweepWorkload) op() (time.Duration, uint64, error) {
	start := time.Now()
	rs, err := hetero.SweepParallel(context.Background(), w.scs, w.schemes, w.cfg,
		hetero.SweepOptions{Workers: sweepWorkers()})
	d := time.Since(start)
	if err != nil {
		return d, 0, err
	}
	h := sha256.New()
	var reqs uint64
	var jobs []string
	for _, r := range w.sweepRuns(rs) {
		reqs += issued(r)
		jobs = append(jobs, runDigest(r))
		writeRun(h, r)
	}
	for _, r := range rs {
		for _, s := range w.schemes {
			n := r.ByScheme[s]
			putU64(h, math.Float64bits(n.Mean), math.Float64bits(n.TrafficRatio))
		}
	}
	if w.jobs == nil {
		w.jobs = jobs
		w.oursExec = hetero.MeanAcross(rs, core.Ours)
	}
	return d, reqs, w.exp.check("sweep-fig17", hex.EncodeToString(h.Sum(nil)))
}

func (w *sweepWorkload) info() string {
	return fmt.Sprintf("%d runs per sweep, mean Ours normalized exec %.4f", len(w.jobs), w.oursExec)
}

// --- functional workloads --------------------------------------------------

// funcWorkload drives a unimem.Protected image: setup fills it, then each
// op is one 64B Read or Write at an address from a seeded stream, checked
// against a plaintext shadow.
type funcWorkload struct {
	name       string
	image      uint64 // bytes
	seed       uint64
	random     bool   // random fill order and op addresses (else sequential)
	writeOdds  uint64 // one op in each writeOdds is a write
	checkpoint int    // op count at which the image digest is checked
	exp        *expect

	p      *unimem.Protected
	shadow []byte
	ops    opStream
	n      int
	buf    [meta.BlockSize]byte
}

// opStream yields the functional workloads' seeded operations. Each group
// of writeOdds ops holds exactly one write, at a seeded position: the p90
// of op time falls among the writes, where it moves steeply with their
// share, so the share must not vary from seed to seed.
type opStream struct {
	rng       rng
	i, blocks uint64
	random    bool
	writeOdds uint64
	writeAt   uint64 // position of the write in the current group
}

func (w *funcWorkload) newOps() opStream {
	return opStream{rng: newRNG(w.seed ^ 0x6f70), blocks: w.image / meta.BlockSize,
		random: w.random, writeOdds: w.writeOdds}
}

// next returns the next op's address and kind, filling buf with the
// plaintext of a write.
func (s *opStream) next(buf *[meta.BlockSize]byte) (addr uint64, write bool) {
	b := s.i % s.blocks
	if s.random {
		b = s.rng.next() % s.blocks
	}
	if s.i%s.writeOdds == 0 {
		s.writeAt = s.rng.next() % s.writeOdds
	}
	write = s.i%s.writeOdds == s.writeAt
	s.i++
	if write {
		s.rng.fill(buf[:])
	}
	return b * meta.BlockSize, write
}

// fillOrder lists the blocks in the order setup writes them: ascending for
// the streaming image, a seeded permutation for the random one, so the
// tracker never sees a partition filled within one window and the image
// stays at 64B units.
func fillOrder(blocks uint64, random bool, r *rng) []uint64 {
	order := make([]uint64, blocks)
	for i := range order {
		order[i] = uint64(i)
	}
	if random {
		for i := len(order) - 1; i > 0; i-- {
			j := r.next() % uint64(i+1)
			order[i], order[j] = order[j], order[i]
		}
	}
	return order
}

// store is the functional layer a funcWorkload drives: the
// unimem.Protected facade untraced, secmem plus tracker when traced.
type store interface {
	Write(addr uint64, plaintext []byte) error
	Read(addr uint64) ([]byte, error)
}

// fill writes every block of a fresh image in fill order, keeping the
// plaintext in shadow.
func (w *funcWorkload) fill(s store) ([]byte, error) {
	r := newRNG(w.seed ^ 0x66696c6c)
	shadow := make([]byte, w.image)
	var buf [meta.BlockSize]byte
	for _, b := range fillOrder(w.image/meta.BlockSize, w.random, &r) {
		r.fill(buf[:])
		addr := b * meta.BlockSize
		if err := s.Write(addr, buf[:]); err != nil {
			return nil, fmt.Errorf("%s: setup write %#x: %w", w.name, addr, err)
		}
		copy(shadow[addr:], buf[:])
	}
	return shadow, nil
}

func (w *funcWorkload) setup(i int) (time.Duration, error) {
	w.p, w.shadow = nil, nil
	start := time.Now()
	p := unimem.NewProtected(w.image, w.seed)
	shadow, err := w.fill(p)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	w.p, w.shadow, w.ops, w.n = p, shadow, w.newOps(), 0
	if err := w.exp.check(w.name+"/setup", imageDigest(p)); err != nil {
		return d, fmt.Errorf("%w: %v", errImage, err)
	}
	if i == 0 {
		// Warm up on this image and fix the checkpoint digest; the
		// measured ops run on a later, fresh image.
		for w.n < w.checkpoint {
			if _, _, err := w.op(); err != nil {
				return d, err
			}
		}
	}
	return d, nil
}

func (w *funcWorkload) op() (time.Duration, uint64, error) {
	d, err := w.step(w.p, nil)
	return d, 1, err
}

// step runs the next op against s, times it, and checks its result; at
// the checkpoint it also checks the image digest, which digest computes.
func (w *funcWorkload) step(s store, digest func() string) (time.Duration, error) {
	addr, write := w.ops.next(&w.buf)
	var got []byte
	var err error
	start := time.Now()
	if write {
		err = s.Write(addr, w.buf[:])
	} else {
		got, err = s.Read(addr)
	}
	d := time.Since(start)
	w.n++
	switch {
	case err != nil:
		err = fmt.Errorf("%s: op %d at %#x: %w", w.name, w.n, addr, err)
	case write:
		copy(w.shadow[addr:], w.buf[:])
	case !bytes.Equal(got, w.shadow[addr:addr+meta.BlockSize]):
		err = fmt.Errorf("%s: op %d: read %#x returned other than the written plaintext", w.name, w.n, addr)
	}
	if w.n == w.checkpoint {
		if digest == nil {
			digest = func() string { return imageDigest(w.p) }
		}
		if cerr := w.exp.check(w.name+"/checkpoint", digest()); cerr != nil {
			err = fmt.Errorf("%w: %v", errImage, cerr)
		}
	}
	return d, err
}

// saver is an image imageDigest can hash: unimem.Protected or the
// secmem.Memory behind it.
type saver interface {
	Save(w io.Writer) ([]uint64, error)
}

// imageDigest hashes the saved off-chip image and its on-chip roots.
func imageDigest(s saver) string {
	h := sha256.New()
	roots, err := s.Save(h)
	if err != nil {
		return "save-error: " + err.Error()
	}
	putU64(h, roots...)
	return hex.EncodeToString(h.Sum(nil))
}

// --- seeded randomness ------------------------------------------------------

// rng is a xorshift64* generator: deterministic and seedable.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed * 0x2545f4914f6cdd1d}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// fill overwrites b (a multiple of 8 bytes long) with random bytes.
func (r *rng) fill(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
}
