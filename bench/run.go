package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"unimem/internal/hetero"
)

// reservoirSize bounds the op latencies a loop keeps: beyond it, a uniform
// reservoir sample stands for all ops, so the loop never allocates.
const reservoirSize = 1 << 16

// options are one invocation's settings for every workload it runs.
type options struct {
	seed    uint64
	seconds float64 // host seconds each measured loop runs
	minOps  uint64  // ops each loop runs at least (tests use it with seconds 0)
	short   bool    // reduced workload sizes (tests)
	spans   bool    // keep spans for -trace-out
	ref     map[string]string
}

// result is one workload's outcome, printed as the benchmark's JSON line.
type result struct {
	name              string
	attempted, failed uint64
	metrics           map[string]float64
	info              string
	errs              []string
	spans             *spanLog
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *result) fail(ops uint64, err error) {
	r.failed += ops
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// A shared host's speed drifts: on the 2-vCPU Xeon VM the bounds were
// measured on, the same code ran up to 1.6 times slower in some ten-second
// runs than in others, and its speed moved within a run and even between
// consecutive milliseconds. So a run times short calibration batches of
// standard-library code before and after every setup and, in its loop, one
// per calibrateEvery of ops, after the op that ends that interval. It scales
// the host times of a setup, or of a window of about windowLen of ops, by
// calibRef over the mean time of the batches taken around it: host times
// are reported in units of a host on which a batch takes calibRef.
const (
	calibrateEvery = 50 * time.Millisecond
	windowLen      = 500 * time.Millisecond
	calibRef       = 0.75e6  // ns per batch
	setupBatches   = 4       // batches before and after each setup
	windowOps      = 1 << 16 // ops a window holds at most
)

var calibKey, calibMsg = make([]byte, 32), [2][]byte{make([]byte, 80), make([]byte, 80)}

// calibrate times par concurrent batches of 1000 HMAC-SHA256 tags over 80
// bytes, each from a fresh hmac.New: hashing plus small allocations, the
// mix through which the workloads slow down when the host does (a batch
// that only hashed tracked them half as well). A workload that keeps par
// CPUs busy is calibrated on as many, and its batch time is the harmonic
// mean of theirs: its workers share one queue of jobs, so its speed is the
// sum of the CPUs' speeds. It also returns the allocations the batches
// made, which the per-op counts leave out.
func calibrate(par int) (ns float64, mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	times := make([]float64, par)
	var wg sync.WaitGroup
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			start := time.Now()
			calibBatch(calibMsg[p])
			times[p] = float64(time.Since(start).Nanoseconds())
		}(p)
	}
	wg.Wait()
	var speed float64
	for _, t := range times {
		speed += 1 / t
	}
	runtime.ReadMemStats(&ms)
	return float64(par) / speed, ms.Mallocs - m0, ms.TotalAlloc - b0
}

// calibBatch is one calibration batch; msg is its own scratch message.
func calibBatch(msg []byte) {
	for i := 0; i < 1000; i++ {
		h := hmac.New(sha256.New, calibKey)
		h.Write(msg)
		msg[0] ^= h.Sum(nil)[0]
	}
}

// loop is the account of one measured closed loop. Host times in it are
// scaled to the reference host (see calibRef).
type loop struct {
	calibNs             []float64 // calibration batch times
	setupNs             []float64
	winRate             []float64 // requests per second of each window
	lat                 []float64 // op times, ns: a reservoir sample of all ops
	seen                uint64    // ops offered to the reservoir
	liveHeap            uint64
	ops, failed         uint64
	mallocs, allocBytes uint64
	gcCycles, gcCPU     float64 // runtime/metrics deltas over the loop
	cpu                 float64
	err                 error
	pick                rng

	win                  []int64   // unscaled op times of the window in progress
	winCal               []float64 // batch times around it: the previous window's last, then its own
	winReqs              uint64
	winNs                int64
	calMallocs, calBytes uint64 // allocations of the loop's calibrations
	par                  int    // CPUs the workload keeps busy
}

var runtimeSamples = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// calibrate times n calibration batches and appends their times to cal.
func (l *loop) calibrate(cal []float64, n int) []float64 {
	for ; n > 0; n-- {
		c, m, b := calibrate(l.par)
		l.calibNs = append(l.calibNs, c)
		l.calMallocs += m
		l.calBytes += b
		cal = append(cal, c)
	}
	return cal
}

// closeWindow scales the window's ops by its batches' mean time and folds
// them into the loop; its last batch opens the next window.
func (l *loop) closeWindow() {
	if len(l.win) == 0 {
		return
	}
	s := calibRef / mean(l.winCal)
	l.winCal = append(l.winCal[:0], l.winCal[len(l.winCal)-1])
	l.winRate = append(l.winRate, ratio(float64(l.winReqs), s*float64(l.winNs)/1e9))
	for _, d := range l.win {
		l.seen++
		if len(l.lat) < reservoirSize {
			l.lat = append(l.lat, s*float64(d))
		} else if j := l.pick.next() % l.seen; j < reservoirSize {
			l.lat[j] = s * float64(d)
		}
	}
	l.win, l.winReqs, l.winNs = l.win[:0], 0, 0
}

// runLoop sets w up n times, then runs its ops until seconds have passed
// and at least minOps ran.
func runLoop(w workload, n int, seconds float64, minOps uint64, seed uint64) *loop {
	l := &loop{pick: newRNG(seed ^ 0x72657376), par: 1}
	if _, ok := w.(*sweepWorkload); ok {
		l.par = sweepWorkers()
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		cal := l.calibrate(nil, setupBatches)
		d, err := w.setup(i)
		cal = l.calibrate(cal, setupBatches)
		l.setupNs = append(l.setupNs, calibRef/mean(cal)*float64(d.Nanoseconds()))
		if err != nil {
			l.err = fmt.Errorf("setup: %w", err)
			return l
		}
	}
	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.liveHeap = ms.HeapAlloc
	l.lat, l.win = make([]float64, 0, reservoirSize), make([]int64, 0, windowOps)
	runtime.ReadMemStats(&ms)
	rt0, m0, b0 := readRuntime(), ms.Mallocs, ms.TotalAlloc
	l.calMallocs, l.calBytes = 0, 0
	l.winCal = l.calibrate(l.winCal, 1)
	start, winStart, calibrated := time.Now(), time.Now(), time.Now()
	for l.ops < minOps || time.Since(start).Seconds() < seconds {
		d, reqs, err := w.op()
		l.ops++
		if err != nil {
			l.failed++
			if l.err == nil {
				l.err = err
			}
			if errors.Is(err, errImage) {
				l.failed = l.ops
				break
			}
			continue
		}
		l.win = append(l.win, d.Nanoseconds())
		l.winReqs += reqs
		l.winNs += d.Nanoseconds()
		if full := len(l.win) == windowOps; full || time.Since(calibrated) >= calibrateEvery {
			if d >= windowLen {
				// An op this long (a sweep) leaves tens of MB of garbage,
				// whose collection would otherwise run during the batch
				// and slow it: the scale would then track the collector,
				// not the host.
				runtime.GC()
			}
			l.winCal = l.calibrate(l.winCal, 1)
			calibrated = time.Now()
			if full || time.Since(winStart) >= windowLen {
				l.closeWindow()
				winStart = calibrated
			}
		}
	}
	l.winCal = l.calibrate(l.winCal, 1)
	l.closeWindow()
	runtime.ReadMemStats(&ms)
	rt1 := readRuntime()
	l.mallocs, l.allocBytes = ms.Mallocs-m0-l.calMallocs, ms.TotalAlloc-b0-l.calBytes
	l.gcCycles, l.gcCPU, l.cpu = rt1[0]-rt0[0], rt1[1]-rt0[1], rt1[2]-rt0[2]
	return l
}

// hostSpeed is how much faster than the reference host this one ran.
func (l *loop) hostSpeed() float64 { return ratio(calibRef, median(l.calibNs)) }

// p50 is the loop's median op time, ns in reference units.
func (l *loop) p50() float64 { return percentile(l.lat, 50) }

func (l *loop) endToEnd() map[string]float64 {
	ops := float64(l.ops)
	return map[string]float64{
		"setup_s":            median(l.setupNs) / 1e9,
		"req_per_s":          median(l.winRate),
		"op_us_p50":          l.p50() / 1e3,
		"op_us_p90":          percentile(l.lat, 90) / 1e3,
		"allocs_per_op":      ratio(float64(l.mallocs), ops),
		"alloc_bytes_per_op": ratio(float64(l.allocBytes), ops),
		"live_heap_mb":       float64(l.liveHeap) / 1e6,
	}
}

// account folds the loop's op counts and first failure into r.
func (l *loop) account(r *result) {
	r.attempted += l.ops
	r.failed += l.failed
	if l.err != nil {
		if l.ops == 0 {
			r.attempted, r.failed = r.attempted+1, r.failed+1
		}
		r.errs = append(r.errs, l.err.Error())
	}
}

type informer interface{ info() string }

// runWorkload measures one workload: untraced, its end-to-end metrics;
// traced, its per-layer metrics.
func runWorkload(s spec, o options, traced bool) *result {
	exp := newExpect(o.ref)
	w := s.build(o.seed, o.short, exp)
	r := &result{name: s.name}
	if !traced {
		l := runLoop(w, s.setups, o.seconds, o.minOps, o.seed)
		l.account(r)
		r.metrics = l.endToEnd()
		r.info = fmt.Sprintf("host speed %.3f of the reference", l.hostSpeed())
	} else {
		r.metrics = map[string]float64{}
		for _, m := range perLayer {
			r.metrics[m.name] = 0
		}
		t := newTracer(o.spans)
		switch w := w.(type) {
		case *timingWorkload:
			traceTiming(w, o, t, r)
		case *sweepWorkload:
			traceSweep(w, o, t, r)
		case *funcWorkload:
			traceFunc(w, o, t, r)
		}
		r.spans = t.log
	}
	if i, ok := w.(informer); ok {
		r.info = strings.TrimPrefix(r.info+"; "+i.info(), "; ")
	}
	return r
}

// untracedBaseline runs the untraced loop a traced run compares itself
// with, and fills the runtime metrics from it.
func untracedBaseline(w workload, o options, seconds float64, r *result) *loop {
	l := runLoop(w, 1, seconds, o.minOps, o.seed)
	l.account(r)
	r.metrics["runtime.gc_cycles_per_op"] = ratio(l.gcCycles, float64(l.ops))
	r.metrics["runtime.gc_cpu_frac"] = ratio(l.gcCPU, l.cpu)
	return l
}

// tracedLoop runs op until seconds have passed and at least minOps ran,
// calibrating as runLoop does on par CPUs. It returns the op count and the
// factor that puts the phase's host times into reference units, so they
// compare with the untraced loop's although the host's speed moved.
func tracedLoop(o options, seconds float64, par int, t *tracer, op func() error, r *result) (uint64, float64) {
	var ops uint64
	var calib []float64
	start, calibrated := time.Now(), time.Now()
	for ops < o.minOps || time.Since(start).Seconds() < seconds {
		t.op = int64(ops)
		s := t.begin(lOp)
		err := op()
		t.end(lOp, s)
		ops++
		r.attempted++
		if errors.Is(err, errImage) {
			r.fail(ops, err) // a diverged image fails every traced op
			break
		}
		if err != nil {
			r.fail(1, err)
		}
		if time.Since(calibrated) >= calibrateEvery {
			c, _, _ := calibrate(par)
			calib, calibrated = append(calib, c), time.Now()
		}
	}
	c, _, _ := calibrate(par)
	return ops, calibRef / mean(append(calib, c))
}

func traceTiming(w *timingWorkload, o options, t *tracer, r *result) {
	base := untracedBaseline(w, o, o.seconds/2, r)
	if base.ops == 0 {
		return
	}
	tt := newTimingTrace(t)
	ops, scale := tracedLoop(o, o.seconds/2, 1, t, func() error {
		before, errs := t.ns[lRun], len(tt.errs)
		i := w.next
		w.next++
		res, err := tt.run(w.sc, w.scheme, w.config(i))
		tt.runNs = append(tt.runNs, float64(t.ns[lRun]-before))
		if err == nil {
			err = w.check(&res, i)
		}
		if err == nil && len(tt.errs) > errs {
			err = errors.New(tt.errs[errs])
		}
		return err
	}, r)
	tt.layerMetrics(r.metrics, float64(ops))
	r.metrics["hetero.jobs"] = 1
	r.metrics["hetero.job_ms_p50"] = base.p50() / 1e6
	r.metrics["trace.overhead_frac"] = ratio(scale*median(tt.runNs), base.p50()) - 1
}

func traceSweep(w *sweepWorkload, o options, t *tracer, r *result) {
	third := o.seconds / 3
	base := untracedBaseline(w, o, third, r)
	if w.jobs == nil {
		return
	}
	jobs := w.jobList()
	// The sweep's jobs one at a time, untraced: per-job cost, and the
	// sequential total the parallel sweep and the traced sweep compare
	// with. rawSeq stays unscaled for the parallel efficiency, whose two
	// sides are calibrated on different CPU counts.
	var jobNs, seqNs, rawSeq []float64
	start := time.Now()
	for len(seqNs) == 0 || time.Since(start).Seconds() < third {
		var pass []float64
		for i, j := range jobs {
			t0 := time.Now()
			res := hetero.Run(j.sc, j.scheme, w.cfg)
			pass = append(pass, float64(time.Since(t0).Nanoseconds()))
			r.attempted++
			if res.Err != nil || runDigest(&res) != w.jobs[i] {
				r.fail(1, fmt.Errorf("sequential job %d (%s, %v) differs from the sweep's run", i, j.sc.ID, j.scheme))
			}
		}
		c, _, _ := calibrate(1)
		var total float64
		for _, d := range pass {
			jobNs, total = append(jobNs, d*calibRef/c), total+d
		}
		seqNs, rawSeq = append(seqNs, total*calibRef/c), append(rawSeq, total)
	}
	tt := newTimingTrace(t)
	ops, scale := tracedLoop(o, third, 1, t, func() error {
		before := t.ns[lRun]
		var first error
		for i, j := range jobs {
			errs := len(tt.errs)
			res, err := tt.run(j.sc, j.scheme, w.cfg)
			switch {
			case err != nil:
			case runDigest(&res) != w.jobs[i]:
				err = fmt.Errorf("traced job %d (%s, %v) differs from the sweep's run", i, j.sc.ID, j.scheme)
			case len(tt.errs) > errs:
				err = errors.New(tt.errs[errs])
			}
			if first == nil {
				first = err
			}
		}
		tt.runNs = append(tt.runNs, float64(t.ns[lRun]-before))
		return first
	}, r)
	tt.layerMetrics(r.metrics, float64(ops))
	r.metrics["hetero.jobs"] = float64(len(jobs))
	r.metrics["hetero.job_ms_p50"] = median(jobNs) / 1e6
	r.metrics["hetero.parallel_eff"] = ratio(median(rawSeq), float64(sweepWorkers())*base.p50()/base.hostSpeed())
	r.metrics["trace.overhead_frac"] = ratio(scale*median(tt.runNs), median(seqNs)) - 1
}

func traceFunc(w *funcWorkload, o options, t *tracer, r *result) {
	base := untracedBaseline(w, o, o.seconds/2, r)
	if base.ops == 0 {
		return
	}
	w.p, w.shadow = nil, nil
	runtime.GC()
	st := newSecStore(w.image, w.seed)
	shadow, err := w.fill(st)
	if err == nil {
		err = w.exp.check(w.name+"/setup", imageDigest(st))
	}
	if err != nil {
		r.attempted++
		r.fail(1, fmt.Errorf("traced setup: %w", err))
		return
	}
	w.shadow, w.ops, w.n = shadow, w.newOps(), 0
	st.t = t
	sw0 := st.m.Stats.Promotions + st.m.Stats.Demotions
	det0 := st.trk.Stats.Detections
	var opNs []float64
	digest := func() string { return imageDigest(st) }
	_, scale := tracedLoop(o, o.seconds/2, 1, t, func() error {
		before := t.now()
		_, err := w.step(st, digest)
		opNs = append(opNs, float64(t.now()-before))
		return err
	}, r)
	st.layerMetrics(r.metrics, w.seed, st.m.Stats.Promotions+st.m.Stats.Demotions-sw0, st.trk.Stats.Detections-det0)
	r.metrics["trace.overhead_frac"] = ratio(scale*median(opNs), base.p50()) - 1
}
