// Package sim provides the discrete-event simulation kernel shared by the
// device models, the DRAM model, and the memory-protection engine.
//
// Time is kept in integer picoseconds so that the 2.2 GHz CPU domain, the
// 1 GHz GPU/NPU domains, and the 2.4 GHz memory-controller domain of the
// simulated NVIDIA-Orin-like SoC (paper Table 3) coexist without
// fractional-cycle error. Components schedule callbacks on a binary-heap
// event queue owned by an Engine; there is no wall-clock dependence and a
// run with the same inputs is fully deterministic.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute simulation timestamp in picoseconds.
type Time int64

// MaxTime is the largest representable timestamp.
const MaxTime = Time(math.MaxInt64)

// PsPerGPUCycle is the period of the 1 GHz GPU clock (paper Table 3), the
// unit of the engine's crypto latency and of the stream detector's
// 16K-cycle window.
const PsPerGPUCycle = 1000

// event is a scheduled callback. The callback receives the event's own
// timestamp, so a completion path passes a callback bound once (a method
// value held for the component's lifetime) instead of allocating a closure
// that captures the time.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func(Time)
}

// eventLess orders events by (at, seq): earliest first, FIFO among equal
// timestamps. (at, seq) is unique per event, so the order is total and the
// pop sequence does not depend on the heap's internal layout.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled binary min-heap. container/heap would box
// every pushed event into an interface{}, allocating once per scheduled
// callback — on the hot path of every memory beat.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop callback references so they can be collected
	*h = s[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && eventLess(s[l], s[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && eventLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// Engine owns the event queue and the simulation clock.
//
// The zero value is not ready to use; call NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t and passes it t. Scheduling in
// the past (t less than Now) panics: it always indicates a component bug,
// never valid input.
func (e *Engine) At(t Time, fn func(Time)) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d picoseconds from now.
func (e *Engine) After(d Time, fn func(Time)) { e.At(e.now+d, fn) }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }

// Step executes the single earliest event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	ev.fn(ev.at)
	return true
}

// Run executes events until the queue drains or the clock passes deadline,
// whichever comes first, and returns the final simulation time.
func (e *Engine) Run(deadline Time) Time {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	return e.now
}

// RunAll executes events until the queue drains and returns the final time.
func (e *Engine) RunAll() Time { return e.Run(MaxTime) }
