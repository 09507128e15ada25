package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// layer names a span: a call the traced run times from outside a layer's
// public functions. Replays of captured input streams into fresh layer
// instances are spans of the replayed layer.
type layer int

const (
	lOp      layer = iota // one workload op
	lRun                  // one traced hetero.Run assembly, to en.Finish
	lStep                 // sim.Engine.Step
	lSubmit               // core.Engine.Submit through the device.Submitter wrapper
	lNext                 // workload.Generator.Next through the wrapper
	lCache                // cache.Cache.Access replay (MAC and GT streams)
	lTree                 // tree.Walker replay
	lMeta                 // meta.Geometry address-math replay
	lMem                  // mem.Memory replay
	lTracker              // tracker.AccessRange, replayed or live
	lApply                // secmem.Memory.ApplyDetection
	lRead                 // secmem.Memory.Read
	lWrite                // secmem.Memory.Write
	nLayers
)

var layerNames = [nLayers]string{
	"op", "hetero.Run", "sim.Step", "core.Submit", "workload.Next", "cache", "tree", "meta",
	"mem", "tracker.AccessRange", "secmem.ApplyDetection", "secmem.Read", "secmem.Write",
}

// tracer accumulates host time and item counts per layer, and keeps the
// spans themselves when they are to be exported. A nil tracer times nothing.
type tracer struct {
	epoch time.Time
	ns    [nLayers]int64
	n     [nLayers]int64
	log   *spanLog
	op    int64 // current op, shared by the spans it causes
}

func newTracer(keepSpans bool) *tracer {
	t := &tracer{epoch: time.Now()}
	if keepSpans {
		t.log = &spanLog{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span of layer l and returns its start time.
func (t *tracer) begin(l layer) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	if t.log != nil {
		t.log.open(l, start, t.op)
	}
	return start
}

// end closes the innermost span, which covered one call.
func (t *tracer) end(l layer, start int64) { t.endN(l, start, 1) }

// endN closes the innermost span, which covered items units of work.
func (t *tracer) endN(l layer, start int64, items int64) {
	if t == nil {
		return
	}
	stop := t.now()
	t.ns[l] += stop - start
	t.n[l] += items
	if t.log != nil {
		t.log.close(stop)
	}
}

// perItem is the mean host ns per unit of work of layer l (0 if none).
func (t *tracer) perItem(l layer) float64 { return ratio(float64(t.ns[l]), float64(t.n[l])) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxSpans bounds the spans kept for export; later ones are counted and
// dropped so a long traced run cannot exhaust memory.
const maxSpans = 1 << 20

type span struct {
	layer      layer
	start, end int64
	parent     int32 // index of the enclosing span, -1 at the root
	op         int64
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	spans   []span
	stack   []int32 // open spans; -1 marks a dropped one
	dropped int
}

func (s *spanLog) open(l layer, start, op int64) {
	parent := int32(-1)
	for i := len(s.stack) - 1; i >= 0 && parent < 0; i-- {
		parent = s.stack[i]
	}
	if len(s.spans) >= maxSpans {
		s.dropped++
		s.stack = append(s.stack, -1)
		return
	}
	s.spans = append(s.spans, span{layer: l, start: start, parent: parent, op: op})
	s.stack = append(s.stack, int32(len(s.spans)-1))
}

func (s *spanLog) close(stop int64) {
	i := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if i >= 0 {
		s.spans[i].end = stop
	}
}

// writeChrome exports the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each span's args carry its op, its own
// index and its parent's.
func (s *spanLog) writeChrome(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"otherData\":{\"workload\":%q,\"dropped_spans\":%d},\"traceEvents\":[\n", workload, s.dropped)
	for i, sp := range s.spans {
		b, err := json.Marshal(event{
			Name: layerNames[sp.layer], Cat: workload, Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"op": sp.op, "id": i, "parent": sp.parent},
		})
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
