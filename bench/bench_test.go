package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// shortOps is how many ops each workload runs at its reduced size.
var shortOps = map[string]uint64{"cc1-ours": traces, "ff1-conv": traces, "sweep-fig17": 1, "func-stream": 100, "func-random": 600}

func shortOptions(name string) options {
	return options{seed: 1, minOps: shortOps[name], short: true}
}

// TestWorkloadsShort runs every workload untraced at its reduced size:
// every op must reproduce the first setup's digests and plaintext.
func TestWorkloadsShort(t *testing.T) {
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			r := runWorkload(s, shortOptions(s.name), false)
			if !r.correct() || r.failed != 0 || r.attempted < shortOps[s.name] {
				t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.errs)
			}
			for _, m := range endToEnd {
				if v := r.metrics[m.name]; !(v > 0) {
					t.Errorf("%s = %v, want a positive measurement", m.name, v)
				}
			}
		})
	}
}

// TestTracedShort runs every workload traced: the traced assembly must
// reproduce the untraced digests, and each replay its Collector counts.
func TestTracedShort(t *testing.T) {
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			o := shortOptions(s.name)
			o.spans = true
			r := runWorkload(s, o, true)
			if !r.correct() {
				t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.errs)
			}
			for _, m := range perLayer {
				if _, ok := r.metrics[m.name]; !ok {
					t.Errorf("missing %s", m.name)
				}
			}
			if r.spans == nil || len(r.spans.spans) == 0 {
				t.Fatal("no spans kept")
			}
			if strings.HasPrefix(s.name, "func") {
				if r.metrics["secmem.read_ns"] <= 0 || r.metrics["crypto.est_frac"] <= 0 {
					t.Errorf("functional layers not timed: %v", r.metrics)
				}
			} else if r.metrics["sim.events"] <= 0 || r.metrics["mem.ns_per_beat"] <= 0 {
				t.Errorf("timing layers not timed: %v", r.metrics)
			}
		})
	}
}

// TestReplayExactOnFixedScheme pins that the tree replay is checked on the
// fixed-granularity workload: ff1-conv's replayed walks match the run's.
func TestReplayExactOnFixedScheme(t *testing.T) {
	s, _ := findWorkload("ff1-conv")
	w := s.build(1, true, newExpect(nil)).(*timingWorkload)
	tt := newTimingTrace(newTracer(false))
	res, err := tt.run(w.sc, w.scheme, w.config(0))
	if err != nil || len(tt.errs) != 0 {
		t.Fatalf("traced run: %v %v", err, tt.errs)
	}
	if !tt.fixed || res.Probe.Walks == 0 {
		t.Fatalf("fixed=%v walks=%d: the tree replay was not exercised", tt.fixed, res.Probe.Walks)
	}
	// A drifted input stream must be caught.
	tt.walks = tt.walks[:len(tt.walks)/2]
	tt.replay(w.scheme, &res)
	if len(tt.errs) == 0 {
		t.Fatal("a truncated walk stream replayed without a mismatch")
	}
}

// TestReferenceMismatch checks both ways a digest differs from the
// reference: a timing op fails alone, a diverged image fails every op.
func TestReferenceMismatch(t *testing.T) {
	s, _ := findWorkload("cc1-ours")
	o := shortOptions(s.name)
	o.ref = map[string]string{"cc1-ours/3": "0000"}
	if r := runWorkload(s, o, false); r.correct() || r.failed == 0 {
		t.Fatalf("cc1-ours against a wrong digest: failed %d", r.failed)
	}
	s, _ = findWorkload("func-stream")
	o = shortOptions(s.name)
	o.ref = map[string]string{"func-stream/checkpoint": "0000"}
	r := runWorkload(s, o, false)
	if r.failed == 0 || r.failed != r.attempted {
		t.Fatalf("func-stream with a diverged image: attempted %d, failed %d", r.attempted, r.failed)
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{ten, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, 4, []float64{1, 4, 5}},
		{[]float64{3.5, 1.25}, 4, []float64{0.6875, 2.375, 4.0625}},
	}
	for _, c := range cases {
		got := quantiles(c.xs, c.n)
		for i := range c.want {
			if d := got[i] - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
				break
			}
		}
	}
	if q := quantiles(ten, 10)[8]; q < 9.9-1e-12 || q > 9.9+1e-12 {
		t.Errorf("ninth decile = %v, want 9.9", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	samples := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	if p := percentile(samples, 90); p != 90 {
		t.Errorf("p90 = %v, want 90", p)
	}
	if p := percentile(samples, 50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
}

func rec(vals ...float64) *metricRecord {
	m := &metricRecord{Values: vals}
	m.summarize()
	return m
}

func TestVerdict(t *testing.T) {
	lower := metric{name: "op_us_p50", better: "lower", bound: 0.08}
	higher := metric{name: "req_per_s", better: "higher", bound: 0.08}
	parent := rec(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		m      metric
		change *metricRecord
		want   string
	}{
		{lower, rec(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), improved},
		{lower, rec(100, 100, 100, 101, 99, 100, 101, 99, 100, 100), unchanged},
		{lower, rec(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), regressed},
		{higher, rec(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), regressed},
		{higher, rec(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), improved},
	}
	for i, c := range cases {
		if got, _ := verdict(c.m, parent, c.change); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
	noisy := rec(70, 130, 80, 120, 90, 110, 100, 100, 60, 140)
	if got, _ := verdict(lower, noisy, rec(95, 96, 97, 98, 99, 100, 101, 102, 103, 104)); got != unresolved {
		t.Errorf("noisy parent: %s, want %s", got, unresolved)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the benchmark's
// users read, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d vs %d/%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if g := endToEnd[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better || m.Bound != g.bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, g)
		}
	}
	for i, m := range doc.PerLayer {
		if g := perLayer[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, g)
		}
	}
}

// TestResultLine pins the final line's shape: exactly the four keys, and
// every metric of the mode with its unit.
func TestResultLine(t *testing.T) {
	r := &result{name: "ff1-conv", attempted: 3, metrics: map[string]float64{"setup_s": 0.5}}
	b, err := resultLine([]*result{r}, false)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("keys of %s", b)
	}
	var ms map[string]value
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) || ms["setup_s"] != (value{0.5, "s"}) {
		t.Fatalf("metrics %v", ms)
	}
}

func TestCLIRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-compare", "only-one.json"},
		{"-bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestLoadReferenceOtherSeed(t *testing.T) {
	ref, err := loadReference("testdata/reference.json", 2)
	if err != nil || ref != nil {
		t.Fatalf("seed 2: %v, %v; want no reference", ref, err)
	}
	ref, err = loadReference("testdata/reference.json", 1)
	if err != nil || ref["cc1-ours/0"] == "" {
		t.Fatalf("seed 1: %v, %v", ref, err)
	}
}
