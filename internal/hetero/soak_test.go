package hetero

import (
	"context"
	"io"
	"sync"
	"testing"

	"unimem/internal/core"
	"unimem/internal/probe"
)

// TestSweepParallelProbeTraceSoak is the reduced-scale race soak the
// concurrency lint family's static model cannot replace: a parallel sweep
// with probe collection enabled runs concurrently with an independent
// standalone run exporting its trace, so the race detector sees the whole
// surface at once — worker pool, memoized warmups, per-run probe
// construction (Config.NewProbe is called from the run's goroutine), and
// trace serialization. The name matches the test-race-sweep pattern, so CI
// exercises it under -race on every push.
func TestSweepParallelProbeTraceSoak(t *testing.T) {
	scs := SampleScenarios(4)
	schemes := []core.Scheme{core.Conventional, core.Ours}

	// Per-run traces land in a mutex-guarded slice: NewProbe runs on
	// whichever worker executes the run, exactly the sharing the docs
	// require callers to synchronize.
	var mu sync.Mutex
	var traces []*probe.EventTrace
	cfg := parallelTestCfg
	cfg.Collect = true
	cfg.NewProbe = func(sc Scenario, scheme core.Scheme) probe.Probe {
		tr := probe.NewTrace(256)
		mu.Lock()
		traces = append(traces, tr)
		mu.Unlock()
		return tr
	}

	// A standalone run with its own trace exports concurrently with the
	// sweep; nothing is shared, and -race must agree.
	sideDone := make(chan error, 1)
	go func() {
		side := probe.NewTrace(256)
		sideCfg := parallelTestCfg
		sideCfg.Collect = true
		sideCfg.NewProbe = func(Scenario, core.Scheme) probe.Probe { return side }
		res := Run(scs[0], core.Ours, sideCfg)
		if res.Err != nil {
			sideDone <- res.Err
			return
		}
		sideDone <- side.WriteCSV(io.Discard)
	}()

	rs, err := SweepParallel(context.Background(), scs, schemes, cfg, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sideDone; err != nil {
		t.Fatalf("concurrent standalone run: %v", err)
	}

	if len(rs) != len(scs) {
		t.Fatalf("results = %d, want %d", len(rs), len(scs))
	}
	for _, r := range rs {
		if r.Unsecure.Probe == nil {
			t.Fatalf("scenario %s: Collect set but baseline Probe summary missing", r.Scenario.ID)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// Every measured run (baseline + each scheme, per scenario) built a probe.
	want := len(scs) * (1 + len(schemes))
	if len(traces) != want {
		t.Fatalf("NewProbe built %d traces, want %d", len(traces), want)
	}
	events := uint64(0)
	for _, tr := range traces {
		events += tr.Seen()
		if err := tr.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if events == 0 {
		t.Fatal("soak saw no probe events across the whole sweep")
	}
}
