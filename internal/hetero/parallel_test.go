package hetero

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"unimem/internal/core"
	"unimem/internal/probe"
)

// parallelTestCfg keeps the determinism sweeps tractable under -race.
var parallelTestCfg = Config{Scale: 0.03, Seed: 1}

// TestSweepParallelMatchesSequential asserts the tentpole guarantee: the
// parallel sweep is a pure scheduler, so workers=1 and workers=N produce
// identical results on a >=8-scenario sample, including a scheme with a
// memoized warmup pass (Static-device-best).
func TestSweepParallelMatchesSequential(t *testing.T) {
	scs := SampleScenarios(8)
	schemes := []core.Scheme{core.Conventional, core.Ours, core.StaticDeviceBest}

	seq, err := SweepParallel(context.Background(), scs, schemes, parallelTestCfg, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepParallel(context.Background(), scs, schemes, parallelTestCfg, SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(scs) || len(par) != len(scs) {
		t.Fatalf("result lengths: seq=%d par=%d want %d", len(seq), len(par), len(scs))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Fatalf("scenario %s: parallel result diverges from sequential\nseq: %+v\npar: %+v",
				scs[i].ID, seq[i], par[i])
		}
	}
}

// TestSweepParallelOrdering asserts output order follows the input
// scenario slice, not completion order.
func TestSweepParallelOrdering(t *testing.T) {
	scs := SampleScenarios(6)
	rs, err := SweepParallel(context.Background(), scs, []core.Scheme{core.Conventional}, parallelTestCfg, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Scenario.ID != scs[i].ID {
			t.Fatalf("result %d is %s, want %s", i, r.Scenario.ID, scs[i].ID)
		}
		if r.Unsecure.MaxFinish() == 0 {
			t.Fatalf("scenario %s: baseline missing", r.Scenario.ID)
		}
		if len(r.ByScheme) != 1 {
			t.Fatalf("scenario %s: schemes = %d", r.Scenario.ID, len(r.ByScheme))
		}
	}
}

// TestSweepParallelCancellation asserts both cancellation paths: a context
// cancelled up front yields no work, and one cancelled mid-sweep stops at
// the next run boundary with ctx.Err(). "Stops" is checked by count: from
// the cancel on, only the run whose callback cancelled and the runs already
// in flight on the other workers may complete — at most workers runs.
func TestSweepParallelCancellation(t *testing.T) {
	scs := SampleScenarios(8)
	schemes := []core.Scheme{core.Conventional, core.Ours}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := SweepParallel(ctx, scs, schemes, parallelTestCfg, SweepOptions{Workers: 4})
	if err != context.Canceled {
		t.Fatalf("pre-cancelled sweep: err = %v, want context.Canceled", err)
	}
	if rs != nil {
		t.Fatalf("pre-cancelled sweep returned results: %d", len(rs))
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	const workers = 2
	completed, cancelledAt := 0, 0
	rs, err = SweepParallel(ctx2, scs, schemes, parallelTestCfg, SweepOptions{
		Workers: workers,
		Progress: func(p SweepProgress) {
			completed = p.Done
			if p.Done >= 2 && cancelledAt == 0 {
				cancelledAt = p.Done
				cancel2()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
	if rs != nil {
		t.Fatal("cancelled sweep returned partial results")
	}
	if completed < 2 {
		t.Fatalf("progress reported %d completions before cancel", completed)
	}
	if after := completed - cancelledAt + 1; after > workers {
		t.Fatalf("%d runs completed from the cancel on (%d of %d in all), want at most %d",
			after, completed, len(scs)*(1+len(schemes)), workers)
	}
}

// TestSweepParallelProgress asserts the callback fires once per run with
// monotonic counts and a correct total.
func TestSweepParallelProgress(t *testing.T) {
	scs := SampleScenarios(4)
	schemes := []core.Scheme{core.Conventional, core.Ours}
	wantTotal := len(scs) * (1 + len(schemes))

	var calls int
	last := 0
	_, err := SweepParallel(context.Background(), scs, schemes, parallelTestCfg, SweepOptions{
		Workers: 4,
		Progress: func(p SweepProgress) {
			calls++
			if p.Total != wantTotal {
				t.Errorf("Total = %d, want %d", p.Total, wantTotal)
			}
			if p.Done != last+1 {
				t.Errorf("Done = %d, want %d (serialized, monotonic)", p.Done, last+1)
			}
			last = p.Done
			if p.Done < p.Total && p.ETA <= 0 {
				t.Errorf("ETA not positive mid-sweep at %d/%d", p.Done, p.Total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != wantTotal {
		t.Fatalf("progress calls = %d, want %d", calls, wantTotal)
	}
}

// TestSweepParallelUnsecureRequested asserts requesting the baseline as a
// scheme stays a no-op, as in the sequential sweep.
func TestSweepParallelUnsecureRequested(t *testing.T) {
	rs, err := SweepParallel(context.Background(), SampleScenarios(2),
		[]core.Scheme{core.Unsecure, core.Conventional}, parallelTestCfg, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if _, ok := r.ByScheme[core.Unsecure]; ok {
			t.Fatal("Unsecure stored in ByScheme")
		}
		if len(r.ByScheme) != 1 {
			t.Fatalf("schemes = %d, want 1", len(r.ByScheme))
		}
	}
}

// TestSweepParallelEmpty asserts the degenerate sweep terminates.
func TestSweepParallelEmpty(t *testing.T) {
	rs, err := SweepParallel(context.Background(), nil, []core.Scheme{core.Ours}, parallelTestCfg, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("results = %d", len(rs))
	}
}

// TestSweepParallelPanicBecomesError asserts a panicking run (here a
// caller's probe constructor) fails the sweep with an error naming the
// run instead of killing the process.
func TestSweepParallelPanicBecomesError(t *testing.T) {
	cfg := parallelTestCfg
	cfg.NewProbe = func(Scenario, core.Scheme) probe.Probe { panic("probe constructor failed") }
	rs, err := SweepParallel(context.Background(), SampleScenarios(1), []core.Scheme{core.Conventional}, cfg, SweepOptions{Workers: 2})
	if err == nil {
		t.Fatal("sweep with a panicking probe did not fail")
	}
	if !strings.Contains(err.Error(), "panicked: probe constructor failed") {
		t.Fatalf("unexpected sweep error: %v", err)
	}
	if rs != nil {
		t.Fatal("failed sweep returned results")
	}
}
