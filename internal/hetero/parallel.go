package hetero

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"unimem/internal/core"
)

// SweepProgress is one progress update of a parallel sweep.
type SweepProgress struct {
	// Done / Total count (scenario, scheme) simulation runs, including the
	// per-scenario unsecured baselines.
	Done, Total int
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean rate so
	// far (0 until the first run completes).
	ETA time.Duration
}

// SweepOptions configures SweepParallel.
type SweepOptions struct {
	// Workers is the number of concurrent simulation goroutines
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// Progress, when set, is called after every completed run. Calls are
	// serialized; the callback must not block for long.
	Progress func(SweepProgress)
}

// SweepParallel runs every (scenario, scheme) pair of the sweep
// concurrently on a worker pool. It is the engine behind every scenario
// experiment of internal/report, up to the full 250-scenario space:
//
//   - One flat queue holds every run, each scenario's unsecured baseline
//     included, and is filled and closed before the workers start. The
//     baseline is simulated exactly once per scenario; the scheme runs are
//     normalized against it when the results are assembled.
//   - Every sim.Engine is private to one run and the warmup passes are
//     memoized under the full config fingerprint, so results are
//     byte-identical to the sequential sweep regardless of worker count or
//     completion order; the output is ordered by the input scenario slice.
//   - Cancelling ctx stops the sweep at the next run boundary (an
//     individual simulation is never interrupted) and returns ctx.Err().
//
// A run that fails (RunResult.Err: unknown workload, undrained device)
// cancels the sweep and its error is returned; a panic in a run (e.g. from
// a caller's NewProbe) is caught and returned as an error naming the run.
func SweepParallel(ctx context.Context, scs []Scenario, schemes []core.Scheme, cfg Config, opts SweepOptions) ([]SweepResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Each scenario's runs are its baseline followed by the requested
	// schemes; requesting the baseline as a scheme is a no-op.
	list := []core.Scheme{core.Unsecure}
	for _, s := range schemes {
		if s != core.Unsecure {
			list = append(list, s)
		}
	}

	total := len(scs) * len(list)
	if total == 0 {
		return []SweepResult{}, ctx.Err()
	}
	runs := make([]RunResult, total) // run k is (scs[k/len(list)], list[k%len(list)])
	jobs := make(chan int, total)
	for k := range total {
		jobs <- k
	}
	close(jobs)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now() // wall clock feeds only the Progress callback (ETA display), never a result
	var mu sync.Mutex
	done := 0
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	complete := func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		p := SweepProgress{Done: done, Total: total, Elapsed: time.Since(start)}
		if done < total {
			p.ETA = p.Elapsed / time.Duration(done) * time.Duration(total-done)
		}
		if opts.Progress != nil {
			opts.Progress(p)
		}
	}
	runOne := func(k int) (err error) {
		sc, scheme := scs[k/len(list)], list[k%len(list)]
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("hetero: sweep run (%s, %v) panicked: %v", sc.ID, scheme, r)
			}
		}()
		runs[k] = Run(sc, scheme, cfg)
		return runs[k].Err
	}

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				if ctx.Err() != nil {
					return
				}
				if err := runOne(k); err != nil {
					fail(err)
					return
				}
				complete()
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Assemble in input order so the output is deterministic no matter
	// which worker finished which run first.
	results := make([]SweepResult, len(scs))
	for i, sc := range scs {
		rs := runs[i*len(list) : (i+1)*len(list)]
		results[i] = SweepResult{Scenario: sc, Unsecure: rs[0], ByScheme: make(map[core.Scheme]Normalized, len(list)-1)}
		for si, s := range list[1:] {
			results[i].ByScheme[s] = Normalize(rs[1+si], rs[0])
		}
	}
	return results, nil
}
