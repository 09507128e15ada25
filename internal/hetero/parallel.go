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

// job is one unit of sweep work. scheme < 0 marks a scenario's unsecured
// baseline run; otherwise scheme indexes the deduplicated scheme list.
type job struct {
	sc     int
	scheme int
}

// SweepParallel runs every (scenario, scheme) pair of the sweep
// concurrently on a worker pool. It is the engine behind Figures 15-19 at
// full 250-scenario scale:
//
//   - Each scenario's unsecured baseline is simulated exactly once and
//     shared by all of its scheme runs (they only become runnable once the
//     baseline finished, so no worker ever blocks waiting for one).
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

	// The unsecured baseline is implicit; requesting it as a scheme is a
	// no-op, as in the sequential sweep.
	var list []core.Scheme
	for _, s := range schemes {
		if s != core.Unsecure {
			list = append(list, s)
		}
	}

	total := len(scs) * (1 + len(list))
	if total == 0 {
		return []SweepResult{}, ctx.Err()
	}
	results := make([]SweepResult, len(scs))
	runs := make([][]Normalized, len(scs))
	for i := range runs {
		runs[i] = make([]Normalized, len(list))
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Every job the sweep will ever run is accounted in pending up front;
	// scheme jobs enter the queue only after their scenario's baseline
	// completes. The queue is sized for all jobs so sends never block, and
	// it closes when pending hits zero. A cancelled or failed baseline
	// retires its never-enqueued scheme jobs too, so the drain always
	// terminates.
	jobs := make(chan job, total)
	var mu sync.Mutex
	pending := total
	retire := func(n int) {
		mu.Lock()
		pending -= n
		closeNow := pending == 0
		mu.Unlock()
		if closeNow {
			close(jobs)
		}
	}

	start := time.Now() // wall clock feeds only the Progress callback (ETA display), never a result
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
		done++
		p := SweepProgress{Done: done, Total: total, Elapsed: time.Since(start)}
		if done < total {
			p.ETA = p.Elapsed / time.Duration(done) * time.Duration(total-done)
		}
		cb := opts.Progress
		if cb != nil {
			cb(p)
		}
		mu.Unlock()
	}

	runOne := func(j job) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("hetero: sweep run (%s, %v) panicked: %v",
					scs[j.sc].ID, jobScheme(j, list), r)
			}
		}()
		if j.scheme < 0 {
			base := Run(scs[j.sc], core.Unsecure, cfg)
			if base.Err != nil {
				return base.Err
			}
			results[j.sc].Scenario = scs[j.sc]
			results[j.sc].Unsecure = base
			for si := range list {
				jobs <- job{sc: j.sc, scheme: si}
			}
		} else {
			res := Run(scs[j.sc], list[j.scheme], cfg)
			if res.Err != nil {
				return res.Err
			}
			runs[j.sc][j.scheme] = Normalize(res, results[j.sc].Unsecure)
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					// Drain: retire the job (and, for a baseline, its
					// never-to-be-enqueued scheme jobs) without running it.
					if j.scheme < 0 {
						retire(1 + len(list))
					} else {
						retire(1)
					}
					continue
				}
				if err := runOne(j); err != nil {
					fail(err)
					if j.scheme < 0 {
						retire(1 + len(list))
					} else {
						retire(1)
					}
					continue
				}
				complete()
				retire(1)
			}
		}()
	}
	for i := range scs {
		jobs <- job{sc: i, scheme: -1}
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
	for i := range results {
		results[i].ByScheme = make(map[core.Scheme]Normalized, len(list))
		for si, s := range list {
			results[i].ByScheme[s] = runs[i][si]
		}
	}
	return results, nil
}

// jobScheme names a job's scheme for error messages.
func jobScheme(j job, list []core.Scheme) core.Scheme {
	if j.scheme < 0 {
		return core.Unsecure
	}
	return list[j.scheme]
}
