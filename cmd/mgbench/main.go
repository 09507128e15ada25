// Command mgbench regenerates the paper's evaluation tables and figures
// from the simulator.
//
// Usage:
//
//	mgbench                          # all experiments, scaled sweep
//	mgbench -exp fig16               # one experiment
//	mgbench -full                    # full 250-scenario sweep (slow)
//	mgbench -scale 0.3 -sample 50    # custom trace scale / sweep size
//	mgbench -full -workers 8         # parallel sweep on 8 workers
//
// Scenario sweeps run on the parallel sweep engine; -workers caps its
// worker pool (0 = all CPUs) and -progress traces completed/total with an
// ETA on stderr. Results are identical at any worker count.
//
// Experiment identifiers: fig04 fig05 fig06 table2 fig15 fig16 fig17
// fig18 fig19 fig20 fig21, plus the extension experiments ext-latency
// (read-latency distribution per scheme), ext-walklen (tree-walk length
// distribution), ext-breakdown (DRAM traffic split by metadata type) and
// ext-matrix (the full scheme registry over an accelerator-heavy mix).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"unimem/internal/hetero"
	"unimem/internal/report"
)

func main() {
	exp := flag.String("exp", "", "experiment id (default: all)")
	scale := flag.Float64("scale", 0.12, "trace-length scale factor")
	seed := flag.Uint64("seed", 1, "trace seed")
	sample := flag.Int("sample", 24, "scenarios in sweeps (0 = all 250)")
	full := flag.Bool("full", false, "shorthand for -sample 0 -scale 0.2")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = all CPUs)")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()
	if !(*scale > 0) { // NaN fails too
		fmt.Fprintf(os.Stderr, "-scale must be positive, got %v\n", *scale)
		os.Exit(2)
	}

	if *list {
		fmt.Println(strings.Join(report.IDs(), "\n"))
		return
	}
	o := report.Options{Scale: *scale, Seed: *seed, SampleN: *sample, Workers: *workers}
	if *full {
		o.SampleN = 0
		o.Scale = 0.2
	}
	if *progress {
		o.Progress = func(p hetero.SweepProgress) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d runs, eta %v   ", p.Done, p.Total, p.ETA.Round(100*time.Millisecond))
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *exp != "" {
		f, err := report.ByID(*exp, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(f)
		return
	}
	for _, id := range report.IDs() {
		f, err := report.ByID(id, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(f)
	}
}
