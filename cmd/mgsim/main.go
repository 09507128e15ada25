// Command mgsim runs one heterogeneous scenario under one protection
// scheme and prints the full outcome breakdown.
//
// Usage:
//
//	mgsim -scenario cc1 -scheme Ours
//	mgsim -cpu mcf -gpu mm -npu1 alex -npu2 dlrm -scheme "BMF&Unused+Ours"
//	mgsim -scenario cc1 -scheme Ours -breakdown   # walk-length histogram +
//	                                              # traffic split (probe)
//	mgsim -scenario ff1 -scheme Ours -events 50   # dump the last 50 engine
//	                                              # events as CSV
//	mgsim -attack replay -scheme Ours             # one adversarial campaign
//	mgsim -attack all -scheme "MAC-only"          # every attack class
//	mgsim -attack matrix                          # scheme x class expectations
//	mgsim -scenario cc1 -cpuprofile cpu.pprof     # host CPU profile of the run
//	mgsim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"unimem/internal/attack"
	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/mem"
	"unimem/internal/probe"
	"unimem/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, simulates, and
// writes the report to stdout (errors to stderr), returning the exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mgsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioID := fs.String("scenario", "", "selected scenario id (ff1..cc3)")
	cpuW := fs.String("cpu", "mcf", "CPU workload")
	gpuW := fs.String("gpu", "mm", "GPU workload")
	npu1 := fs.String("npu1", "alex", "first NPU workload")
	npu2 := fs.String("npu2", "dlrm", "second NPU workload")
	schemeName := fs.String("scheme", "Ours", "protection scheme (Table 5 name)")
	scale := fs.Float64("scale", 0.15, "trace-length scale")
	seed := fs.Uint64("seed", 1, "trace seed")
	breakdown := fs.Bool("breakdown", false, "print walk-length histogram and traffic split (probe-collected)")
	events := fs.Int("events", 0, "dump the last N engine events as CSV")
	attackArg := fs.String("attack", "", `run adversarial campaigns instead of a simulation: an attack class, "all", or "matrix"`)
	attackSeed := fs.Uint64("attack-seed", 1, "campaign schedule seed for -attack")
	list := fs.Bool("list", false, "list scenarios and schemes, then exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*scale > 0) { // NaN fails too
		fmt.Fprintf(stderr, "-scale must be positive, got %v\n", *scale)
		return 2
	}
	if *events < 0 {
		fmt.Fprintf(stderr, "-events must not be negative, got %d\n", *events)
		return 2
	}
	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, err)
				code = max(code, 1)
			}
		}()
	}

	if *list {
		fmt.Fprintln(stdout, "selected scenarios:")
		for _, sc := range hetero.SelectedScenarios() {
			fmt.Fprintf(stdout, "  %-4s %s + %s + %s + %s\n", sc.ID, sc.CPU, sc.GPU, sc.NPU1, sc.NPU2)
		}
		fmt.Fprintln(stdout, "schemes:")
		for _, s := range core.Schemes {
			if s.IsExtension() {
				fmt.Fprintf(stdout, "  %s (extension)\n", s)
			} else {
				fmt.Fprintf(stdout, "  %s\n", s)
			}
		}
		return 0
	}

	var scheme core.Scheme = -1
	for _, s := range core.Schemes {
		if s.String() == *schemeName {
			scheme = s
		}
	}
	if scheme < 0 {
		fmt.Fprintf(stderr, "unknown scheme %q (try -list)\n", *schemeName)
		return 2
	}

	if *attackArg != "" {
		return runAttack(stdout, stderr, scheme, *attackArg, *attackSeed)
	}

	sc := hetero.Scenario{ID: "custom", CPU: *cpuW, GPU: *gpuW, NPU1: *npu1, NPU2: *npu2}
	if *scenarioID != "" {
		found := false
		for _, s := range hetero.SelectedScenarios() {
			if s.ID == *scenarioID {
				sc, found = s, true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "unknown scenario %q (try -list)\n", *scenarioID)
			return 2
		}
	}

	cfg := hetero.Config{Scale: *scale, Seed: *seed}
	base := hetero.Run(sc, core.Unsecure, cfg)
	if base.Err != nil {
		fmt.Fprintln(stderr, base.Err)
		return 1
	}

	// Probes attach to the measured scheme run only: the collector feeds
	// -breakdown, the bounded ring trace feeds -events.
	runCfg := cfg
	runCfg.Collect = *breakdown
	var trace *probe.EventTrace
	if *events > 0 {
		trace = probe.NewTrace(*events)
		runCfg.NewProbe = func(hetero.Scenario, core.Scheme) probe.Probe { return trace }
	}
	res := hetero.Run(sc, scheme, runCfg)
	if res.Err != nil {
		fmt.Fprintln(stderr, res.Err)
		return 1
	}
	n := hetero.Normalize(res, base)

	fmt.Fprintf(stdout, "scenario %s under %s (scale %.2f, seed %d)\n\n", sc.ID, scheme, *scale, *seed)
	t := stats.NewTable("device", "workload", "exec us", "unsecure us", "normalized", "mean rd ns")
	for i, d := range res.Devices {
		t.Row(d.Class.String(), d.Name,
			float64(d.FinishPs)/1e6, float64(base.Devices[i].FinishPs)/1e6, n.PerDevice[i],
			res.EngineDev[i].MeanReadLatencyPs()/1000)
	}
	fmt.Fprintln(stdout, t)
	fmt.Fprintf(stdout, "normalized execution time : %.3f\n", n.Mean)
	fmt.Fprintf(stdout, "traffic                   : %.2f MB (%.3fx unsecure; %.1f%% metadata)\n",
		float64(res.TotalBytes)/1e6, n.TrafficRatio, 100*float64(res.MetaBytes)/float64(res.TotalBytes))
	fmt.Fprintf(stdout, "security cache misses     : %d\n", res.SecCacheMisses)
	fmt.Fprintf(stdout, "mean tree-walk levels     : %.2f\n", res.MeanWalk)
	fmt.Fprintf(stdout, "granularity detections    : %d\n", res.Detections)
	fmt.Fprintf(stdout, "read latency p50/p90/p99  : %d / %d / %d ns (bucket upper bounds)\n",
		res.Latency.Percentile(50), res.Latency.Percentile(90), res.Latency.Percentile(99))
	sw := res.Switches
	if sw.Total() > 0 {
		fmt.Fprintf(stdout, "switches                  : down=%d up(WAR/WAW/RAR/RAW)=%d/%d/%d/%d correct=%d\n",
			sw.DownAll, sw.UpWAR, sw.UpWAW, sw.UpRAR, sw.UpRAW, sw.Correct)
	}
	if *breakdown && res.Probe != nil {
		printBreakdown(stdout, res.Probe)
	}
	if trace != nil {
		fmt.Fprintf(stdout, "\nlast %d of %d engine events:\n", trace.Len(), trace.Seen())
		if err := trace.WriteCSV(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// runAttack drives the campaign harness (internal/attack) against one
// scheme: each requested class runs a deterministic campaign and is checked
// against the detection matrix; any mismatch fails the command. "matrix"
// prints the full scheme x class expectation table instead.
func runAttack(stdout, stderr io.Writer, scheme core.Scheme, classArg string, seed uint64) int {
	if classArg == "matrix" {
		fmt.Fprint(stdout, attack.RenderMatrix())
		return 0
	}
	classes := attack.Classes
	if classArg != "all" {
		c, err := attack.ParseClass(classArg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		classes = []attack.Class{c}
	}

	row := attack.MatrixFor(scheme)
	fmt.Fprintf(stdout, "attack campaigns against %s (profile %s, seed %d)\n\n",
		scheme, attack.ProfileOf(scheme), seed)
	t := stats.NewTable("class", "expect", "landed", "detected", "diverged", "verdict")
	mismatches := 0
	for _, c := range classes {
		cfg := attack.Config{Scheme: scheme, Class: c, Seed: seed}
		res := attack.Run(cfg)
		verdict := "ok"
		if m := attack.Verdict(cfg, res); m != "" {
			verdict = "MISMATCH: " + m
			mismatches++
		}
		t.Row(c.String(), row[c].Expect.String(), res.Landed, res.Detected, res.Diverged, verdict)
	}
	fmt.Fprintln(stdout, t)
	for _, c := range classes {
		if row[c].Expect != attack.Detected {
			fmt.Fprintf(stdout, "%s is %s: %s\n", c, row[c].Expect, row[c].Why)
		}
	}
	if mismatches > 0 {
		fmt.Fprintf(stderr, "%d campaign(s) disagreed with the detection matrix\n", mismatches)
		return 1
	}
	return 0
}

// printBreakdown renders the probe summary: the Fig. 13-style walk-length
// histogram and the Fig. 5-style traffic split by metadata type.
func printBreakdown(w io.Writer, s *probe.Summary) {
	fmt.Fprintf(w, "\nwalk-length histogram (%d walks, mean %.2f levels, %.1f%% pruned, %.1f%% subtree-stopped):\n",
		s.Walks, s.MeanWalkLevels(), pctOf(s.Pruned, s.Walks), pctOf(s.SubtreeHits, s.Walks))
	wt := stats.NewTable("levels", "walks", "share %")
	for l, v := range s.WalkHist {
		if v == 0 {
			continue
		}
		wt.Row(l, v, pctOf(v, s.Walks))
	}
	fmt.Fprint(w, wt)

	fmt.Fprintf(w, "\ntraffic breakdown (%.2f MB total):\n", float64(s.TotalBytes())/1e6)
	tt := stats.NewTable("kind", "read MB", "write MB", "share %")
	for k := mem.Data; int(k) < probe.NumTrafficKinds; k++ {
		tr := s.Traffic[k]
		tt.Row(k.String(),
			float64(tr.ReadBeats*mem.BlockSize)/1e6,
			float64(tr.WriteBeats*mem.BlockSize)/1e6,
			100*s.TrafficShare(k))
	}
	fmt.Fprint(w, tt)
	fmt.Fprintf(w, "overfetch beats: %d, MAC lookups/merges: %d/%d\n",
		s.OverfetchBeats, s.MACFetches, s.MACMerges)
}

// startCPUProfile starts a CPU profile written to path and returns the
// function that stops it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// pctOf returns 100*a/b guarding the idle case.
func pctOf(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
