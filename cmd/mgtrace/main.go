// Command mgtrace inspects the synthetic workload traces: it dumps
// requests and reports the Fig. 4 stream-chunk classification.
//
// Usage:
//
//	mgtrace -workload alex                # chunk-mix report
//	mgtrace -workload mcf -dump 20        # also print the first N requests
//	mgtrace -all                          # mix table for every workload
//	mgtrace -workload alex -export a.trc  # export a replayable text trace
//	mgtrace -replay a.trc                 # chunk-mix of an imported trace
//
// The trace format bridges to real simulator traces (see
// internal/workload/trace.go): users with ChampSim/MGPUSim/mNPUsim output
// can convert it to this format and replay it here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"unimem/internal/meta"
	"unimem/internal/stats"
	"unimem/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args and writes the
// report to stdout (errors to stderr), returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mgtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see -all for the list)")
	scale := fs.Float64("scale", 0.25, "trace-length scale")
	seed := fs.Uint64("seed", 1, "trace seed")
	dump := fs.Int("dump", 0, "print the first N requests")
	all := fs.Bool("all", false, "report the chunk mix of every workload")
	export := fs.String("export", "", "write the trace to this file and exit")
	replay := fs.String("replay", "", "analyze a trace file instead of a generator")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*scale > 0) { // NaN fails too
		fmt.Fprintf(stderr, "-scale must be positive, got %v\n", *scale)
		return 2
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		g, err := workload.ReadTrace(f, *replay)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		m := workload.AnalyzeStreamChunks(g, 0)
		fmt.Fprintf(stdout, "%s: %d requests, 64B %.1f%% / 512B %.1f%% / 4KB %.1f%% / 32KB %.1f%%\n",
			*replay, m.Requests, 100*m.Frac[meta.Gran64], 100*m.Frac[meta.Gran512],
			100*m.Frac[meta.Gran4K], 100*m.Frac[meta.Gran32K])
		return 0
	}

	if *all {
		t := stats.NewTable("workload", "class", "requests", "64B", "512B", "4KB", "32KB")
		for _, n := range workload.Names() {
			g, _ := workload.ByName(n, *scale, *seed)
			m := workload.AnalyzeStreamChunks(g, 0)
			t.Row(n, workload.Profiles[n].Class.String(), m.Requests,
				m.Frac[meta.Gran64], m.Frac[meta.Gran512], m.Frac[meta.Gran4K], m.Frac[meta.Gran32K])
		}
		fmt.Fprint(stdout, t)
		return 0
	}
	if *name == "" {
		fmt.Fprintln(stderr, "need -workload or -all")
		return 2
	}
	g, err := workload.ByName(*name, *scale, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		n, err := workload.WriteTrace(f, g)
		if err2 := f.Close(); err == nil {
			err = err2
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %d requests to %s\n", n, *export)
		return 0
	}
	if *dump > 0 {
		fmt.Fprintf(stdout, "first %d requests of %s:\n", *dump, *name)
		for i := 0; i < *dump; i++ {
			r, ok := g.Next()
			if !ok {
				break
			}
			op := "R"
			if r.Write {
				op = "W"
			}
			dep := ""
			if r.Dep {
				dep = " dep"
			}
			fmt.Fprintf(stdout, "  %s %#010x +%-5d gap=%dps%s\n", op, r.Addr, r.Size, r.GapPs, dep)
		}
		g, _ = workload.ByName(*name, *scale, *seed)
	}
	m := workload.AnalyzeStreamChunks(g, 0)
	fmt.Fprintf(stdout, "%s: %d requests\n", *name, m.Requests)
	fmt.Fprintf(stdout, "  64B  : %5.1f%%\n", 100*m.Frac[meta.Gran64])
	fmt.Fprintf(stdout, "  512B : %5.1f%%\n", 100*m.Frac[meta.Gran512])
	fmt.Fprintf(stdout, "  4KB  : %5.1f%%\n", 100*m.Frac[meta.Gran4K])
	fmt.Fprintf(stdout, "  32KB : %5.1f%%\n", 100*m.Frac[meta.Gran32K])
	return 0
}
