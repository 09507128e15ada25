// Command bench is the repository's benchmark: five seeded closed-loop
// workloads over the timing simulator and the functional protection layer,
// reporting end-to-end metrics untraced and per-layer metrics traced.
//
// Run it from the repository root, where its default paths point:
//
//	bash bench/run.sh -workload cc1-ours                # one workload
//	bash bench/run.sh                                   # all five
//	bash bench/run.sh -trace 1 -trace-out spans.json    # per-layer metrics
//	bash bench/run.sh -out rec.json -sha <commit>       # ten runs each, a record
//	bash bench/run.sh -compare parent.json change.json  # verdict per metric
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics with their units. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the workloads' inputs")
	seconds := fs.Float64("seconds", 15, "host seconds each workload measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	refPath := fs.String("reference", "bench/testdata/reference.json", "reference digests")
	update := fs.Bool("update-reference", false, "rewrite the reference digests of the selected workloads (seed 1) and exit")
	out := fs.String("out", "", "run each workload ten times, one process per run with seeds seed, seed+1, ..., and write the record to this file")
	sha := fs.String("sha", "unknown", "with -out: the commit the record measures")
	history := fs.String("history", "bench/history.jsonl", "with -out: file the record is appended to")
	compare := fs.Bool("compare", false, "compare two records: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	var selected []spec
	if *name == "all" {
		selected = workloads
	} else {
		s, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []spec{s}
	}
	if *update {
		if err := updateReference(*refPath, selected); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *out != "" {
		rec, err := recordRuns(selected, *seed, *seconds, *refPath, *sha, stderr)
		if err == nil {
			err = writeRecord(rec, *out, *history)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference(*refPath, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	o := options{seed: *seed, seconds: *seconds, minOps: 1, spans: *traceOut != "", ref: ref}
	var results []*result
	for _, s := range selected {
		r := runWorkload(s, o, *trace == 1)
		results = append(results, r)
		printHuman(stdout, r, *trace == 1)
		if r.spans != nil {
			path := *traceOut
			if len(selected) > 1 {
				path = strings.TrimSuffix(path, ".json") + "-" + s.name + ".json"
			}
			if err := r.spans.writeChrome(path, s.name); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	line, err := resultLine(results, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func metricTable(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printHuman(w io.Writer, r *result, traced bool) {
	fmt.Fprintf(w, "%s: %d ops, %d failed", r.name, r.attempted, r.failed)
	if r.info != "" {
		fmt.Fprintf(w, "; %s", r.info)
	}
	fmt.Fprintln(w)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
	for _, m := range metricTable(traced) {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, r.metrics[m.name], m.unit)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultLine renders the results as the final JSON line. With one workload
// the metrics carry their own names; with several, "workload/metric".
func resultLine(results []*result, traced bool) ([]byte, error) {
	l := line{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		l.Correct = l.Correct && r.correct()
		l.Attempted += r.attempted
		l.Failed += r.failed
		for _, m := range metricTable(traced) {
			key := m.name
			if len(results) > 1 {
				key = r.name + "/" + m.name
			}
			l.Metrics[key] = value{r.metrics[m.name], m.unit}
		}
	}
	return json.Marshal(l)
}

// reference is the committed digest file: the digests every workload must
// reproduce at its seed.
type reference struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// loadReference returns the digests for seed, or none when the file holds
// another seed's (runs then check only that they repeat themselves).
func loadReference(path string, seed uint64) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if ref.Seed != seed {
		return nil, nil
	}
	return ref.Digests, nil
}

// updateReference sets the selected workloads up as a run does, at seed 1,
// and replaces their digests, keeping the others'.
func updateReference(path string, selected []spec) error {
	ref := reference{Seed: 1, Digests: map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &ref); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, s := range selected {
		exp := newExpect(nil)
		w := s.build(ref.Seed, false, exp)
		for i := 0; i < s.setups; i++ {
			if _, err := w.setup(i); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		for k := range ref.Digests {
			if k == s.name || strings.HasPrefix(k, s.name+"/") {
				delete(ref.Digests, k)
			}
		}
		for k, v := range exp.want {
			ref.Digests[k] = v
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
