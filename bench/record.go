package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// record summarizes repeated runs of one commit: for each workload and
// end-to-end metric, every run's value and their statistics. Run i used
// seed Seed+i, so two records taken with the same Seed pair run by run.
type record struct {
	SHA       string                     `json:"sha"`
	GoVersion string                     `json:"go_version"`
	NProc     int                        `json:"nproc"`
	Seed      uint64                     `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]*metricRecord `json:"metrics"`
}

// metricRecord holds one metric's values across runs; Q1, Median and Q3
// are Python's statistics.quantiles(values, n=4), P90 the ninth decile.
type metricRecord struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	P90    float64   `json:"p90"`
	Values []float64 `json:"values"`
}

// recordedRuns is how many runs of each workload a record holds: enough for
// the paired-run rule's nine-in-ten wins and for stable quartiles.
const recordedRuns = 10

// recordRuns runs every selected workload recordedRuns times, each run in a
// child process of this binary as the benchmark's users invoke it,
// interleaving the workloads so slow drift of the host touches all of them
// alike.
func recordRuns(selected []spec, seed uint64, seconds float64, refPath, sha string, log io.Writer) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rec := &record{SHA: sha, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Seed: seed,
		Runs: recordedRuns, Seconds: seconds, Workloads: map[string]*workloadRecord{}}
	for i := 0; i < recordedRuns; i++ {
		for _, s := range selected {
			args := []string{"-workload", s.name, "-seed", fmt.Sprint(seed + uint64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", "0", "-reference", refPath}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = log
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", s.name, i, err)
			}
			var l line
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
				return nil, fmt.Errorf("%s run %d: result line: %w", s.name, i, err)
			}
			fmt.Fprintf(log, "run %d/%d %s: correct=%v attempted=%d failed=%d\n", i+1, recordedRuns, s.name, l.Correct, l.Attempted, l.Failed)
			wr := rec.Workloads[s.name]
			if wr == nil {
				wr = &workloadRecord{Correct: true, Metrics: map[string]*metricRecord{}}
				rec.Workloads[s.name] = wr
			}
			wr.Correct = wr.Correct && l.Correct
			wr.Attempted += l.Attempted
			wr.Failed += l.Failed
			for _, m := range endToEnd {
				mr := wr.Metrics[m.name]
				if mr == nil {
					mr = &metricRecord{Unit: m.unit}
					wr.Metrics[m.name] = mr
				}
				mr.Values = append(mr.Values, l.Metrics[m.name].Value)
			}
		}
	}
	for _, wr := range rec.Workloads {
		for _, mr := range wr.Metrics {
			mr.summarize()
		}
	}
	return rec, nil
}

func (mr *metricRecord) summarize() {
	q := quantiles(mr.Values, 4)
	mr.N, mr.Q1, mr.Median, mr.Q3 = len(mr.Values), q[0], q[1], q[2]
	mr.P90 = quantiles(mr.Values, 10)[8]
}

// writeRecord writes rec to path and appends it as one line to history.
func writeRecord(rec *record, path, history string) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, b); err != nil {
		return err
	}
	f, err := os.OpenFile(history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(compact.Bytes(), '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of one (workload, metric) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict applies the paired-run rule to one metric. A change improved it
// when it won at least nine tenths of the run pairs (ties count for
// neither) and its median moved by more than the parent's interquartile
// range; it regressed when its median is worse than the parent's by more
// than the bound. Otherwise, when the parent's own spread is wider than the
// bound, the pair is unresolved unless every change run beats every parent
// run.
func verdict(m metric, parent, change *metricRecord) (string, float64) {
	better := func(a, b float64) bool {
		if m.better == "higher" {
			return a > b
		}
		return a < b
	}
	var wins, pairs int
	for i := 0; i < len(parent.Values) && i < len(change.Values); i++ {
		pairs++
		if better(change.Values[i], parent.Values[i]) {
			wins++
		}
	}
	winFrac := ratio(float64(wins), float64(pairs))
	iqr := parent.Q3 - parent.Q1
	worse := ratio(change.Median-parent.Median, parent.Median)
	if m.better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change.Values {
		for _, p := range parent.Values {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case worse > m.bound:
		return regressed, winFrac
	case winFrac >= 0.9 && better(change.Median, parent.Median) && math.Abs(change.Median-parent.Median) > iqr:
		return improved, winFrac
	case ratio(iqr, parent.Median) > m.bound && !allBetter:
		return unresolved, winFrac
	}
	return unchanged, winFrac
}

// compareFiles prints one row per workload with the verdict of each
// end-to-end metric, then the medians behind them. It exits 1 when any
// metric regressed.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRecord(parentPath)
	if err == nil {
		var change *record
		if change, err = readRecord(changePath); err == nil {
			return compareRecords(parent, change, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareRecords(parent, change *record, stdout io.Writer) int {
	fmt.Fprintf(stdout, "parent %s (%d runs), change %s (%d runs)\n", parent.SHA, parent.Runs, change.SHA, change.Runs)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "\t%s", m.name)
	}
	fmt.Fprintln(tw)
	var details bytes.Buffer
	code := 0
	for _, s := range workloads {
		pw, cw := parent.Workloads[s.name], change.Workloads[s.name]
		if pw == nil || cw == nil {
			continue
		}
		fmt.Fprint(tw, s.name)
		for _, m := range endToEnd {
			pm, cm := pw.Metrics[m.name], cw.Metrics[m.name]
			if pm == nil || cm == nil {
				fmt.Fprint(tw, "\t-")
				continue
			}
			v, win := verdict(m, pm, cm)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(tw, "\t%s", v)
			fmt.Fprintf(&details, "%s %s: parent %.6g [%.6g, %.6g], change %.6g [%.6g, %.6g] %s, change wins %.0f%% of pairs, bound %.0f%%\n",
				s.name, m.name, pm.Median, pm.Q1, pm.Q3, cm.Median, cm.Q1, cm.Q3, m.unit, 100*win, 100*m.bound)
		}
		if !pw.Correct || !cw.Correct || cw.Failed > pw.Failed {
			fmt.Fprintf(tw, "\tfailed ops: parent %d, change %d", pw.Failed, cw.Failed)
			if cw.Failed > pw.Failed {
				code = 1
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(stdout)
	stdout.Write(details.Bytes())
	return code
}
