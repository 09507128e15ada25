package mutate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON artifact of one mutation run. Everything in it is
// deterministic for a fixed module and sample size: canonical mutant order,
// sorted killer lists, rounded scores, no timestamps.
type Report struct {
	Tool     string         `json:"tool"`
	Sample   int            `json:"sample"`
	Packages []PackageScore `json:"packages"`
	Total    PackageScore   `json:"total"`
	Mutants  []MutantRecord `json:"mutants"`
}

// PackageScore aggregates one package's mutants. Score is
// (killed+timeout)/(killed+timeout+survived) in percent: timeouts count
// as kills (a hang is observable), build failures and ignored mutants are
// excluded from the denominator.
type PackageScore struct {
	Path        string  `json:"path"`
	Sites       int     `json:"sites"`
	Sampled     int     `json:"sampled"`
	Killed      int     `json:"killed"`
	Survived    int     `json:"survived"`
	Timeout     int     `json:"timeout"`
	BuildFailed int     `json:"build_failed"`
	Ignored     int     `json:"ignored"`
	Score       float64 `json:"score"`
}

// MutantRecord is one mutant's row in the report.
type MutantRecord struct {
	ID           int      `json:"id"`
	Op           string   `json:"op"`
	Pkg          string   `json:"pkg"`
	File         string   `json:"file"`
	Line         int      `json:"line"`
	Col          int      `json:"col"`
	Orig         string   `json:"orig,omitempty"`
	Repl         string   `json:"repl,omitempty"`
	Desc         string   `json:"desc"`
	Status       string   `json:"status"`
	KilledBy     []string `json:"killed_by,omitempty"`
	IgnoreReason string   `json:"ignore_reason,omitempty"`
	Detail       string   `json:"detail,omitempty"`
}

// BuildReport folds results (canonical order) into the report. siteCounts
// is the full per-package site census before sampling; sample is the
// per-package sample size the run used.
func BuildReport(m *Module, results []Result, siteCounts map[string]int, sample int) *Report {
	rep := &Report{Tool: "mgmutate", Sample: sample}
	perPkg := map[string]*PackageScore{}
	var order []string
	for pkg, n := range siteCounts {
		perPkg[pkg] = &PackageScore{Path: pkg, Sites: n}
		order = append(order, pkg)
	}
	sort.Strings(order)

	for _, r := range results {
		ps := perPkg[r.Pkg]
		if ps == nil {
			ps = &PackageScore{Path: r.Pkg}
			perPkg[r.Pkg] = ps
			order = append(order, r.Pkg)
			sort.Strings(order)
		}
		ps.Sampled++
		switch r.Status {
		case StatusKilled:
			ps.Killed++
		case StatusSurvived:
			ps.Survived++
		case StatusTimeout:
			ps.Timeout++
		case StatusBuildFailed:
			ps.BuildFailed++
		case StatusIgnored:
			ps.Ignored++
		}
		rec := MutantRecord{
			ID: r.ID, Op: r.Op, Pkg: r.Pkg,
			File: filepath.ToSlash(relIgnorePath(m, r.File)),
			Line: r.Pos.Line, Col: r.Pos.Column,
			Orig: snippet(r.Orig), Repl: snippet(r.Repl), Desc: r.Desc,
			Status: r.Status, KilledBy: r.KilledBy,
			IgnoreReason: r.IgnoreReason, Detail: r.Detail,
		}
		rep.Mutants = append(rep.Mutants, rec)
	}

	for _, pkg := range order {
		ps := perPkg[pkg]
		ps.Score = score(ps.Killed, ps.Timeout, ps.Survived)
		rep.Packages = append(rep.Packages, *ps)
		rep.Total.Sites += ps.Sites
		rep.Total.Sampled += ps.Sampled
		rep.Total.Killed += ps.Killed
		rep.Total.Survived += ps.Survived
		rep.Total.Timeout += ps.Timeout
		rep.Total.BuildFailed += ps.BuildFailed
		rep.Total.Ignored += ps.Ignored
	}
	rep.Total.Path = "total"
	rep.Total.Score = score(rep.Total.Killed, rep.Total.Timeout, rep.Total.Survived)
	return rep
}

// score computes the rounded kill percentage; an empty denominator scores
// 100 (nothing to kill is not a failure).
func score(killed, timeout, survived int) float64 {
	den := killed + timeout + survived
	if den == 0 {
		return 100
	}
	return math.Round(float64(killed+timeout)/float64(den)*1000) / 10
}

// snippet trims mutant source excerpts for the report.
func snippet(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}

// WriteJSON emits the canonical report encoding (indented, sorted by
// construction, trailing newline) — the byte-identical artifact the
// determinism contract is stated over.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Survivors returns the untriaged surviving mutants (status survived; an
// ignored mutant is triaged by definition).
func (r *Report) Survivors() []MutantRecord {
	var out []MutantRecord
	for _, mu := range r.Mutants {
		if mu.Status == StatusSurvived {
			out = append(out, mu)
		}
	}
	return out
}

// ReadFloor parses a floor file: one `<import-path|total> <min-score>` per
// line, '#' comments allowed.
func ReadFloor(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<package|total> <min-score>\", got %q", path, line, text)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad score %q: %v", path, line, fields[1], err)
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// GateFloor checks the report against a floor map and returns violation
// messages (empty = pass). Floor keys match package paths exactly or by
// unique "/"-suffix, mirroring the CLI's package arguments.
func (r *Report) GateFloor(floor map[string]float64) []string {
	var keys []string
	for k := range floor {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, key := range keys {
		min := floor[key]
		got, ok := r.lookupScore(key)
		if !ok {
			out = append(out, fmt.Sprintf("floor: package %q not present in report", key))
			continue
		}
		if got < min {
			out = append(out, fmt.Sprintf("floor: %s mutation score %.1f is below floor %.1f", key, got, min))
		}
	}
	return out
}

// lookupScore resolves a floor key against the report's packages.
func (r *Report) lookupScore(key string) (float64, bool) {
	if key == "total" {
		return r.Total.Score, true
	}
	for _, ps := range r.Packages {
		if ps.Path == key || strings.HasSuffix(ps.Path, "/"+key) {
			return ps.Score, true
		}
	}
	return 0, false
}
