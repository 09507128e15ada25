package mutate

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Statuses a mutant run can end in.
const (
	// StatusKilled: at least one routed test package failed — the suite
	// observes the defect.
	StatusKilled = "killed"
	// StatusSurvived: every routed test package passed — the defect is
	// invisible to the suite and needs triage.
	StatusSurvived = "survived"
	// StatusTimeout: the mutant hung a test run past its deadline; counted
	// as a kill (an infinite loop is observable).
	StatusTimeout = "timeout"
	// StatusBuildFailed: the mutant does not compile; excluded from the
	// score denominator.
	StatusBuildFailed = "build-failed"
	// StatusIgnored: a //mutate:ignore directive covers the site.
	StatusIgnored = "ignored"
)

// Result is the outcome of one mutant.
type Result struct {
	Site
	// ID is the stable mutant identifier within the run (canonical-order
	// index over the full site set, before sampling).
	ID int
	// Status is one of the Status* constants.
	Status string
	// KilledBy lists the failing test packages, sorted.
	KilledBy []string
	// IgnoreReason carries the directive text for ignored mutants.
	IgnoreReason string
	// Detail carries build/setup error context for build-failed mutants.
	Detail string
}

const (
	// seed drives the deterministic per-package sample.
	seed = 1
	// testTimeout is the per-test-invocation deadline.
	testTimeout = 2 * time.Minute
)

// Run executes the sites against the module's tests and returns results in
// canonical site order (the same order CollectSites produced). sample caps
// the executed mutants per package (0 = all); ignored mutants are
// classified before sampling, so triage state never depends on the sample.
// Half the CPUs run mutants in parallel, each routed test run with -short,
// and each finished mutant writes one line to progress. Cancelling ctx
// stops the workers between mutants.
func (m *Module) Run(ctx context.Context, sites []Site, ignores *IgnoreSet, sample int, progress io.Writer) ([]Result, error) {
	results := make([]Result, len(sites))
	var pending []int
	for i, s := range sites {
		results[i] = Result{Site: s, ID: i}
		if reason, ok := ignores.Covers(s); ok {
			results[i].Status = StatusIgnored
			results[i].IgnoreReason = reason
			continue
		}
		pending = append(pending, i)
	}
	pending = samplePerPackage(sites, pending, sample)

	// Pre-resolve routing once per mutated package.
	routesByPkg := map[string][]string{}
	for _, i := range pending {
		pkg := sites[i].Pkg
		if _, ok := routesByPkg[pkg]; !ok {
			routesByPkg[pkg] = m.candidates(pkg)
		}
	}

	var wg sync.WaitGroup
	work := make(chan int)
	var progressMu sync.Mutex
	done := 0
	for w := 0; w < max(runtime.NumCPU()/2, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					return
				}
				res := m.runOne(ctx, sites[i], routesByPkg[sites[i].Pkg])
				res.ID = i
				results[i] = res
				progressMu.Lock()
				done++
				fmt.Fprintf(progress, "mgmutate: [%d/%d] %s %s %s:%d %s\n",
					done, len(pending), res.Status, res.Op, relIgnorePath(m, res.File), res.Pos.Line, res.Orig)
				progressMu.Unlock()
			}
		}()
	}
	for _, i := range pending {
		work <- i
	}
	close(work)
	wg.Wait()

	// Drop unsampled sites (status still empty) from the result set.
	out := results[:0]
	for _, r := range results {
		if r.Status != "" {
			out = append(out, r)
		}
	}
	return out, nil
}

// samplePerPackage deterministically samples up to n pending mutants per
// package, seeding each package's generator independently so adding sites
// to one package never reshuffles another's sample.
func samplePerPackage(sites []Site, pending []int, n int) []int {
	if n <= 0 {
		return pending
	}
	byPkg := map[string][]int{}
	var pkgs []string
	for _, i := range pending {
		pkg := sites[i].Pkg
		if _, ok := byPkg[pkg]; !ok {
			pkgs = append(pkgs, pkg)
		}
		byPkg[pkg] = append(byPkg[pkg], i)
	}
	sort.Strings(pkgs)
	var out []int
	for _, pkg := range pkgs {
		idx := byPkg[pkg]
		if len(idx) > n {
			rng := newRNG(pkg)
			// Partial Fisher-Yates: the first n positions become the sample.
			for i := 0; i < n; i++ {
				j := i + int(rng.next()%uint64(len(idx)-i))
				idx[i], idx[j] = idx[j], idx[i]
			}
			idx = idx[:n]
		}
		out = append(out, idx...)
	}
	sort.Ints(out)
	return out
}

// rng is a xorshift64* generator: tiny, seedable, and ours (math/rand
// global state is a determinism hazard under test parallelism).
type rng struct{ s uint64 }

// newRNG derives a per-package stream from the seed and package path.
func newRNG(pkg string) *rng {
	h := fnv.New64a()
	_, _ = h.Write([]byte(pkg)) // hash.Hash.Write never fails
	s := seed ^ h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// failLine extracts failing package paths from go test output.
var failLine = regexp.MustCompile(`(?m)^(?:---[ \t]+)?FAIL[: \t]+(\S+)`)

// runOne applies a single mutant via a build overlay and routes it through
// its candidate test packages: own package first, then (only if that
// passes) every other importer in one combined invocation.
func (m *Module) runOne(ctx context.Context, s Site, candidates []string) Result {
	res := Result{Site: s}
	mutated, err := m.Apply(s)
	if err != nil {
		res.Status = StatusBuildFailed
		res.Detail = "apply: " + err.Error()
		return res
	}
	dir, err := os.MkdirTemp("", "mgmutate-")
	if err != nil {
		res.Status = StatusBuildFailed
		res.Detail = "setup: " + err.Error()
		return res
	}
	defer func() { _ = os.RemoveAll(dir) }()

	mutFile := filepath.Join(dir, "mutant.go")
	overlayFile := filepath.Join(dir, "overlay.json")
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {s.File: mutFile}})
	if err == nil {
		err = os.WriteFile(mutFile, mutated, 0o644)
	}
	if err == nil {
		err = os.WriteFile(overlayFile, overlay, 0o644)
	}
	if err != nil {
		res.Status = StatusBuildFailed
		res.Detail = "setup: " + err.Error()
		return res
	}

	if len(candidates) == 0 {
		res.Status = StatusSurvived
		res.Detail = "no test package imports " + s.Pkg
		return res
	}

	phases := [][]string{candidates[:1]}
	if len(candidates) > 1 {
		phases = append(phases, candidates[1:])
	}
	for _, pkgs := range phases {
		status, killedBy, detail := m.goTest(ctx, overlayFile, pkgs)
		switch status {
		case StatusKilled, StatusTimeout, StatusBuildFailed:
			res.Status = status
			res.KilledBy = killedBy
			res.Detail = detail
			return res
		}
	}
	res.Status = StatusSurvived
	return res
}

// goTest runs one `go test -overlay` invocation over pkgs and classifies
// the outcome.
func (m *Module) goTest(ctx context.Context, overlayFile string, pkgs []string) (status string, killedBy []string, detail string) {
	ctx, cancel := context.WithTimeout(ctx, testTimeout+30*time.Second)
	defer cancel()
	args := append([]string{"test", "-overlay", overlayFile, "-count=1", "-vet=off",
		fmt.Sprintf("-timeout=%s", testTimeout), "-short"}, pkgs...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = m.Root
	out, err := cmd.CombinedOutput()
	text := string(out)

	if err == nil {
		return "", nil, "" // all passed
	}
	if ctx.Err() == context.DeadlineExceeded || strings.Contains(text, "panic: test timed out") {
		return StatusTimeout, nil, "test run exceeded deadline"
	}
	if strings.Contains(text, "build failed") || strings.Contains(text, "# ") &&
		(strings.Contains(text, "syntax error") || strings.Contains(text, "cannot use") ||
			strings.Contains(text, "undefined:") || strings.Contains(text, "declared and not used")) {
		return StatusBuildFailed, nil, firstLines(text, 3)
	}
	seen := map[string]bool{}
	for _, match := range failLine.FindAllStringSubmatch(text, -1) {
		pkg := match[1]
		// `--- FAIL: TestX` lines name tests, not packages; keep only
		// entries that look like import paths of this module.
		if strings.HasPrefix(pkg, m.Path) && !seen[pkg] {
			seen[pkg] = true
			killedBy = append(killedBy, pkg)
		}
	}
	sort.Strings(killedBy)
	if len(killedBy) == 0 {
		// Nonzero exit without FAIL lines (panic before test framework
		// output, test binary crash): the mutant is still observably dead.
		killedBy = nil
	}
	return StatusKilled, killedBy, ""
}

// firstLines truncates command output for build-failure detail.
func firstLines(text string, n int) string {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, " | ")
}
