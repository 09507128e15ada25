// Command mgmutate runs domain-aware mutation testing over the module's
// security-critical packages. It derives mutants with internal/mutate's
// two operator tiers, applies each through a `go build -overlay` file,
// routes it to the test packages that import the mutated code, and emits
// a deterministic JSON report with per-package mutation scores.
//
// Usage:
//
//	mgmutate [flags] [root]
//
//	-pkgs list      comma-separated target packages (suffix match)
//	-ops list       comma-separated operator names (default: all)
//	-list           print the operator table and exit
//	-sample n       mutants per package (0 = all), seeded deterministic
//	-o file         write the JSON report here
//	-floor file     gate per-package scores against a floor file
//
// The go tool decides the module root and its packages (`go list`).
// Mutants run on half the CPUs; each routed `go test` gets -short and a
// two-minute deadline. Every finished mutant prints a progress line on
// stderr, and the per-package score table goes to stdout.
//
// Every run first checks the //mutate:ignore directives of the target
// packages. A malformed directive fails the run. A run of every operator
// (no -ops) also matches the directives against the full, unsampled site
// set and fails on any directive that covers no site. Both failures exit 1
// before any mutant is built.
//
// A run fails on any untriaged survivor (a survived mutant no directive
// covers). Exit codes: 0 clean, 1 gate failure (stale or malformed
// directives, floor regression, untriaged survivors), 2 usage or load
// error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"unimem/internal/mutate"
)

const defaultPkgs = "internal/secmem,internal/core,internal/tree,internal/meta,internal/crypto"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mgmutate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pkgsFlag  = fs.String("pkgs", defaultPkgs, "comma-separated target packages (suffix match)")
		opsFlag   = fs.String("ops", "", "comma-separated operator names (default: all)")
		list      = fs.Bool("list", false, "print the operator table and exit")
		sample    = fs.Int("sample", 0, "mutants per package (0 = all), seeded deterministic sample")
		out       = fs.String("o", "", "write the JSON report to this file")
		floorFile = fs.String("floor", "", "gate per-package scores against this floor file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printOperators(stdout)
		return 0
	}
	root := "."
	switch fs.NArg() {
	case 0:
	case 1:
		root = strings.TrimSuffix(fs.Arg(0), "/...")
		if root == "" {
			root = "."
		}
	default:
		fmt.Fprintln(stderr, "mgmutate: at most one root argument")
		return 2
	}

	m, err := mutate.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "mgmutate: %v\n", err)
		return 2
	}

	var targets []*mutate.Package
	for _, pkg := range strings.Split(*pkgsFlag, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		p, err := m.PackageByPath(pkg)
		if err != nil {
			fmt.Fprintf(stderr, "mgmutate: %v\n", err)
			return 2
		}
		targets = append(targets, p)
	}
	if len(targets) == 0 {
		fmt.Fprintln(stderr, "mgmutate: no target packages")
		return 2
	}

	ops := mutate.Operators
	if *opsFlag != "" {
		ops = nil
		for _, name := range strings.Split(*opsFlag, ",") {
			name = strings.TrimSpace(name)
			op, ok := mutate.OperatorByName(name)
			if !ok {
				fmt.Fprintf(stderr, "mgmutate: unknown operator %q (see -list)\n", name)
				return 2
			}
			ops = append(ops, op)
		}
	}

	ignores := mutate.ParseIgnores(m, targets)
	sites := m.CollectSites(targets, ops)
	bad := append([]string{}, ignores.Malformed...)
	if *opsFlag == "" {
		// Staleness is judged against every derivable site, not a sample;
		// an operator subset cannot judge it at all.
		for _, s := range sites {
			ignores.Covers(s)
		}
		bad = append(bad, ignores.Stale(m)...)
	}
	if len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(stderr, msg)
		}
		return 1
	}

	siteCounts := map[string]int{}
	for _, p := range targets {
		siteCounts[p.Path] = 0
	}
	for _, s := range sites {
		siteCounts[s.Pkg]++
	}

	results, err := m.Run(context.Background(), sites, ignores, *sample, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "mgmutate: %v\n", err)
		return 2
	}
	rep := mutate.BuildReport(m, results, siteCounts, *sample)
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			fmt.Fprintf(stderr, "mgmutate: %v\n", err)
			return 2
		}
	}
	printSummary(stdout, rep)

	fail := false
	if *floorFile != "" {
		floor, err := mutate.ReadFloor(*floorFile)
		if err != nil {
			fmt.Fprintf(stderr, "mgmutate: %v\n", err)
			return 2
		}
		for _, msg := range rep.GateFloor(floor) {
			fmt.Fprintln(stderr, "mgmutate: "+msg)
			fail = true
		}
	}
	for _, mu := range rep.Survivors() {
		fmt.Fprintf(stderr, "mgmutate: untriaged survivor #%d %s %s:%d: %s -> %s (%s)\n",
			mu.ID, mu.Op, mu.File, mu.Line, mu.Orig, mu.Repl, mu.Desc)
		fail = true
	}
	if fail {
		return 1
	}
	return 0
}

// printOperators writes the -list table.
func printOperators(w io.Writer) {
	fmt.Fprintf(w, "%-14s %s\n", "OPERATOR", "DESCRIPTION")
	for _, op := range mutate.Operators {
		fmt.Fprintf(w, "%-14s %s\n", op.Name, op.Doc)
	}
}

// printSummary writes the per-package score table.
func printSummary(w io.Writer, rep *mutate.Report) {
	fmt.Fprintf(w, "%-28s %6s %7s %6s %8s %7s %6s %7s %6s\n",
		"PACKAGE", "SITES", "SAMPLED", "KILLED", "SURVIVED", "TIMEOUT", "BUILD", "IGNORED", "SCORE")
	rows := append(append([]mutate.PackageScore{}, rep.Packages...), rep.Total)
	for _, ps := range rows {
		name := ps.Path
		if i := strings.LastIndex(name, "/internal/"); i >= 0 {
			name = name[i+1:]
		}
		fmt.Fprintf(w, "%-28s %6d %7d %6d %8d %7d %6d %7d %5.1f%%\n",
			name, ps.Sites, ps.Sampled, ps.Killed, ps.Survived, ps.Timeout, ps.BuildFailed, ps.Ignored, ps.Score)
	}
}
