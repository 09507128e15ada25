// Command mglint runs the repository's domain-aware static analyzers over
// the module: the expression-local rules magic-granularity, unit-mixing,
// alignment and unchecked-return (see internal/lint). It exits non-zero
// when any unsuppressed, un-baselined finding remains, making it suitable
// as a CI gate:
//
//	go run ./cmd/mglint -baseline .mglint-baseline.json ./...
//
// Findings are suppressed in source with
//
//	//lint:ignore mglint/<rule> <reason>
//
// at the end of the offending line (covers that line only) or alone on the
// line above it (covers the next line only). A run of the full rule set also
// reports every directive that suppressed nothing as a stale-suppression
// finding; a -rules subset skips that audit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"unimem/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mglint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tests    = fs.Bool("tests", false, "also lint _test.go files (in-package tests only)")
		rules    = fs.String("rules", "", "comma-separated rule subset (default: all)")
		list     = fs.Bool("list", false, "list available rules and exit")
		quiet    = fs.Bool("q", false, "suppress the finding count summary")
		format   = fs.String("format", "text", "output format: text or json")
		baseline = fs.String("baseline", "", "baseline file: findings listed there are accepted")
		writeBl  = fs.Bool("write-baseline", false, "regenerate the -baseline file from the current findings and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mglint [flags] [./...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	// The analyzers are whole-module by construction (cross-package types
	// are needed anyway), so any ./... style argument selects the module
	// containing the current directory; a path argument selects the module
	// containing that path.
	root := "."
	if rest := fs.Args(); len(rest) > 0 {
		root = strings.TrimSuffix(strings.TrimSuffix(rest[0], "..."), "/")
		if root == "" {
			root = "."
		}
	}

	var opts lint.Options
	opts.Load.Tests = *tests
	if *rules != "" {
		opts.Rules = strings.Split(*rules, ",")
	}

	findings, err := lint.Run(root, opts)
	if err != nil {
		fmt.Fprintln(stderr, "mglint:", err)
		return 2
	}

	if *writeBl {
		if *baseline == "" {
			fmt.Fprintln(stderr, "mglint: -write-baseline requires -baseline <file>")
			return 2
		}
		if err := lint.WriteBaseline(*baseline, findings); err != nil {
			fmt.Fprintln(stderr, "mglint:", err)
			return 2
		}
		if !*quiet {
			fmt.Fprintf(stderr, "mglint: wrote %d finding(s) to %s\n", len(findings), *baseline)
		}
		return 0
	}

	if *baseline != "" {
		entries, err := lint.ReadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "mglint:", err)
			return 2
		}
		var unused []lint.BaselineEntry
		findings, unused = lint.ApplyBaseline(findings, entries)
		for _, e := range unused {
			fmt.Fprintf(stderr, "mglint: baseline entry no longer matches (%s: mglint/%s); regenerate with -write-baseline\n", e.File, e.Rule)
		}
	}

	if err := emit(stdout, *format, findings); err != nil {
		fmt.Fprintln(stderr, "mglint:", err)
		return 2
	}
	if len(findings) > 0 {
		if !*quiet {
			fmt.Fprintf(stderr, "mglint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// emit renders findings in the selected format.
func emit(w io.Writer, format string, findings []lint.Finding) error {
	switch format {
	case "text":
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
		return nil
	case "json":
		return lint.WriteJSON(w, findings)
	default:
		return fmt.Errorf("unknown -format %q (want text or json)", format)
	}
}
