package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update regenerates the fixture goldens:
//
//	go test ./internal/lint/ -run TestFixtures -update
var update = flag.Bool("update", false, "rewrite testdata want.txt goldens")

// fixtureRules maps a fixture directory prefix to the rule family it
// exercises, so each seeded violation is attributed to exactly one rule.
var fixtureRules = map[string][]string{
	"unitflow":    {"unit-flow"},
	"determinism": {"determinism"},
	"probes":      {"probe-discipline"},
}

// TestFixtures lints every testdata mini-module and compares the findings
// against its checked-in want.txt. Each *_bad fixture must yield exactly
// its seeded findings; each *_clean twin must yield none.
func TestFixtures(t *testing.T) {
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		rules := fixtureRules[strings.SplitN(name, "_", 2)[0]]
		if rules == nil {
			t.Errorf("fixture %s has no rule mapping", name)
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			fs, err := Run(dir, Options{Rules: rules})
			if err != nil {
				t.Fatalf("lint %s: %v", name, err)
			}
			var b strings.Builder
			for _, f := range fs {
				b.WriteString(f.String())
				b.WriteString("\n")
			}
			got := b.String()
			goldenPath := filepath.Join(dir, "want.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch for %s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
			if strings.HasSuffix(name, "_clean") && got != "" {
				t.Errorf("clean fixture %s produced findings:\n%s", name, got)
			}
			if strings.HasSuffix(name, "_bad") && got == "" {
				t.Errorf("bad fixture %s produced no findings", name)
			}
		})
	}
	if ran < 2*len(fixtureRules) {
		t.Errorf("only %d fixtures ran, want a bad and a clean twin per rule family (%d)", ran, 2*len(fixtureRules))
	}
}

// TestJSONByteIdentical asserts the determinism contract on the dataflow
// families' seeded fixtures: two independent runs must serialize to
// byte-identical JSON.
func TestJSONByteIdentical(t *testing.T) {
	var prefixes []string
	for prefix := range fixtureRules {
		prefixes = append(prefixes, prefix)
	}
	sort.Strings(prefixes)
	encode := func() []byte {
		t.Helper()
		var all []Finding
		for _, prefix := range prefixes {
			fs, err := Run(filepath.Join("testdata", prefix+"_bad"), Options{Rules: fixtureRules[prefix]})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, fs...)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, all); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Errorf("JSON output differs between runs:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestFixtureFindingsSorted asserts the deterministic-ordering contract on
// a fixture with findings in several files.
func TestFixtureFindingsSorted(t *testing.T) {
	fs, err := Run(filepath.Join("testdata", "determinism_bad"), Options{Rules: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) < 2 {
		t.Fatalf("want several findings, got %v", fs)
	}
	sorted := sort.SliceIsSorted(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	if !sorted {
		t.Errorf("findings not sorted by (file, line, col, rule): %v", fs)
	}
}
