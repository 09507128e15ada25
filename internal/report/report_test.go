package report

import (
	"fmt"
	"strings"
	"testing"

	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/stats"
)

// tiny keeps report tests fast; shape assertions stay loose at this scale.
var tiny = Options{Scale: 0.04, Seed: 1, SampleN: 6}

// TestIDsResolve runs every experiment and pins the sweeps behind them:
// experiments that need the same runs read one memoized sweep (Fig. 15/16
// and Table 2; Fig. 17/18; Fig. 19 and ext-latency; the collected one of
// ext-walklen and ext-breakdown), so all 15 make seven sweeps.
func TestIDsResolve(t *testing.T) {
	for _, id := range IDs() {
		if _, err := ByID(id, tiny); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if _, err := ByID("fig99", tiny); err == nil {
		t.Fatal("unknown id accepted")
	}
	prefix := fmt.Sprintf("scale=%g seed=%d ", tiny.Scale, tiny.Seed)
	var keys []string
	sweepMu.Lock()
	for k := range sweepMemo {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sweepMu.Unlock()
	if len(keys) != 7 {
		t.Fatalf("%d sweeps, want 7:\n%s", len(keys), strings.Join(keys, "\n"))
	}
}

func TestFig04Shape(t *testing.T) {
	f := Fig04(tiny)
	s := f.String()
	for _, w := range []string{"bw", "alex", "sfrnn", "32KB", "fig04"} {
		if !strings.Contains(s, w) {
			t.Fatalf("fig04 output missing %q:\n%s", w, s)
		}
	}
	if len(f.Notes) == 0 {
		t.Fatal("fig04 missing headline note")
	}
}

func TestFig05RowsComplete(t *testing.T) {
	f := Fig05(tiny)
	s := f.Table.String()
	for _, w := range []string{"CPU", "GPU", "NPU", "Hetero"} {
		if !strings.Contains(s, w) {
			t.Fatalf("fig05 missing %s row:\n%s", w, s)
		}
	}
}

func TestTable02RowsComplete(t *testing.T) {
	f := Table02(tiny)
	s := f.Table.String()
	for _, w := range []string{"WAR", "WAW", "RAR", "RAW", "Correct", "R/O"} {
		if !strings.Contains(s, w) {
			t.Fatalf("table2 missing %s row:\n%s", w, s)
		}
	}
}

func TestFig17OrderingHolds(t *testing.T) {
	// The headline ordering must hold even at test scale:
	// BMF&Unused+Ours <= Ours <= some margin of Conventional.
	o := Options{Scale: 0.08, Seed: 1, SampleN: 8}
	rs := sweep(o, o.scenarios(), []core.Scheme{core.Conventional, core.Ours, core.BMFUnusedOurs}, false)
	conv := hetero.MeanAcross(rs, core.Conventional)
	ours := hetero.MeanAcross(rs, core.Ours)
	bmf := hetero.MeanAcross(rs, core.BMFUnusedOurs)
	if !(bmf < ours && ours < conv*1.01) {
		t.Fatalf("ordering broken: conv=%.3f ours=%.3f bmf+ours=%.3f", conv, ours, bmf)
	}
}

func TestSweepMemoized(t *testing.T) {
	o := Options{Scale: 0.03, Seed: 2, SampleN: 2}
	schemes := []core.Scheme{core.Conventional}
	a := sweep(o, o.scenarios(), schemes, false)
	b := sweep(o, o.scenarios(), schemes, false)
	if &a[0] != &b[0] {
		t.Fatal("sweep not memoized")
	}
	// The collector and the scenario list are part of the key.
	c := sweep(o, o.scenarios(), schemes, true)
	if &c[0] == &a[0] || a[0].ByScheme[core.Conventional].Raw.Probe != nil || c[0].ByScheme[core.Conventional].Raw.Probe == nil {
		t.Fatal("the collected sweep and the plain one share an entry")
	}
	sel := hetero.SelectedScenarios()[:1]
	if d := sweep(o, sel, schemes, false); len(d) != 1 || d[0].Scenario.ID != sel[0].ID {
		t.Fatalf("sweep over %s returned %v", sel[0].ID, d)
	}
}

// TestFigureString pins how a figure renders: its header, its table and
// one line per note.
func TestFigureString(t *testing.T) {
	tb := stats.NewTable("workload", "coarse")
	tb.Row("cc1", 0.5)
	f := Figure{ID: "fig04", Title: "stream chunks", Table: tb, Notes: []string{"cc1 streams half its chunks"}}
	want := "== fig04: stream chunks ==\n" +
		"workload  coarse\n" +
		"--------  ------\n" +
		"cc1       0.500 \n" +
		"note: cc1 streams half its chunks\n"
	if got := f.String(); got != want {
		t.Fatalf("figure renders as\n%q\nwant\n%q", got, want)
	}
}
