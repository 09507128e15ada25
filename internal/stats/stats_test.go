package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 4 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(xs, 50); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile != 0")
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		lo, hi := clean[0], clean[0]
		for _, x := range clean {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		m := Mean(clean)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 1.5)
	tb.Row("b", "x")
	s := tb.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "1.500") {
		t.Fatalf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), s)
	}
}
