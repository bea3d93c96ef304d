package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 1, 2}, 2},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// estimator the run-to-run spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1, 9, 2.25}, 1.3125, 2.875, 7.625},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{1, 3}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of a constant sample = %v, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending, so tail must sort
	}
	v, pct, err := tail(xs)
	if err != nil {
		t.Fatal(err)
	}
	if v != 489 || !near(pct, 98) {
		t.Errorf("tail = %v at p%v, want 489 at p98", v, pct)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
}

func TestTailRejectsSmallSamples(t *testing.T) {
	if _, _, err := tail(make([]float64, tailBeyond)); err == nil {
		t.Error("tail of 10 samples: want error, got none")
	}
	if _, _, err := tail(make([]float64, tailBeyond+1)); err != nil {
		t.Errorf("tail of 11 samples: %v", err)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 1); got != 0.75 {
		t.Errorf("ratio(3, 1) = %v", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
}

func TestPrintSpreads(t *testing.T) {
	var in strings.Builder
	for v := 10; v >= 1; v-- {
		fmt.Fprintf(&in, `{"correct":true,"attempted":1,"failed":0,"metrics":{"x_s":{"value":%d,"unit":"s"}}}`+"\n", v)
	}
	var out strings.Builder
	if err := printSpreads(strings.NewReader(in.String()), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "x_s") || !strings.Contains(got, "median 5.5") || !strings.HasSuffix(got, "spread 1.0000\n") {
		t.Errorf("spread line = %q", got)
	}
	if err := printSpreads(strings.NewReader("not json\n"), &out); err == nil {
		t.Error("malformed result line: want error")
	}
}
