package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.96, 0.946, 0.964, 0.989, 1.077, 0.969, 0.952}, 0.952, 0.964, 0.989},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.N != len(c.in) || !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.in, s, c.q1, c.med, c.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zeros", s)
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("summarize reordered its argument: %v", in)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // unsorted on purpose
	}
	if got, ok := percentile(v, 0.99); !ok || got != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990, true (10 samples lie beyond it)", got, ok)
	}
	if _, ok := percentile(v[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples was reported with only 9 samples beyond it")
	}
	if got, ok := percentile(v[:20], 0.5); !ok || got != 990 {
		t.Errorf("p50 of 20 samples = %g, %v; want 990, true", got, ok)
	}
	if _, ok := percentile(v[:19], 0.5); ok {
		t.Errorf("p50 of 19 samples was reported with only 9 samples beyond it")
	}
	for _, p := range []float64{0, 1, -0.1, 1.5} {
		if _, ok := percentile(v, p); ok {
			t.Errorf("percentile accepted p = %g", p)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of no samples was reported")
	}
}
