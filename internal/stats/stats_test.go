package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanStddevStderr(t *testing.T) {
	s := Of(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Known population: sample variance = 32/7.
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, 32.0/7)
	}
	wantSE := math.Sqrt(32.0/7) / math.Sqrt(8)
	if got := s.Stderr(); math.Abs(got-wantSE) > 1e-12 {
		t.Errorf("Stderr = %v, want %v", got, wantSE)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	e := New()
	if e.Mean() != 0 || e.Stderr() != 0 || e.Min() != 0 || e.Max() != 0 || e.Median() != 0 {
		t.Error("empty sample statistics not all zero")
	}
	s := Of(42)
	if s.Mean() != 42 || s.Median() != 42 || s.Stderr() != 0 {
		t.Error("singleton statistics wrong")
	}
}

func TestQuantiles(t *testing.T) {
	s := Of(1, 2, 3, 4, 5)
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-1, 1}, {2, 5}, // clamped
		{0.1, 1.4}, // interpolated
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBoxSummary(t *testing.T) {
	s := Of(10, 20, 30, 40, 50)
	b := s.BoxSummary()
	if b.Min != 10 || b.Q1 != 20 || b.Median != 30 || b.Q3 != 40 || b.Max != 50 || b.N != 5 {
		t.Errorf("Box = %+v", b)
	}
	if b.String() == "" {
		t.Error("Box.String empty")
	}
}

func TestCCDF(t *testing.T) {
	s := Of(1, 2, 3, 4)
	got := s.CCDF([]float64{0, 1, 2.5, 4, 5})
	want := []float64{1, 0.75, 0.5, 0, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("CCDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if s.FractionAbove(0) != 1 {
		t.Error("FractionAbove(0) != 1")
	}
	// CCDF at exactly a data value excludes it: P(X > 4) = 0.
	if s.CCDFAt(4) != 0 {
		t.Errorf("CCDFAt(4) = %v", s.CCDFAt(4))
	}
}

func TestCCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, ts []float64) bool {
		if len(xs) == 0 {
			return true
		}
		s := New()
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		if s.N() == 0 {
			return true
		}
		clean := ts[:0]
		for _, v := range ts {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		sort.Float64s(clean)
		ps := s.CCDF(clean)
		for i := 1; i < len(ps); i++ {
			if ps[i] > ps[i-1]+1e-12 {
				return false
			}
		}
		for _, p := range ps {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantileOrderProperty(t *testing.T) {
	f := func(xs []float64) bool {
		s := New()
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
			}
		}
		if s.N() == 0 {
			return true
		}
		q25, q50, q75 := s.Quantile(0.25), s.Quantile(0.5), s.Quantile(0.75)
		return s.Min() <= q25 && q25 <= q50 && q50 <= q75 && q75 <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogSpace(t *testing.T) {
	pts := LogSpace(10, 1000, 3)
	want := []float64{10, 100, 1000}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-9 {
			t.Errorf("LogSpace[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if got := LogSpace(0, 10, 5); len(got) != 1 {
		t.Error("LogSpace with lo=0 should degrade to single point")
	}
}

func TestMeanStderrFormat(t *testing.T) {
	s := Of(1, 2, 3)
	if got := s.MeanStderr(); got != "2.00±0.58" {
		t.Errorf("MeanStderr = %q", got)
	}
}

func TestAddAllAndValues(t *testing.T) {
	s := New()
	s.AddAll([]float64{3, 1, 2})
	v := s.Values()
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Errorf("Values not sorted: %v", v)
	}
	// Adding after Values still works.
	s.Add(0)
	if s.Min() != 0 {
		t.Error("Min after late Add wrong")
	}
}

func TestAddDropsNaN(t *testing.T) {
	s := Of(1, 2, 3)
	s.Add(math.NaN())
	if s.N() != 3 {
		t.Fatalf("NaN was admitted: N = %d", s.N())
	}
	s.AddAll([]float64{math.NaN(), 4, math.NaN()})
	if s.N() != 4 {
		t.Fatalf("AddAll NaN filtering wrong: N = %d", s.N())
	}
	if m := s.Mean(); math.IsNaN(m) || m != 2.5 {
		t.Errorf("Mean after NaN adds = %v, want 2.5", m)
	}
	if q := s.Quantile(0.5); math.IsNaN(q) {
		t.Error("Quantile poisoned by NaN")
	}
}

func TestQuantileEdgeSizes(t *testing.T) {
	// Zero elements: every statistic is zero, no panic.
	e := New()
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := e.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v", q, got)
		}
	}
	if b := e.BoxSummary(); b.N != 0 || b.Min != 0 || b.Max != 0 {
		t.Errorf("empty BoxSummary = %+v", b)
	}
	// One element: every quantile is that element.
	s := Of(7)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("singleton Quantile(%v) = %v, want 7", q, got)
		}
	}
	// Two elements interpolate linearly.
	s2 := Of(10, 20)
	if got := s2.Quantile(0.5); got != 15 {
		t.Errorf("two-element median = %v, want 15", got)
	}
	if got := s2.Quantile(0.25); got != 12.5 {
		t.Errorf("two-element Q1 = %v, want 12.5", got)
	}
}

func TestVarSingleton(t *testing.T) {
	if v := Of(5).Var(); v != 0 {
		t.Errorf("singleton Var = %v", v)
	}
	if sd := Of(5).Stddev(); sd != 0 {
		t.Errorf("singleton Stddev = %v", sd)
	}
}

// sameBits compares two statistics the way the exports do: to the last
// float bit.
func sameBits(t *testing.T, step int, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: %s = %v (%#x), Add-one-by-one reference has %v (%#x)",
			step, what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// randomSeries draws a slice AddAll must cope with: empty, all NaN,
// NaNs at either end and inside, duplicates and zeros, and sometimes
// long enough to take the radix sort.
func randomSeries(rng *rand.Rand) []float64 {
	n := rng.Intn(40)
	switch rng.Intn(8) {
	case 0:
		n = 0
	case 1:
		n = radixMin + rng.Intn(radixMin)
	}
	xs := make([]float64, n, n+rng.Intn(4))
	nanShare := []float64{0, 0, 0.1, 0.5, 1}[rng.Intn(5)]
	for i := range xs {
		switch {
		case rng.Float64() < nanShare:
			xs[i] = math.NaN()
		case rng.Intn(4) == 0:
			xs[i] = float64(rng.Intn(3))
		default:
			xs[i] = rng.NormFloat64() * 100
		}
	}
	if n > 0 && rng.Intn(4) == 0 {
		xs[0], xs[n-1] = math.NaN(), math.NaN()
	}
	return xs
}

// TestAddAllMatchesAddOneByOne is AddAll's contract: over any
// interleaving of Add, AddAll and reads, the sample answers exactly —
// to the bit, sort-in-place quirk included — what one built by Add
// alone answers to the same reads, it never writes a slice it was
// given, and a caller appending to that slice afterwards changes
// nothing.
func TestAddAllMatchesAddOneByOne(t *testing.T) {
	thresholds := []float64{-50, 0, 1, 150}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(), New()
		var sources, copies [][]float64
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 2:
				x := rng.NormFloat64()
				if rng.Intn(5) == 0 {
					x = math.NaN()
				}
				got.Add(x)
				want.Add(x)
			case op < 6:
				xs := randomSeries(rng)
				sources = append(sources, xs)
				copies = append(copies, append([]float64(nil), xs...))
				got.AddAll(xs)
				for _, x := range xs {
					want.Add(x)
				}
				if rng.Intn(2) == 0 {
					_ = append(xs, 12345) // into the source's spare capacity, if it has any
				}
			case op == 6:
				sameBits(t, step, "Mean", got.Mean(), want.Mean())
			case op == 7:
				q := rng.Float64()
				sameBits(t, step, "Quantile", got.Quantile(q), want.Quantile(q))
			case op == 8:
				sameBits(t, step, "Stderr", got.Stderr(), want.Stderr())
				sameBits(t, step, "Var", got.Var(), want.Var())
			case op == 9:
				g, w := got.CCDF(thresholds), want.CCDF(thresholds)
				for i := range w {
					sameBits(t, step, "CCDF", g[i], w[i])
				}
				sameBits(t, step, "Min", got.Min(), want.Min())
				sameBits(t, step, "Max", got.Max(), want.Max())
			}
			// N reads no value, so it is checked after every step.
			if got.N() != want.N() {
				t.Fatalf("seed %d step %d: N = %d, reference has %d", seed, step, got.N(), want.N())
			}
		}
		sameBits(t, -1, "final Mean", got.Mean(), want.Mean())
		g, w := got.Values(), want.Values()
		if len(g) != len(w) {
			t.Fatalf("seed %d: %d values, reference has %d", seed, len(g), len(w))
		}
		for i := range w {
			sameBits(t, -1, "Values", g[i], w[i])
		}
		for i, xs := range sources {
			for j := range xs {
				if math.Float64bits(xs[j]) != math.Float64bits(copies[i][j]) {
					t.Fatalf("seed %d: AddAll source %d was written at [%d]", seed, i, j)
				}
			}
		}
	}
}

// Counts and statistics read straight after AddAll see every NaN-free
// value it was given.
func TestAddAllCounts(t *testing.T) {
	fresh := func() *Sample {
		s := New()
		s.AddAll([]float64{4, math.NaN(), 2})
		s.AddAll([]float64{6})
		return s
	}
	if n := fresh().N(); n != 3 {
		t.Errorf("N = %d, want 3", n)
	}
	if got, want := fresh().Stderr(), Of(4, 2, 6).Stderr(); got != want || got == 0 {
		t.Errorf("Stderr = %v, want %v", got, want)
	}
	if got := fresh().CCDF([]float64{3}); got[0] != 2.0/3 {
		t.Errorf("CCDF(3) = %v, want 2/3", got[0])
	}
	if got := fresh().Quantile(0.5); got != 4 {
		t.Errorf("Quantile(0.5) = %v, want 4", got)
	}
	if lo, hi := fresh().Min(), fresh().Max(); lo != 2 || hi != 6 {
		t.Errorf("Min, Max = %v, %v, want 2, 6", lo, hi)
	}
}

// Appending to a source after AddAll, with or without spare capacity in
// it, or writing its elements changes nothing in the sample, and the
// sample's sort never reaches the source.
func TestAppendToSourceAfterAddAll(t *testing.T) {
	src := make([]float64, 3, 8)
	copy(src, []float64{3, 1, 2})
	s := New()
	s.AddAll(src)
	src = append(src, 99)
	if s.N() != 3 || s.Max() != 3 {
		t.Errorf("after append to source: N = %d, Max = %v, want 3, 3", s.N(), s.Max())
	}
	if src[0] != 3 || src[1] != 1 || src[2] != 2 || src[3] != 99 {
		t.Errorf("the sample's sort reached the source: %v", src)
	}
	src[0] = -7
	if s.N() != 3 || s.Min() != 1 || s.Max() != 3 {
		t.Errorf("after writing the source: N = %d, Min = %v, Max = %v, want 3, 1, 3", s.N(), s.Min(), s.Max())
	}
}

// BenchmarkAddAllPooled is a cell's life: many runs' series pooled,
// then one mean and one quantile.
func BenchmarkAddAllPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	runs := make([][]float64, 40)
	for i := range runs {
		runs[i] = fill(3000, func(int) float64 { return rng.ExpFloat64() * 40 })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, r := range runs {
			s.AddAll(r)
		}
		sinkF = s.Mean() + s.Quantile(0.9)
	}
}

var sinkF float64
