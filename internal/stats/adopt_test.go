package stats

import (
	"math"
	"math/rand"
	"testing"
)

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

// TestAdoptionMatchesAddOneByOne is AddAll's contract: over any
// interleaving of Add, AddAll and reads, the sample answers exactly —
// to the bit, sort-in-place quirk included — what one built by Add
// alone answers to the same reads, it never writes a slice it adopted,
// and a caller appending to that slice afterwards changes nothing.
func TestAdoptionMatchesAddOneByOne(t *testing.T) {
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
			// N never flattens, so it is checked after every step.
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
					t.Fatalf("seed %d: adopted slice %d was written at [%d]", seed, i, j)
				}
			}
		}
	}
}

// Statistics that read a count before they read a value must count
// runs that are adopted and not yet flattened.
func TestAdoptedRunsCount(t *testing.T) {
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

// Appending to a source after AddAll lands outside what the sample
// adopted, with or without spare capacity in the source.
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
