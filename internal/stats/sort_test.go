package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortOracle is what Sample.sort was before the radix sort: NaNs
// dropped as Add drops them, then sort.Float64s.
func sortOracle(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	sort.Float64s(out)
	return out
}

// checkSort runs xs through the Sample the way a Cell does (AddAll,
// then an order statistic) and compares with the oracle element by
// element. == is the comparison the exports depend on; it also reads
// -0 and +0 as the same value, the one pair sort.Float64s may leave in
// either order.
func checkSort(t *testing.T, name string, xs []float64) {
	t.Helper()
	want := sortOracle(xs)
	s := New()
	s.AddAll(xs)
	got := s.Values()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, oracle has %v", name, i, got[i], want[i])
		}
	}
	// The radix sort, unlike the oracle, does order the two zeros.
	for i := 1; i < len(got) && len(got) >= radixMin; i++ {
		if got[i] == 0 && got[i-1] == 0 && math.Signbit(got[i]) && !math.Signbit(got[i-1]) {
			t.Fatalf("%s: +0 before -0 at %d", name, i)
		}
	}
}

func fill(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

func TestSortMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	inf := math.Inf(1)
	// The out-of-order delay of a bulk download: in-order packets wait
	// 0 ms, a few wait out a retransmission.
	ofo := func(i int) float64 {
		if i%17 != 0 {
			return 0
		}
		return math.Exp(rng.NormFloat64()*2 + 3)
	}
	cases := map[string][]float64{
		"empty":      nil,
		"one":        {3},
		"all equal":  fill(1000, func(int) float64 { return 41.5 }),
		"presorted":  fill(1000, func(i int) float64 { return float64(i) / 8 }),
		"reversed":   fill(1000, func(i int) float64 { return float64(1000-i) / 8 }),
		"negatives":  fill(1000, func(i int) float64 { return rng.NormFloat64() * 1e3 }),
		"zeros":      fill(600, func(i int) float64 { return math.Copysign(0, float64(i%3)-1) }),
		"infinities": append(fill(400, func(i int) float64 { return rng.Float64() }), inf, -inf, inf, 0, math.MaxFloat64, -math.SmallestNonzeroFloat64),
		"with NaNs":  fill(700, func(i int) float64 { return []float64{math.NaN(), float64(i), -float64(i)}[i%3] }),
		"only NaNs":  fill(300, func(int) float64 { return math.NaN() }),
		"ofo":        fill(40000, ofo),
	}
	for _, n := range []int{radixMin - 1, radixMin, radixMin + 1} {
		cases[fmt.Sprintf("cutoff%+d", n-radixMin)] = fill(n, func(int) float64 { return rng.ExpFloat64() * 40 })
	}
	for name, xs := range cases {
		checkSort(t, name, xs)
	}

	for i := 0; i < 1000; i++ {
		n := rng.Intn(4 * radixMin)
		scale := math.Pow(10, float64(rng.Intn(12)-4))
		checkSort(t, "random", fill(n, func(int) float64 {
			if rng.Intn(4) == 0 {
				return math.Float64frombits(rng.Uint64()) // any bit pattern, NaNs included
			}
			return math.Round(rng.NormFloat64()*scale*8) / 8 // plenty of ties
		}))
	}
}

// FuzzSortFloats reads its input as little-endian float64 words, so
// the fuzzer reaches every bit pattern: NaN payloads, denormals, both
// zeros and both infinities.
func FuzzSortFloats(f *testing.F) {
	words := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(words())
	f.Add(words(3, 1, 2))
	f.Add(words(0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1.5))
	f.Add(words(fill(2*radixMin, func(i int) float64 { return float64((i*7919)%513) - 200 })...))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		// Short inputs would only ever reach sort.Float64s itself.
		for len(xs) > 0 && len(xs) < radixMin {
			xs = append(xs, xs...)
		}
		checkSort(t, "fuzz", xs)
	})
}

func BenchmarkSortRTT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := fill(50000, func(int) float64 { return 20 + rng.ExpFloat64()*35 })
	xs := make([]float64, len(base))
	for _, sorter := range []struct {
		name string
		sort func([]float64)
	}{{"radix", sortFloats}, {"oracle", sort.Float64s}} {
		b.Run(sorter.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(xs, base)
				sorter.sort(xs)
			}
		})
	}
}
