// Package stats provides the summary statistics the paper reports:
// sample mean ± standard error (Tables 2-7), box-and-whisker summaries
// (Figures 2, 4, 6, 8, 9, 11), and CDF/CCDF series (Figures 12, 13).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample is a growing collection of float64 observations: xs, then the
// adopted runs in order. Every reader but N flattens the adopted runs
// behind xs first, so storage order is insertion order (DESIGN.md §23).
type Sample struct {
	xs       []float64
	adopted  [][]float64 // NaN-free runs AddAll holds by reference; never written
	nAdopted int
	sorted   bool
}

// New returns an empty sample.
func New() *Sample { return &Sample{} }

// Of builds a sample from values.
func Of(xs ...float64) *Sample {
	s := New()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Add appends one observation. NaN observations are dropped: a single
// NaN would poison every downstream statistic and break the sorted
// order the quantile machinery depends on.
func (s *Sample) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.flatten()
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends many observations, dropping NaNs like Add. It adopts
// each NaN-free run of xs by reference instead of copying it: the
// sample keeps the slice and never writes it, and the caller must not
// write its elements afterwards (appending to it is harmless). The
// first statistic copies every adopted run behind the observations
// already held, once, so a per-packet series costs one scan here and
// one copy there.
func (s *Sample) AddAll(xs []float64) {
	for len(xs) > 0 {
		n := 0
		for n < len(xs) && !math.IsNaN(xs[n]) {
			n++
		}
		if n > 0 {
			s.adopted = append(s.adopted, xs[:n:n])
			s.nAdopted += n
			s.sorted = false
		}
		xs = xs[min(n+1, len(xs)):]
	}
}

// flatten copies the adopted runs behind xs in adoption order — what
// appending each at its AddAll would have stored — growing xs at most
// once, to exactly the size needed, and lets the runs go.
func (s *Sample) flatten() {
	if len(s.adopted) == 0 {
		return
	}
	if need := len(s.xs) + s.nAdopted; need > cap(s.xs) {
		xs := make([]float64, len(s.xs), need)
		copy(xs, s.xs)
		s.xs = xs
	}
	for _, run := range s.adopted {
		s.xs = append(s.xs, run...)
	}
	s.adopted, s.nAdopted = nil, 0
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) + s.nAdopted }

// Values returns a copy of the observations in sorted order. The copy
// is defensive: earlier versions returned the internal slice, and a
// caller mutating it would silently corrupt every later quantile.
// Callers that only need order statistics should prefer Quantile.
func (s *Sample) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

func (s *Sample) sort() {
	s.flatten()
	if !s.sorted {
		sortFloats(s.xs)
		s.sorted = true
	}
}

// Below radixMin the radix sort's fixed cost, its histograms, is larger
// than all of sort.Float64s (measured crossover: about 700 elements).
const (
	radixMin  = 1024
	radixBits = 11 // 6 passes over a 64-bit key
)

// sortFloats sorts NaN-free xs ascending and leaves exactly the slice
// sort.Float64s would (DESIGN.md §21): an LSD radix sort on a key
// whose unsigned order is the floats' own. Floats that compare equal
// have equal bits — except -0 and +0, which land in that order instead
// of an unspecified one.
func sortFloats(xs []float64) {
	if len(xs) < radixMin {
		sort.Float64s(xs)
		return
	}
	const mask = 1<<radixBits - 1
	var count [(64 + radixBits - 1) / radixBits][mask + 1]int
	for _, x := range xs {
		k := floatKey(x)
		for d := range count {
			count[d][k>>(radixBits*d)&mask]++
		}
	}
	src, dst := xs, make([]float64, len(xs))
	for d := range count {
		c, shift := &count[d], radixBits*d
		if c[floatKey(src[0])>>shift&mask] == len(xs) {
			continue // every key has this digit: the pass would move nothing
		}
		at := 0
		for i, n := range c {
			c[i], at = at, at+n
		}
		for _, x := range src {
			digit := floatKey(x) >> shift & mask
			dst[c[digit]] = x
			c[digit]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// floatKey flips every bit of a negative float and the sign bit of any
// other, which turns IEEE-754 order into unsigned integer order.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// Mean reports the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	s.flatten()
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var reports the unbiased sample variance.
func (s *Sample) Var() float64 {
	n := s.N()
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Stddev reports the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// Stderr reports the standard error of the mean — the "± " the paper's
// tables quote.
func (s *Sample) Stderr() float64 {
	if s.N() < 2 {
		return 0
	}
	return s.Stddev() / math.Sqrt(float64(s.N()))
}

// Min reports the smallest observation.
func (s *Sample) Min() float64 {
	if s.N() == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max reports the largest observation.
func (s *Sample) Max() float64 {
	if s.N() == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Quantile reports the q-quantile (0 <= q <= 1) by linear
// interpolation between order statistics.
func (s *Sample) Quantile(q float64) float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s.xs[n-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median reports the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// MeanStderr formats "mean±stderr" as the paper's tables do.
func (s *Sample) MeanStderr() string {
	return fmt.Sprintf("%.2f±%.2f", s.Mean(), s.Stderr())
}

// Box is a five-number box-and-whisker summary (the paper's download
// time figures: min, Q1, median, Q3, max).
type Box struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// BoxSummary computes the box-plot summary of the sample.
func (s *Sample) BoxSummary() Box {
	return Box{
		Min:    s.Min(),
		Q1:     s.Quantile(0.25),
		Median: s.Median(),
		Q3:     s.Quantile(0.75),
		Max:    s.Max(),
		N:      s.N(),
	}
}

// String renders the box compactly.
func (b Box) String() string {
	return fmt.Sprintf("[%.3g | %.3g ▁%.3g▁ %.3g | %.3g] n=%d",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}

// CCDF returns the complementary CDF evaluated at each of the given
// thresholds: P(X > t).
func (s *Sample) CCDF(thresholds []float64) []float64 {
	s.sort()
	out := make([]float64, len(thresholds))
	n := float64(len(s.xs))
	if n == 0 {
		return out
	}
	for i, t := range thresholds {
		// Count of xs > t = n - upperBound(t).
		idx := sort.SearchFloat64s(s.xs, math.Nextafter(t, math.Inf(1)))
		out[i] = float64(len(s.xs)-idx) / n
	}
	return out
}

// CCDFAt reports P(X > t).
func (s *Sample) CCDFAt(t float64) float64 {
	return s.CCDF([]float64{t})[0]
}

// FractionAbove is an alias of CCDFAt for readability at call sites.
func (s *Sample) FractionAbove(t float64) float64 { return s.CCDFAt(t) }

// LogSpace generates n logarithmically spaced points in [lo, hi],
// matching the paper's log-scale CCDF axes.
func LogSpace(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := range out {
		out[i] = x
		x *= ratio
	}
	return out
}
