package main

import (
	"math"
	"sort"
)

// summary is how every pass-level and probe-level metric is reported:
// the median of its samples with the quartiles and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and quartiles of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the acceptance procedure computes
// from the same numbers. A single sample is its own median and
// quartiles; no samples summarize to zeros with N = 0.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: len(s), Median: cut(2), Q1: cut(1), Q3: cut(3)}
}

func median(v []float64) float64 { return summarize(v).Median }

// percentile returns the p-th percentile (0 < p < 1) of v by the
// nearest-rank rule. It refuses (ok = false) when fewer than ten
// samples lie beyond the chosen rank: a tail percentile resting on a
// handful of samples is noise, so callers must fall back to a lower
// one or collect more.
func percentile(v []float64, p float64) (val float64, ok bool) {
	if len(v) == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)))) // 1-based
	if len(s)-rank < 10 {
		return 0, false
	}
	return s[rank-1], true
}
