package load

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// SizeDist draws per-flow transfer sizes.
type SizeDist interface {
	Sample(rng *sim.RNG) units.ByteCount
	Name() string
}

// FixedSize always returns the same size.
type FixedSize units.ByteCount

// Sample implements SizeDist.
func (f FixedSize) Sample(*sim.RNG) units.ByteCount { return units.ByteCount(f) }

// Name implements SizeDist.
func (f FixedSize) Name() string { return units.ByteCount(f).String() }

// SizeMix draws from a weighted set of fixed sizes — the paper's
// experiment grids are exactly such mixes.
type SizeMix struct {
	Label   string
	Sizes   []units.ByteCount
	Weights []float64 // need not sum to 1; normalized internally
}

// Sample implements SizeDist.
func (m SizeMix) Sample(rng *sim.RNG) units.ByteCount {
	var total float64
	for _, w := range m.Weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range m.Weights {
		x -= w
		if x < 0 {
			return m.Sizes[i]
		}
	}
	return m.Sizes[len(m.Sizes)-1]
}

// Name implements SizeDist.
func (m SizeMix) Name() string { return m.Label }

// BoundedPareto draws heavy-tailed sizes from a Pareto distribution
// truncated to [Lo, Hi] by inverse-CDF sampling — the classic model of
// web transfer sizes, here spanning the paper's full 8 KB–512 MB
// measurement range.
type BoundedPareto struct {
	Label  string
	Lo, Hi units.ByteCount
	Alpha  float64
}

// Sample implements SizeDist.
func (p BoundedPareto) Sample(rng *sim.RNG) units.ByteCount {
	l, h := float64(p.Lo), float64(p.Hi)
	// Inverse CDF of Pareto(l, alpha) truncated at h:
	// x = l * (1 - u*(1-(l/h)^alpha))^(-1/alpha).
	theta := math.Pow(l/h, p.Alpha)
	u := rng.Float64()
	x := l * math.Pow(1-u*(1-theta), -1/p.Alpha)
	if x > h {
		x = h
	}
	return units.ByteCount(x)
}

// Name implements SizeDist.
func (p BoundedPareto) Name() string { return p.Label }

// SmallFlowMix is the paper's small-flow regime (Figures 4/5): mostly
// 8–64 KB objects with an occasional 512 KB, the web-browsing traffic
// MPTCP struggles on.
func SmallFlowMix() SizeDist {
	return SizeMix{
		Label:   "small",
		Sizes:   []units.ByteCount{8 * units.KB, 64 * units.KB, 512 * units.KB},
		Weights: []float64{0.50, 0.35, 0.15},
	}
}

// WebMix spans small objects through multi-MB downloads, weighted
// toward the small end as real web traffic is.
func WebMix() SizeDist {
	return SizeMix{
		Label: "web",
		Sizes: []units.ByteCount{
			8 * units.KB, 64 * units.KB, 512 * units.KB, 4 * units.MB, 16 * units.MB,
		},
		Weights: []float64{0.40, 0.30, 0.18, 0.09, 0.03},
	}
}

// HeavyTail is a bounded Pareto over the paper's full 8 KB–512 MB
// range (alpha 1.15: most flows tiny, most *bytes* in elephants).
func HeavyTail() SizeDist {
	return BoundedPareto{Label: "heavy", Lo: 8 * units.KB, Hi: 512 * units.MB, Alpha: 1.15}
}

// ParseSizeDist resolves a CLI spec: a named mix ("small", "web",
// "heavy") or a fixed size ("64KB").
func ParseSizeDist(s string) (SizeDist, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "small":
		return SmallFlowMix(), nil
	case "web":
		return WebMix(), nil
	case "heavy":
		return HeavyTail(), nil
	}
	if b, err := units.ParseByteCount(s); err == nil {
		return FixedSize(b), nil
	}
	return nil, fmt.Errorf("load: unknown size distribution %q (want small|web|heavy|<size>)", s)
}

// TransportMix gives the per-flow transport probabilities. Zero value
// means all-MPTCP.
type TransportMix struct {
	WiFi, Cell, MPTCP float64
}

// pick draws a transport.
func (m TransportMix) pick(rng *sim.RNG) world.Transport {
	total := m.WiFi + m.Cell + m.MPTCP
	if total <= 0 {
		return world.MPTCP
	}
	x := rng.Float64() * total
	if x < m.WiFi {
		return world.TCPWiFi
	}
	if x < m.WiFi+m.Cell {
		return world.TCPCell
	}
	return world.MPTCP
}

// String renders the mix as a spec ParseTransportMix inverts. Weighted
// mixes join with "+" rather than "," so the result can embed in a
// comma-separated replay token ("wifi=0.3+cell=0.2+mptcp=0.5").
func (m TransportMix) String() string {
	if m.WiFi == 0 && m.Cell == 0 {
		return "mptcp"
	}
	return fmt.Sprintf("wifi=%g+cell=%g+mptcp=%g", m.WiFi, m.Cell, m.MPTCP)
}

// ParseTransportMix resolves a CLI spec: "mptcp", "tcp-wifi",
// "tcp-cell", or a weighted list like "wifi=0.3,cell=0.2,mptcp=0.5"
// ("+" works as the separator too, as replay tokens require).
func ParseTransportMix(s string) (TransportMix, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "mptcp":
		return TransportMix{MPTCP: 1}, nil
	case "tcp-wifi", "wifi":
		return TransportMix{WiFi: 1}, nil
	case "tcp-cell", "cell":
		return TransportMix{Cell: 1}, nil
	}
	var m TransportMix
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '+' }) {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("load: bad transport mix part %q", part)
		}
		var w float64
		if _, err := fmt.Sscanf(v, "%g", &w); err != nil || w < 0 {
			return m, fmt.Errorf("load: bad transport weight %q", part)
		}
		switch strings.ToLower(k) {
		case "wifi":
			m.WiFi = w
		case "cell":
			m.Cell = w
		case "mptcp":
			m.MPTCP = w
		default:
			return m, fmt.Errorf("load: unknown transport %q", k)
		}
	}
	if m.WiFi+m.Cell+m.MPTCP <= 0 {
		return m, fmt.Errorf("load: transport mix %q has zero total weight", s)
	}
	return m, nil
}

// arrivalTimes draws the open-loop arrival schedule over [0, window).
//
// With count > 0 it returns exactly count arrivals at the order
// statistics of count uniform draws — a Poisson process conditioned on
// its total, so "run a 1,000-flow fleet" is exact and still
// memoryless-looking. Otherwise it draws a Poisson process of the
// given rate (flows per second of simulated time).
func arrivalTimes(rng *sim.RNG, rate float64, count int, window sim.Time) []sim.Time {
	if count > 0 {
		ts := make([]sim.Time, count)
		for i := range ts {
			ts[i] = sim.Time(rng.Float64() * float64(window))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return ts
	}
	var ts []sim.Time
	if rate <= 0 {
		return ts
	}
	meanGap := float64(sim.Second) / rate
	for at := sim.Time(rng.Exponential(meanGap)); at < window; at += sim.Time(rng.Exponential(meanGap)) {
		ts = append(ts, at)
	}
	return ts
}
