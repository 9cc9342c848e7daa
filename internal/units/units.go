// Package units holds the small shared vocabulary of byte counts, link
// rates and simulated durations used across mptcplab.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"mptcplab/internal/sim"
)

// Byte-count constants (powers of two, as in the paper's file sizes).
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// ByteCount is a number of bytes.
type ByteCount int64

// String renders the count with a binary-prefix unit, e.g. "512KB".
func (b ByteCount) String() string {
	switch {
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%dGB", b/GB)
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dMB", b/MB)
	case b >= MB:
		return fmt.Sprintf("%.1fMB", float64(b)/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%dKB", b/KB)
	case b >= KB:
		return fmt.Sprintf("%.1fKB", float64(b)/KB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// ParseByteCount parses the formats ByteCount.String produces —
// "512B", "8KB", "1.5MB", "2GB" — plus a bare number, which means
// bytes. Units are binary (KB = 1024), matching the constants above.
func ParseByteCount(s string) (ByteCount, error) {
	num, mult := s, int64(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		num, mult = s[:len(s)-2], GB
	case strings.HasSuffix(s, "MB"):
		num, mult = s[:len(s)-2], MB
	case strings.HasSuffix(s, "KB"):
		num, mult = s[:len(s)-2], KB
	case strings.HasSuffix(s, "B"):
		num = s[:len(s)-1]
	}
	v, err := parseScaled(num, mult)
	if err != nil {
		return 0, fmt.Errorf("units: bad byte count %q: %v", s, err)
	}
	return ByteCount(v), nil
}

// Commas renders a count with thousands separators: 1234567 is
// "1,234,567".
func Commas(n uint64) string {
	s := strconv.FormatUint(n, 10)
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// BitRate is a link speed in bits per second.
type BitRate int64

// Common rates.
const (
	Kbps BitRate = 1_000
	Mbps BitRate = 1_000_000
	Gbps BitRate = 1_000_000_000
)

// String renders the rate, e.g. "25Mbps".
func (r BitRate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", r/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// ParseBitRate parses the formats BitRate.String produces — "1Gbps",
// "25Mbps", "600Kbps", "1234bps" — plus a bare number, which means
// bits per second. Units are decimal (Kbps = 1000), matching the
// constants above.
func ParseBitRate(s string) (BitRate, error) {
	num, mult := s, int64(1)
	switch {
	case strings.HasSuffix(s, "Gbps"):
		num, mult = s[:len(s)-4], int64(Gbps)
	case strings.HasSuffix(s, "Mbps"):
		num, mult = s[:len(s)-4], int64(Mbps)
	case strings.HasSuffix(s, "Kbps"):
		num, mult = s[:len(s)-4], int64(Kbps)
	case strings.HasSuffix(s, "bps"):
		num = s[:len(s)-3]
	}
	v, err := parseScaled(num, mult)
	if err != nil {
		return 0, fmt.Errorf("units: bad bit rate %q: %v", s, err)
	}
	return BitRate(v), nil
}

// ParseTime parses a simulated duration in Go's duration syntax —
// "250us", "500ms", "1.5s", "1m0s" — which covers both sim.Time.String
// and the chaos specs' shorter forms. A bare number (even "0") and a
// negative duration are errors.
func ParseTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	switch {
	case err != nil:
		return 0, fmt.Errorf("units: bad duration %q", s)
	case strings.TrimRight(s, "0123456789.") != s:
		return 0, fmt.Errorf("units: duration %q has no unit", s)
	case d < 0:
		return 0, fmt.Errorf("units: duration %q is negative", s)
	}
	return sim.Time(d), nil
}

// parseScaled parses num (integer or decimal) times mult, exactly for
// integers and rounded to the nearest unit for fractions like "1.5".
func parseScaled(num string, mult int64) (int64, error) {
	if num == "" {
		return 0, fmt.Errorf("empty number")
	}
	if i, err := strconv.ParseInt(num, 10, 64); err == nil {
		return i * mult, nil
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("not finite")
	}
	return int64(math.Round(f * float64(mult))), nil
}

// TransmitTime reports how long a link at rate r takes to serialize n
// bytes onto the wire.
func (r BitRate) TransmitTime(n ByteCount) sim.Time {
	if r <= 0 {
		return 0
	}
	bits := int64(n) * 8
	// ns = bits * 1e9 / rate, computed to avoid overflow for large n.
	sec := bits / int64(r)
	rem := bits % int64(r)
	return sim.Time(sec)*sim.Second + sim.Time(rem*int64(sim.Second)/int64(r))
}

// BytesIn reports how many whole bytes rate r delivers in d.
func (r BitRate) BytesIn(d sim.Time) ByteCount {
	if r <= 0 || d <= 0 {
		return 0
	}
	// bytes = rate/8 * seconds
	return ByteCount(int64(r) / 8 * int64(d) / int64(sim.Second))
}
