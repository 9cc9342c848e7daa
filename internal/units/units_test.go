package units

import (
	"testing"
	"testing/quick"

	"mptcplab/internal/sim"
)

func TestByteCountString(t *testing.T) {
	cases := []struct {
		in   ByteCount
		want string
	}{
		{512, "512B"},
		{8 * KB, "8KB"},
		{512 * KB, "512KB"},
		{4 * MB, "4MB"},
		{2 * GB, "2GB"},
		{1536, "1.5KB"},
		{3 * MB / 2, "1.5MB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBitRateString(t *testing.T) {
	cases := []struct {
		in   BitRate
		want string
	}{
		{25 * Mbps, "25Mbps"},
		{1 * Gbps, "1Gbps"},
		{600 * Kbps, "600Kbps"},
		{1234, "1234bps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTransmitTime(t *testing.T) {
	// 1500 bytes at 12 Mbps = 1 ms.
	if got := (12 * Mbps).TransmitTime(1500); got != sim.Millisecond {
		t.Errorf("TransmitTime = %v, want 1ms", got)
	}
	// Zero rate transmits instantly (infinite-speed link).
	if got := BitRate(0).TransmitTime(1500); got != 0 {
		t.Errorf("zero-rate TransmitTime = %v", got)
	}
	// Large transfers do not overflow: 512 MB at 1 Gbps ≈ 4.29 s.
	got := (1 * Gbps).TransmitTime(512 * MB)
	want := sim.Time(float64(512*MB*8) / 1e9 * float64(sim.Second))
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Millisecond {
		t.Errorf("512MB@1Gbps = %v, want ≈%v", got, want)
	}
}

func TestBytesIn(t *testing.T) {
	if got := (8 * Mbps).BytesIn(sim.Second); got != 1_000_000 {
		t.Errorf("8Mbps over 1s = %d bytes, want 1e6", got)
	}
	if got := (8 * Mbps).BytesIn(0); got != 0 {
		t.Errorf("zero duration = %d", got)
	}
}

// TransmitTime and BytesIn are approximate inverses.
func TestRateRoundTripProperty(t *testing.T) {
	f := func(kb uint16, mbps uint8) bool {
		n := ByteCount(kb)*KB + 1
		r := BitRate(int64(mbps)+1) * Mbps
		d := r.TransmitTime(n)
		back := r.BytesIn(d)
		diff := int64(back - n)
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2 // integer rounding
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseByteCount(t *testing.T) {
	cases := []struct {
		in   string
		want ByteCount
	}{
		{"512B", 512},
		{"8KB", 8 * KB},
		{"1.5KB", 1536},
		{"4MB", 4 * MB},
		{"1.5MB", 3 * MB / 2},
		{"2GB", 2 * GB},
		{"1234", 1234}, // bare bytes
		{"0B", 0},
	}
	for _, c := range cases {
		got, err := ParseByteCount(c.in)
		if err != nil {
			t.Errorf("ParseByteCount(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseByteCount(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "KB", "xMB", "1.2.3KB", "NaNMB", "InfGB"} {
		if v, err := ParseByteCount(bad); err == nil {
			t.Errorf("ParseByteCount(%q) = %d, want error", bad, v)
		}
	}
}

func TestParseBitRate(t *testing.T) {
	cases := []struct {
		in   string
		want BitRate
	}{
		{"25Mbps", 25 * Mbps},
		{"1Gbps", Gbps},
		{"600Kbps", 600 * Kbps},
		{"1234bps", 1234},
		{"2.5Mbps", 2_500_000},
		{"42", 42}, // bare bps
	}
	for _, c := range cases {
		got, err := ParseBitRate(c.in)
		if err != nil {
			t.Errorf("ParseBitRate(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBitRate(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "bps", "fastMbps", "1..0Gbps"} {
		if v, err := ParseBitRate(bad); err == nil {
			t.Errorf("ParseBitRate(%q) = %d, want error", bad, v)
		}
	}
}

// Every value String renders as an exact unit multiple must parse back
// to itself.
func TestByteCountStringParseRoundTrip(t *testing.T) {
	f := func(mb uint16, small uint8) bool {
		for _, b := range []ByteCount{
			ByteCount(mb) * MB,    // renders "NMB" or "NGB"
			ByteCount(small),      // renders "NB"
			ByteCount(small) * KB, // renders "NKB" (stays below 1MB)
		} {
			got, err := ParseByteCount(b.String())
			if err != nil || got != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Fractional renderings round-trip to within the printed precision
	// (String keeps one decimal).
	for _, b := range []ByteCount{1536, 2500, 3 * MB / 2, 5*MB + 123*KB} {
		got, err := ParseByteCount(b.String())
		if err != nil {
			t.Fatalf("ParseByteCount(%q): %v", b.String(), err)
		}
		tol := ByteCount(MB / 10)
		if b < MB {
			tol = KB / 10
		}
		if diff := got - b; diff > tol || diff < -tol {
			t.Errorf("round trip %q: got %d, want %d±%d", b.String(), got, b, tol)
		}
	}
}

func TestBitRateStringParseRoundTrip(t *testing.T) {
	f := func(kbps uint16) bool {
		r := BitRate(kbps) * Kbps
		got, err := ParseBitRate(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTimeRoundTrip: ParseTime reads the chaos specs' forms and what
// sim.Time.String prints (the load replay token's), and rejects a bare
// number, a negative duration and exponent notation.
func TestTimeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Time
	}{
		{"500ms", 500 * sim.Millisecond},
		{"2s", 2 * sim.Second},
		{"1.5s", 1500 * sim.Millisecond},
		{"2.01s", 2010 * sim.Millisecond},
		{"250us", 250 * sim.Microsecond},
		{"1m", sim.Minute},
		{"1m0s", sim.Minute},
		{"0s", 0},
	} {
		got, err := ParseTime(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTime(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		back, err := ParseTime(got.String())
		if err != nil || back != got {
			t.Errorf("%v.String() = %q does not round-trip", got, got.String())
		}
	}
	for _, bad := range []string{"", "5", "0", "1.", "-1s", "1e3ms", "s", "2 s"} {
		if got, err := ParseTime(bad); err == nil {
			t.Errorf("ParseTime(%q) = %v, want an error", bad, got)
		}
	}
}

func TestCommas(t *testing.T) {
	for n, want := range map[uint64]string{0: "0", 999: "999", 1000: "1,000", 14994: "14,994", 1234567: "1,234,567"} {
		if got := Commas(n); got != want {
			t.Errorf("Commas(%d) = %q, want %q", n, got, want)
		}
	}
}
