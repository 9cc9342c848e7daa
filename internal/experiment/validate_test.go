package experiment

import (
	"strings"
	"testing"

	"mptcplab/internal/units"
)

// TestParseTransport: ParseTransport inverts Transport.String and takes
// every spelling a binary ever has, in any case; anything else is a
// one-line error naming it.
func TestParseTransport(t *testing.T) {
	for _, tr := range []Transport{SPWiFi, SPCell, MP2, MP4} {
		if got, err := ParseTransport(tr.String()); err != nil || got != tr {
			t.Errorf("ParseTransport(%q) = %v, %v", tr.String(), got, err)
		}
	}
	for spelling, want := range map[string]Transport{
		"sp-wifi": SPWiFi, "wifi": SPWiFi, "tcp-wifi": SPWiFi, "WiFi": SPWiFi,
		"sp-cell": SPCell, "cell": SPCell, "tcp-cell": SPCell,
		"mp2": MP2, "mptcp": MP2, "MPTCP": MP2, "mp4": MP4,
	} {
		if got, err := ParseTransport(spelling); err != nil || got != want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	for _, bad := range []string{"", "compare", "mp3", "?"} {
		if _, err := ParseTransport(bad); err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("ParseTransport(%q): error %v does not name it", bad, err)
		}
	}
}

// TestValidate: a RunConfig that would panic in stackConfig, run under
// a fallback scheduler or download nothing is refused with a one-line
// error naming the bad value, as is a negative repetition count.
func TestValidate(t *testing.T) {
	ok := RunConfig{Transport: MP2, Size: 64 * units.KB}
	if err := ok.Validate(); err != nil {
		t.Errorf("defaults refused: %v", err)
	}
	for want, rc := range map[string]RunConfig{
		`"foo"`:   {Size: units.KB, Controller: "foo"},
		`"bogus"`: {Size: units.KB, Scheduler: "bogus"},
		"0B":      {},
		"-5120B":  {Size: -5 * units.KB},
	} {
		if err := rc.Validate(); err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%+v: error %v, want one line naming %s", rc, err, want)
		}
	}
	if err := (CampaignOpts{Reps: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "-1") {
		t.Errorf("reps=-1: error %v", err)
	}
	if err := (CampaignOpts{}).Validate(); err != nil {
		t.Errorf("zero CampaignOpts refused: %v", err)
	}
}
