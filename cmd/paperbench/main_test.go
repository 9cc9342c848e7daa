package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mptcplab/internal/experiment"
)

func names(cs []experiment.Campaign) string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return strings.Join(out, ",")
}

// TestSelectCampaigns pins -experiment's resolution through the
// registry against the list paperbench used to hard-code: "all" is the
// same eight campaigns in the same order, every historical alias still
// lands on its campaign, and selections come back in registry order.
func TestSelectCampaigns(t *testing.T) {
	for which, want := range map[string]string{
		"all":                "fig2,fig4,fig6,fig8,fig9,fig11,shootout,fig12",
		"fig3":               "fig2",
		"table2":             "fig2",
		"fig5":               "fig4",
		"table3":             "fig4",
		"fig7":               "fig6",
		"table4":             "fig6",
		"fig10":              "fig9",
		"table5":             "fig9",
		"sched":              "shootout",
		"fig13":              "fig12",
		"table6":             "fig12",
		"fig12, fig8,table2": "fig2,fig8,fig12",
		"mobility":           "mobility",
		"all,mobility":       "fig2,fig4,fig6,fig8,fig9,fig11,shootout,fig12,mobility",
	} {
		got, err := selectCampaigns(which)
		if err != nil || names(got) != want {
			t.Errorf("selectCampaigns(%q) = %s, %v; want %s", which, names(got), err, want)
		}
	}
}

// TestRejectsBadFlags: a typo dies before any campaign runs — exit
// code 2, one line on stderr, nothing on stdout.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "nope"},
		{"-experiment", "fig8,nope"},
		{"-experiment", "fig8", "-format", "yaml"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if text := strings.TrimSpace(stderr.String()); text == "" || strings.Contains(text, "\n") {
			t.Errorf("%v: want a one-line error, got %q", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %q to stdout", args, stdout.String())
		}
	}
}

// TestJSONReportMatchesDaemonEnvelope: -format json is the envelope
// mptcpd serves as export.json for the same spec. cmd/mptcpd's
// TestServeExperimentCampaign compares the daemon against this same
// hand-built envelope, so the two binaries are pinned to each other
// through it and not only through their shared writer.
func TestJSONReportMatchesDaemonEnvelope(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig8", "-reps", "1", "-seed", "42", "-format", "json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	m := experiment.SimultaneousSYN(experiment.CampaignOpts{Reps: 1, Seed: 42, SampleProfiles: true})
	m.Export() // paperbench's speedline exports once before the report does
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Cells []experiment.CellExport `json:"cells"`
	}{m.Export()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("paperbench -format json differs from the daemon's export.json envelope:\n%s\nwant:\n%s", stdout.Bytes(), want.Bytes())
	}
	if !strings.Contains(stderr.String(), "fig8: wall") {
		t.Errorf("speedline missing from stderr in json mode: %q", stderr.String())
	}
}
