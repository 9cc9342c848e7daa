package main

import (
	"bytes"
	"encoding/json"
	"io"
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
// registry (experiment.ParseCampaigns) against the list paperbench used
// to hard-code: "all" is the same eight campaigns in the same order,
// every historical alias still lands on its campaign, and selections
// come back in registry order.
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
		s, err := parse([]string{"-experiment", which}, io.Discard)
		if got := names(s.campaigns); err != nil || got != want {
			t.Errorf("-experiment %q selected %s, %v; want %s", which, got, err, want)
		}
	}
}

// TestRejectsBadFlags is paperbench's rejection table: each command
// line must die in parse — exit 2, exactly one stderr line that starts
// with the binary's name and names the bad value, nothing on stdout,
// no campaign run.
func TestRejectsBadFlags(t *testing.T) {
	for args, want := range map[string]string{
		"-experiment nope":              `"nope"`,
		"-experiment fig8,nope":         `"nope"`,
		"-experiment fig8 -format yaml": `"yaml"`,
		"-reps -1":                      "-1",
		"-reps few":                     `"few"`,
		"-nope":                         "-nope",
		"-experiment fig8 fig9":         `"fig9"`,
		"-experiment all -quick":        "-quick",
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "paperbench: ") || !strings.Contains(line, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				args, code, stdout.String(), stderr.String(), want)
		}
	}
}

// TestAcceptsRepoCommandLines: every paperbench command line the repo
// itself issues (README, EXPERIMENTS.md, the verify skill) parses and
// validates, creating none of the files it names.
func TestAcceptsRepoCommandLines(t *testing.T) {
	for _, args := range []string{
		"",
		"-experiment fig2,fig9 -reps 10",
		"-experiment all -reps 6",
		"-experiment all -reps 8 -format scorecard -o SCORECARD.csv",
		"-experiment fig8 -reps 2 -format scorecard",
		"-experiment fig12 -format json -o latency.json",
		"-experiment fig4 -reps 20 -workers 8 -progress",
		"-experiment mobility",
		"-experiment all -reps 8",
		"-experiment fig4 -reps 5 -cpuprofile cpu.out -memprofile mem.out -trace trace.out -format csv -o fig4.csv",
		"-experiment fig4 -reps 32 -workers 4",
		"-experiment shootout -reps 3 -seed 1",
		"-experiment fig8 -reps 2",
		"-experiment fig4 -reps 4 -format json -o /tmp/a.json",
		"-experiment fig2", "-experiment fig4", "-experiment fig6", "-experiment fig8",
		"-experiment fig9", "-experiment fig11", "-experiment fig12", "-experiment fig12 -format json",
	} {
		if _, err := parse(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
	s, err := parse(nil, io.Discard)
	if err != nil || names(s.campaigns) != "fig2,fig4,fig6,fig8,fig9,fig11,shootout,fig12" ||
		s.opts.Reps != 5 || s.opts.Seed != 1 || !s.opts.SampleProfiles || s.format != "text" {
		t.Errorf("defaults bound %+v, %v", s, err)
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
	if line := stderr.String(); !strings.Contains(line, "fig8: wall") || !strings.Contains(line, " allocs/run, ") || !strings.Contains(line, " MB/run\n") {
		t.Errorf("speedline missing from stderr in json mode: %q", line)
	}
}

// TestScorecardFormat: -format scorecard writes only the rows of the
// claims whose campaigns -experiment selects, and nothing else.
func TestScorecardFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-experiment fig8 -reps 2 -format scorecard"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "id,source,claim,paper,lo,hi,f1,f2,f3,verdict,owner") ||
		!strings.HasPrefix(lines[1], "fig8-simsyn-8kb,") || !strings.HasPrefix(lines[4], "fig8-simsyn-512kb-no-harm,") {
		t.Errorf("-experiment fig8 -format scorecard wrote:\n%s", stdout.Bytes())
	}
}
