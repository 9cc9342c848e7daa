package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcplab/internal/experiment"
)

// TestRejectsUnknownScheduler is mptcpchaos's rejection table, the
// scheduler typo first: each command line must die in parse — exit 2,
// exactly one stderr line that starts with the binary's name and names
// the bad value, and nothing on stdout: not even the report header a
// bad -transport used to follow.
func TestRejectsUnknownScheduler(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scheduler", "bogus"}, `"bogus"`},
		{[]string{"-list", "-scheduler", "nope"}, `"nope"`},
		{[]string{"-transport", "bogus"}, `"bogus"`},
		{[]string{"-schedule", "earthquake"}, `"earthquake"`},
		{[]string{"-schedule", ""}, "empty -schedule"},
		{[]string{"-size", "12XB"}, `"12XB"`},
		{[]string{"-size", "0"}, "0B"},
		{[]string{"-wifi", "nope"}, `"nope"`},
		{[]string{"-carrier", "nope"}, `"nope"`},
		{[]string{"-deadline", "soon"}, `"soon"`},
		{[]string{"-nope"}, "-nope"},
		{[]string{"-schedule", "outage", "8MB"}, `"8MB"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "mptcpchaos: ") || !strings.Contains(line, tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestAcceptsRepoCommandLines: every mptcpchaos command line the repo
// itself issues (the Makefile's chaos-smoke, EXPERIMENTS.md, the
// package comment) parses and validates, and so does each transport
// spelling mptcpsim takes.
func TestAcceptsRepoCommandLines(t *testing.T) {
	for _, args := range []string{
		"",
		"-list",
		"-schedule outage:path=wifi;at=2s;dur=3s -size 4MB -seed 61",
		"-schedule outage:path=wifi;at=2s;dur=3s -size 8MB -seed 61",
		"-schedule outage -size 8MB -seed 61",
		"-schedule outage:path=wifi;at=2s;dur=6s -size 24MB -seed 11",
		"-schedule outage:path=wifi;at=2s;dur=6s -size 24MB -seed 11 -scheduler backup -transport mp2",
		"-schedule flap:path=wifi;at=2s;dur=500ms;every=2s;n=5 -transport mp2",
		"-transport sp-wifi", "-transport sp-cell", "-transport mp4", "-transport compare",
		"-schedule flap+fade:path=cell;depth=0.5 -wifi coffeeshop -carrier verizon -scheduler redundant -deadline 0 -selfcheck=false",
	} {
		if _, err := parse(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
	s, err := parse([]string{"-transport", "mp2", "-transport", "Compare"}, io.Discard)
	if err != nil || len(s.transports) != 2 || s.transports[0] != experiment.MP2 || s.transports[1] != experiment.SPWiFi {
		t.Errorf("compare bound %v, %v; want MP-2 against SP-WiFi", s.transports, err)
	}
}

// TestListAndRun: -list prints the presets; a small faulted download
// runs to its report and exits 0.
func TestListAndRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "outage") {
		t.Errorf("-list: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	code := run(strings.Fields("-schedule outage:path=wifi;at=100ms;dur=300ms -size 256KB -transport mptcp"), &stdout, &stderr)
	if code != 0 || !strings.Contains(stdout.String(), "MP-2:\n  download:   completed") {
		t.Errorf("faulted download: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestOutageDemoPinned holds mptcpchaos command lines to their
// reports, one testdata file per line: chaos-smoke's outage demo (the
// report the commit before the resilience report became plain data
// printed: a recovery and a never-recovered window), and the paper's
// §6 handover — a 6 s WiFi outage in a 24 MB download, which MP-2
// rides out, single-path TCP waits out in RTO backoff, and backup mode
// survives but is slow to re-use the recovered WiFi path.
func TestOutageDemoPinned(t *testing.T) {
	for _, tc := range []struct{ args, file string }{
		{"-schedule outage:path=wifi;at=2s;dur=3s -size 4MB -seed 61", "outage_demo.txt"},
		{"-schedule outage:path=wifi;at=2s;dur=6s -size 24MB -seed 11", "handover.txt"},
		{"-schedule outage:path=wifi;at=2s;dur=6s -size 24MB -seed 11 -scheduler backup -transport mp2", "handover_backup.txt"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.args, code, stderr.String())
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%s: stdout differs from testdata/%s:\n%s", tc.args, tc.file, got)
		}
	}
}
