package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRejectsUnknownScheduler is mptcpsim's rejection table, the
// scheduler typo first: each command line must die in parse — exit 2,
// exactly one stderr line that starts with the binary's name and names
// the bad value, nothing on stdout, nothing simulated.
func TestRejectsUnknownScheduler(t *testing.T) {
	for args, want := range map[string]string{
		"-scheduler bogus":            `"bogus"`,
		"-scheduler weighted:3;oops":  `"oops"`,
		"-cc foo":                     `"foo"`,
		"-size-kb -5":                 "-5",
		"-size-kb 0":                  "0B",
		"-size-kb x":                  `"x"`,
		"-transport nope":             `"nope"`,
		"-wifi nope":                  `"nope"`,
		"-carrier tmobile":            `"tmobile"`,
		"-seed":                       "-seed",
		"-nope":                       "-nope",
		"size-kb 64":                  `"size-kb"`,
		"-transport mp2 -cc olia out": `"out"`,
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "mptcpsim: ") || !strings.Contains(line, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				args, code, stdout.String(), stderr.String(), want)
		}
	}
}

// TestAcceptsRepoCommandLines: every mptcpsim command line the repo
// itself issues (README, the verify skill) parses and validates, and
// so does each transport spelling mptcpchaos takes.
func TestAcceptsRepoCommandLines(t *testing.T) {
	for _, args := range []string{
		"",
		"-transport mp2 -carrier att -size-kb 4096 -pcap /tmp/run",
		"-transport mp2 -carrier att -size-kb 512",
		"-transport mp4 -carrier verizon -size-kb 2048 -seed 7 -pcap /root/scratch/mp4",
		"-pcap /tmp/x",
		"-transport wifi", "-transport cell", "-transport mptcp", "-transport MP-4", "-transport SP-WiFi",
		"-cc reno -scheduler weighted:3;1 -wifi coffeeshop -carrier sprint -cold-radio -penalize -simultaneous-syn",
	} {
		if _, err := parse(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
	s, err := parse([]string{"-transport", "mp4", "-cold-radio", "-size-kb", "64"}, io.Discard)
	if err != nil || !s.tb.ServerSecondIface || s.tb.WarmRadio || s.rc.Size != 64<<10 {
		t.Errorf("parse bound %+v, %v", s, err)
	}
}

// TestExitCodes: -h is exit 0 with the usage on stdout; a download
// that fails is exit 1 with one line on stderr.
func TestExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "-size-kb") {
		t.Errorf("-h: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	code := run([]string{"-size-kb", "8", "-pcap", t.TempDir() + "/no/such/dir/x"}, &stdout, &stderr)
	if line := strings.TrimSuffix(stderr.String(), "\n"); code != 1 || !strings.HasPrefix(line, "mptcpsim: ") || strings.Contains(line, "\n") {
		t.Errorf("unwritable -pcap: exit %d, stderr %q; want exit 1 and one line", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-size-kb", "8", "-transport", "sp-wifi"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "download time:") {
		t.Errorf("8 KB download: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
