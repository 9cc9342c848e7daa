package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcplab/internal/cli"
	"mptcplab/internal/experiment"
)

// TestRejectsUnknownScheduler is mptcpsim's rejection table, the
// scheduler typo first: each command line must die in parse — exit 2,
// exactly one stderr line that starts with the binary's name and names
// the bad value, nothing on stdout, nothing simulated.
func TestRejectsUnknownScheduler(t *testing.T) {
	rejects(t, []rejection{
		{[]string{"-scheduler", "bogus"}, `"bogus"`},
		{[]string{"-scheduler", "weighted:3;oops"}, `"oops"`},
		{[]string{"-cc", "foo"}, `"foo"`},
		{[]string{"-size", "-5KB"}, "-5120B"},
		{[]string{"-size", "0"}, "0B"},
		{[]string{"-size", "12XB"}, `"12XB"`},
		{[]string{"-size-kb", "64"}, "-size-kb"},
		{[]string{"-transport", "nope"}, `"nope"`},
		{[]string{"-transport", "mp2,bogus"}, `"bogus"`},
		{[]string{"-transport", "mp2,"}, `""`},
		{[]string{"-wifi", "nope"}, `"nope"`},
		{[]string{"-carrier", "tmobile"}, `"tmobile"`},
		{[]string{"-sample=maybe"}, "maybe"},
		{[]string{"-pcap", "x", "-transport", "mp2,sp-wifi"}, "-pcap"},
		{[]string{"-replay", "zz"}, `"zz"`},
		{[]string{"-replay", "5:zz"}, `"zz"`},
		{[]string{"-replay", "5:3:warp"}, `"warp"`},
		{[]string{"-replay", "clients=8,cc=foo"}, `"foo"`},
		{[]string{"-replay", "clients=8,wifi=lan"}, `"lan"`},
		{[]string{"-replay", "396:1", "-seed", "3"}, "-seed"},
		{[]string{"-wifi", "wifi", "-replay", "clients=8,flows=6"}, "-wifi"},
		{[]string{"-seed"}, "-seed"},
		{[]string{"-nope"}, "-nope"},
		{[]string{"-deadline", "1m"}, "-deadline"},
		{[]string{"-selfcheck=false"}, "-selfcheck"},
		{[]string{"size", "64KB"}, `"size"`},
		{[]string{"-transport", "mp2", "-cc", "olia", "out"}, `"out"`},
	})
}

// TestRejectsBadChaosRun is the rejection table of the faulted run
// (-chaos), which was mptcpchaos's before it folded into mptcpsim: a
// bad value beside a good schedule dies in parse all the same, and so
// do the schedule typos and the flags the fold dropped.
func TestRejectsBadChaosRun(t *testing.T) {
	rejects(t, []rejection{
		{[]string{"-chaos", "outage", "-scheduler", "bogus"}, `"bogus"`},
		{[]string{"-chaos", "outage", "-transport", "bogus"}, `"bogus"`},
		{[]string{"-chaos", "earthquake"}, `"earthquake"`},
		{[]string{"-chaos", "outage:dur=5"}, `"5"`},
		{[]string{"-chaos", "outage", "-size", "12XB"}, `"12XB"`},
		{[]string{"-chaos", "outage", "-size", "0"}, "0B"},
		{[]string{"-chaos", "outage", "-wifi", "nope"}, `"nope"`},
		{[]string{"-chaos", "outage", "-carrier", "nope"}, `"nope"`},
		{[]string{"-chaos", "outage", "-deadline", "soon"}, "-deadline"},
		{[]string{"-chaos", "outage", "-list"}, "-list"},
		{[]string{"-chaos", "outage", "8MB"}, `"8MB"`},
	})
}

type rejection struct {
	args []string
	want string
}

// rejects runs each command line and wants it to die in parse: exit 2,
// exactly one stderr line that starts with the binary's name and names
// the bad value, nothing on stdout.
func rejects(t *testing.T, rows []rejection) {
	t.Helper()
	for _, tc := range rows {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "mptcpsim: ") || !strings.Contains(line, tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestAcceptsRepoCommandLines: every mptcpsim command line the repo's
// documents and Makefile issue parses and validates, and so does each
// spelling of the flags they do not use.
func TestAcceptsRepoCommandLines(t *testing.T) {
	lines, err := cli.RepoCommandLines("../..", "mptcpsim")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 4 {
		t.Fatalf("found %d mptcpsim command lines in the docs; the §6 lines alone are three", len(lines))
	}
	for _, args := range strings.Split("|-transport wifi|-transport cell,mptcp|-transport MP-4,SP-WiFi|"+
		"-cc reno -scheduler weighted:3;1 -wifi coffeeshop -carrier sprint -cold-radio -simultaneous-syn -sample=false|"+
		"-replay 5:3:weighted:3;1", "|") {
		lines = append(lines, strings.Fields(args))
	}
	for _, args := range lines {
		if _, err := parse(args, io.Discard); err != nil && !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%q: %v", args, err)
		}
	}
	s, err := parse([]string{"-transport", "mp4,sp-wifi", "-cold-radio", "-size", "64KB"}, io.Discard)
	if err != nil || len(s.transports) != 2 || s.transports[0] != experiment.MP4 || s.transports[1] != experiment.SPWiFi ||
		s.tb.WarmRadio || !s.tb.SampleProfiles || !s.rc.SelfCheck || s.rc.Size != 64<<10 {
		t.Errorf("parse bound %+v, %v", s, err)
	}
}

// TestAcceptsChaosCommandLines: each faulted-run command line that
// mptcpchaos took, in mptcpsim's spellings, parses and validates, and a
// comma list of transports binds in the order given, the old compare
// mode.
func TestAcceptsChaosCommandLines(t *testing.T) {
	for _, args := range []string{
		"-chaos outage:path=wifi;at=2s;dur=3s -size 4MB -seed 61 -sample=false -transport mp2,sp-wifi",
		"-chaos outage -size 8MB -seed 61",
		"-chaos outage:path=wifi;at=2s;dur=6s -size 24MB -seed 11 -sample=false -scheduler backup",
		"-chaos flap:path=wifi;at=2s;dur=500ms;every=2s;n=5 -transport mp2",
		"-chaos flap+fade:path=cell;depth=0.5 -wifi coffeeshop -carrier verizon -scheduler redundant -size 1MB",
		"-chaos none", "-chaos outage -transport sp-cell,mp4",
	} {
		if _, err := parse(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
	s, err := parse(strings.Fields("-chaos outage -transport mp2,sp-wifi -sample=false"), io.Discard)
	if err != nil || len(s.transports) != 2 || s.transports[0] != experiment.MP2 || s.transports[1] != experiment.SPWiFi ||
		len(s.rc.Chaos.Events) == 0 || s.tb.SampleProfiles {
		t.Errorf("compare bound %+v, %v; want MP-2 then SP-WiFi under the outage, unsampled", s, err)
	}
}

// TestChaosPresetsAndRun: -h lists each fault preset with its spec,
// the list mptcpchaos -list printed; a small faulted download on each
// of three transports runs to its report and exits 0, with no contrast
// line, since that needs exactly two reports.
func TestChaosPresetsAndRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 ||
		!strings.Contains(stdout.String(), "outage   outage:path=wifi;at=5s;dur=3s") {
		t.Errorf("-h: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	code := run(strings.Fields("-chaos outage:path=wifi;at=100ms;dur=300ms -size 256KB -transport mptcp,sp-wifi,mp4"), &stdout, &stderr)
	if got := stdout.String(); code != 0 || strings.Count(got, "  verdict:    ") != 3 || strings.Contains(got, "contrast:") {
		t.Errorf("three faulted downloads: exit %d, stdout %q, stderr %q; want three reports and no contrast", code, got, stderr.String())
	}
}

// TestExitCodes: -h is exit 0 with the usage on stdout; a download
// that fails is exit 1 with one line on stderr.
func TestExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "-size") {
		t.Errorf("-h: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	code := run([]string{"-size", "8KB", "-pcap", t.TempDir() + "/no/such/dir/x"}, &stdout, &stderr)
	if line := strings.TrimSuffix(stderr.String(), "\n"); code != 1 || !strings.HasPrefix(line, "mptcpsim: ") || strings.Contains(line, "\n") {
		t.Errorf("unwritable -pcap: exit %d, stderr %q; want exit 1 and one line", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-size", "8KB", "-transport", "sp-wifi"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "download time:") {
		t.Errorf("8 KB download: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestBackupSchedulerSilencesCell: -scheduler backup dials with the
// cellular subflow flagged as a backup (the MP_JOIN B bit), so on a
// healthy WiFi path cellular carries nothing; unflagged, the policy
// has no reserve and cellular carries about two thirds of this run.
func TestBackupSchedulerSilencesCell(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-scheduler backup -size 4MB"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "cell share:    0.0%\n") {
		t.Errorf("backup download put bytes on cellular:\n%s", stdout.String())
	}
}

// TestQuickstartPinned holds the README's paper-in-one-screen command
// line to its stdout, unsampled: the paper's core measurement, a 4 MB
// download over WiFi, over LTE and over both, each on a fresh testbed
// at seed 42.
func TestQuickstartPinned(t *testing.T) {
	pinned(t, "-transport sp-wifi,sp-cell,mp2 -size 4MB -seed 42 -sample=false", "quickstart.txt")
}

// TestOutageDemoPinned holds the §6 handover's command lines to their
// stdout, one testdata file per line, each unsampled and each under a
// fault schedule: chaos-smoke's outage demo (a recovery and a
// never-recovered window), and a 6 s WiFi outage in a 24 MB download,
// which MP-2 rides out, single-path TCP waits out in RTO backoff, and
// backup mode survives but is slow to re-use the recovered WiFi path.
// Their schedule, report and contrast lines and download times are
// those mptcpchaos printed for the same runs before it folded into
// mptcpsim.
func TestOutageDemoPinned(t *testing.T) {
	pinned(t, "-chaos outage:path=wifi;at=2s;dur=3s -size 4MB -seed 61 -sample=false -transport mp2,sp-wifi", "outage_demo.txt")
	pinned(t, "-chaos outage:path=wifi;at=2s;dur=6s -size 24MB -seed 11 -sample=false -transport mp2,sp-wifi", "handover.txt")
	pinned(t, "-chaos outage:path=wifi;at=2s;dur=6s -size 24MB -seed 11 -sample=false -scheduler backup", "handover_backup.txt")
}

// TestReplayPinned holds -replay to what the command that reran each
// kind of token printed before -replay moved here: a fuzz case
// (mptcpfuzz -replay) and chaos-smoke's first resilience row (mptcpload
// -replay; its p99 above its max is the log-histogram's, as exported).
// The fleet summary's event count moves with what the event loop
// counts.
func TestReplayPinned(t *testing.T) {
	pinned(t, "-replay 396:1", "replay_fuzz.txt")
	pinned(t, "-replay clients=40,rate=4,dur=10s,drain=20s,seed=6332618229526065668,mix=small,"+
		"transport=wifi=0.3+cell=0.2+mptcp=0.5,check=1,chaos=flap:path=wifi;at=2s;dur=400ms;every=2s;n=3", "replay_fleet.txt")
}

// pinned runs one command line and compares its stdout with a testdata
// file.
func pinned(t *testing.T, args, file string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", args, code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("%s: stdout differs from testdata/%s:\n%s", args, file, got)
	}
}
