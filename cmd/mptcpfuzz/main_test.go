package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestRejectsUnknownScheduler is mptcpfuzz's rejection table, the
// scheduler typo first: each command line must die in parse — exit 2,
// exactly one stderr line that starts with the binary's name and names
// the bad value, nothing on stdout, no scenario generated.
func TestRejectsUnknownScheduler(t *testing.T) {
	for args, want := range map[string]string{
		"-sched bogus":           `"bogus"`,
		"-sched weighted:1;zero": `"zero"`,
		"-n -1":                  "-1",
		"-n many":                `"many"`,
		"-replay zz":             `"zz"`,
		"-replay 5:zz":           `"zz"`,
		"-replay 5:3:warp":       `"warp"`,
		"-nope":                  "-nope",
		"-n 5 396:1":             `"396:1"`,
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "mptcpfuzz: ") || !strings.Contains(line, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				args, code, stdout.String(), stderr.String(), want)
		}
	}
}

// TestAcceptsRepoCommandLines: every mptcpfuzz command line the repo
// itself issues (the Makefile's fuzz-smoke under each of FUZZ_SCHEDS,
// EXPERIMENTS.md, the verify skill, ci.yml's reproduce hint) parses and
// validates.
func TestAcceptsRepoCommandLines(t *testing.T) {
	lines := []string{"", "-n 500 -seed 1", "-replay 396:1 -v", "-replay 5:3:weighted:3;1", "-n 0"}
	for _, s := range strings.Fields("minrtt roundrobin weighted redundant blest adaptive") {
		lines = append(lines, "-n 200 -seed 1 -sched "+s)
	}
	for _, args := range lines {
		if _, err := parse(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
}

// TestSweepAndReplay: a short sweep and a replayed token both run clean
// and exit 0.
func TestSweepAndReplay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-n 3 -seed 1 -sched blest"), &stdout, &stderr); code != 0 || stdout.String() != "ok: 3 scenarios, 0 violations\n" {
		t.Errorf("sweep: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run(strings.Fields("-replay 396:1"), &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "seed=396 mask=1") {
		t.Errorf("replay: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
