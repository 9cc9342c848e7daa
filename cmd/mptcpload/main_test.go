package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcplab/internal/load"
)

// TestRejectsBadSweeps is mptcpload's rejection table: each command
// line must die in parse — exit 2, exactly one stderr line that starts
// with the binary's name and names the bad value, nothing on stdout,
// before any sweep row runs. A scheduler or controller typo would
// otherwise sweep a grid of fallback or failed rows; a non-positive
// axis would export rows labelled with a value that never ran; an
// unknown -format would silently write CSV.
func TestRejectsBadSweeps(t *testing.T) {
	for args, want := range map[string]string{
		"-scheduler weighted:3;oops": `"weighted:3;oops"`,
		"-rates -3":                  "-3",
		"-rates 2,x":                 `"x"`,
		"-fleets 999999":             "999999",
		"-fleets 20,-5":              "-5",
		"-fleets 20,,30":             `""`,
		"-reps -1":                   "-1",
		"-cc foo":                    `"foo"`,
		"-format xml":                `"xml"`,
		"-wifi nope":                 `"nope"`,
		"-carrier nope":              `"nope"`,
		"-replay zz":                 `"zz"`,
		"-replay clients=8,cc=foo":   `"foo"`,
		"-replay clients=8,wifi=lan": `"lan"`,
		"-mix enormous":              `"enormous"`,
		"-transport wifi=2,lte=1":    `"lte"`,
		"-bg wd=8Mbps,sideways=1":    `"bgsideways"`,
		"-chaos earthquake":          `"earthquake"`,
		"-duration -5s":              "-5s",
		"-think soon":                `"soon"`,
		"-res-out res.csv":           "-chaos",
		"-nope":                      "-nope",
		"-clients 20 sweep.csv":      `"sweep.csv"`,
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		line, rest, _ := strings.Cut(stderr.String(), "\n")
		if code != 2 || stdout.Len() != 0 || rest != "" ||
			!strings.HasPrefix(line, "mptcpload: ") || !strings.Contains(line, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s",
				args, code, stdout.String(), stderr.String(), want)
		}
	}
}

// The Makefile's LOADFLAGS and CHAOSFLAGS, unquoted.
const (
	loadFlags  = "-clients 60 -rates 3,10 -duration 15s -drain 15s -reps 2 -seed 42 -transport wifi=0.3,cell=0.2,mptcp=0.5"
	chaosFlags = "-clients 40 -rates 4,8 -duration 10s -drain 20s -reps 2 -seed 42 -transport wifi=0.3,cell=0.2,mptcp=0.5 " +
		"-chaos flap:path=wifi;at=2s;dur=400ms;every=2s;n=3"
)

// TestAcceptsRepoCommandLines: every mptcpload command line the repo
// itself issues (the Makefile's loadsmoke and chaos-smoke, README,
// EXPERIMENTS.md, the verify skill, the package comment) parses and
// validates.
func TestAcceptsRepoCommandLines(t *testing.T) {
	for _, args := range []string{
		"",
		loadFlags + " -workers 1 -o loadsmoke_w1.csv",
		loadFlags + " -workers 8 -format json -o loadsmoke_w8.json",
		chaosFlags + " -workers 1 -o chaos_w1.csv -res-out chaosres_w1.csv",
		chaosFlags + " -workers 4 -format json -o chaos_w4.json -res-out chaosres_w4.json",
		"-fleets 100,200 -rates 2,8,20 -reps 3 -seed 42 -o sweep.csv",
		"-clients 200 -rates 5,15 -transport wifi=0.3,cell=0.2,mptcp=0.5 -bg wd=8Mbps -o sweep.json",
		"-rates 2,5,10 -clients 200 -reps 3 -seed 42 -o sweep.csv",
		"-clients 40 -rates 4,8 -duration 10s -drain 20s -reps 2 -seed 42 -transport wifi=0.3,cell=0.2,mptcp=0.5 " +
			"-chaos storm:path=wifi;at=1s;dur=6s;every=500ms -o /tmp/run.csv -res-out /tmp/res.csv",
		"-replay clients=40,rate=4,dur=10s,drain=20s,seed=6332618229526065668,mix=small,transport=wifi=0.3+cell=0.2+mptcp=0.5,check=1,chaos=flap:path=wifi;at=2s;dur=400ms;every=2s;n=3",
		"-replay clients=200,rate=20,dur=1m0s,drain=1m0s,seed=42,mix=small,transport=wifi=1+cell=0+mptcp=0,check=1",
		"-replay clients=200,rate=20,dur=1m0s,drain=1m0s,seed=42,mix=small,transport=mptcp,check=1",
		"-sessions 20 -think 500ms -mix 64KB -cc olia -scheduler roundrobin -sample -bg wd=8Mbps,wu=1Mbps,cd=2Mbps,cu=256Kbps -selfcheck=false -progress -deadline 30s",
	} {
		if _, err := parse(strings.Fields(args), io.Discard); err != nil {
			t.Errorf("%s: %v", args, err)
		}
	}
}

// TestReplayNeedsNoOtherFlag: a row swept off the default profiles
// carries them in its token, so -replay re-executes that exact run with
// no other flag; a profile flag beside a token still applies, wherever
// it stands, for tokens exported before they carried wifi=/cell=.
func TestReplayNeedsNoOtherFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.csv")
	sweep := "-clients 8 -flows 6 -duration 3s -drain 5s -seed 9 -wifi wifi -carrier verizon -o " + out
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(sweep), &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", sweep, code, stderr.String())
	}
	csv, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	_, token, _ := strings.Cut(strings.TrimSpace(string(csv)), `"`)
	token = strings.TrimSuffix(token, `"`)
	if !strings.Contains(token, ",wifi=wifi,cell=verizon") {
		t.Fatalf("token %q does not carry the profiles", token)
	}
	s, err := parse([]string{"-replay", token}, io.Discard)
	if err != nil || s.replay.WiFi.Name != "wifi" || s.replay.Cell.Name != "verizon" {
		t.Fatalf("-replay %s: profiles %s/%s, %v", token, s.replay.WiFi.Name, s.replay.Cell.Name, err)
	}
	if code := run([]string{"-replay", token}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "replay:     "+token+"\n") {
		t.Errorf("-replay %s: exit %d, stdout %q, stderr %q", token, code, stdout.String(), stderr.String())
	}

	old := "clients=8,flows=6,dur=3s,drain=5s,seed=9"
	for _, args := range [][]string{
		{"-wifi", "wifi", "-replay", old, "-deadline", "1m"},
		{"-replay", old, "-deadline", "1m", "-wifi", "wifi"},
	} {
		s, err := parse(args, io.Discard)
		// The cellular profile stays unset: load's default, as the token means.
		if err != nil || s.replay.WiFi.Name != "wifi" || s.replay.Cell.Name != "" || s.replay.Deadline.Minutes() != 1 {
			t.Errorf("%q: profiles %s/%s, deadline %s, %v", args, s.replay.WiFi.Name, s.replay.Cell.Name, s.replay.Deadline, err)
		}
	}
}

// TestReplayPrintsItsRow: replaying the first row of a small chaos sweep
// prints the flow-completion quantiles that row exported, to the
// printed precision, and the run's resilience report under its schedule.
func TestReplayPrintsItsRow(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.json")
	const spec = "outage:path=wifi;at=1s;dur=1s"
	sweep := "-clients 8 -flows 12 -duration 5s -drain 10s -seed 7 -chaos " + spec + " -o " + out
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(sweep), &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", sweep, code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rows []load.RunExport
	if err := json.Unmarshal(b, &rows); err != nil || len(rows) == 0 {
		t.Fatalf("decoding %d rows: %v", len(rows), err)
	}
	row := rows[0]
	stdout.Reset()
	if code := run([]string{"-replay", row.Replay}, &stdout, &stderr); code != 0 {
		t.Fatalf("-replay %s: exit %d: %s", row.Replay, code, stderr.String())
	}
	got := stdout.String()
	fct := fmt.Sprintf("fct:        p50 %.3fs  p90 %.3fs  p99 %.3fs  mean %.3fs  max %.3fs\n",
		row.FCTP50, row.FCTP90, row.FCTP99, row.FCTMean, row.FCTMax)
	if !strings.Contains(got, fct) {
		t.Errorf("replay summary does not print its row's quantiles %q:\n%s", fct, got)
	}
	if !strings.Contains(got, "chaos:      "+spec+"\n  verdict:    ") {
		t.Errorf("replay summary lacks the resilience report:\n%s", got)
	}
}
